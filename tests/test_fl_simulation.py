"""The engine's round loop: determinism, executors, cost tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedTrip, build_strategy
from repro.api import Engine
from repro.fl import FLConfig


def _run(data, strategy, config, **kw):
    sim = Engine(data, strategy, config, model_name="mlp", **kw)
    hist = sim.run()
    sim.close()
    return sim, hist


class TestDeterminism:
    def test_same_seed_identical_history(self, tiny_data, small_config):
        _, h1 = _run(tiny_data, FedAvg(), small_config)
        _, h2 = _run(tiny_data, FedAvg(), small_config)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())
        np.testing.assert_array_equal(h1.train_losses(), h2.train_losses())

    def test_different_seed_differs(self, tiny_data):
        c1 = FLConfig(rounds=3, n_clients=6, clients_per_round=3, batch_size=20, seed=1)
        c2 = FLConfig(rounds=3, n_clients=6, clients_per_round=3, batch_size=20, seed=2)
        _, h1 = _run(tiny_data, FedAvg(), c1)
        _, h2 = _run(tiny_data, FedAvg(), c2)
        assert not np.array_equal(h1.accuracies(), h2.accuracies())

    def test_serial_and_fleet_identical(self, tiny_data, small_config):
        # "auto" is serial at one worker and the loopback fleet above
        _, h1 = _run(tiny_data, FedAvg(), small_config, n_workers=1)
        _, h2 = _run(tiny_data, FedAvg(), small_config, n_workers=3)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())

    def test_fedtrip_fleet_matches_serial(self, tiny_data, small_config):
        _, h1 = _run(tiny_data, FedTrip(mu=0.4), small_config, n_workers=1)
        _, h2 = _run(tiny_data, FedTrip(mu=0.4), small_config, n_workers=2)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())


class TestRoundLoop:
    def test_history_length(self, tiny_data, small_config):
        _, hist = _run(tiny_data, FedAvg(), small_config)
        assert len(hist) == small_config.rounds

    def test_selected_clients_recorded(self, tiny_data, small_config):
        _, hist = _run(tiny_data, FedAvg(), small_config)
        for rec in hist.records:
            assert len(rec.selected) == small_config.clients_per_round

    def test_eval_every(self, tiny_data):
        cfg = FLConfig(rounds=6, n_clients=6, clients_per_round=3, batch_size=20,
                       seed=0, eval_every=3)
        _, hist = _run(tiny_data, FedAvg(), cfg)
        acc = hist.accuracies()
        assert not np.isnan(acc[0]) and not np.isnan(acc[3]) and not np.isnan(acc[5])
        assert np.isnan(acc[1]) and np.isnan(acc[2])

    def test_client_count_mismatch_rejected(self, tiny_data):
        cfg = FLConfig(rounds=1, n_clients=9, clients_per_round=3)
        with pytest.raises(ValueError):
            Engine(tiny_data, FedAvg(), cfg, model_name="mlp")

    def test_resume_runs_remaining_rounds(self, tiny_data, small_config):
        sim = Engine(tiny_data, FedAvg(), small_config, model_name="mlp")
        sim.run_round()
        hist = sim.run()
        assert len(hist) == small_config.rounds
        sim.close()

    def test_global_model_returns_loaded_copy(self, tiny_data, small_config):
        sim, _ = _run(tiny_data, FedAvg(), small_config)
        model = sim.global_model()
        for a, b in zip(model.get_weights(), sim.server.weights):
            np.testing.assert_array_equal(a, b)

    def test_preamble_strategy_rejects_the_fleet(self, tiny_data, small_config):
        with pytest.raises(ValueError, match="preamble"):
            Engine(tiny_data, build_strategy("feddane"), small_config,
                       model_name="mlp", n_workers=2)


class TestCostTracking:
    def test_cumulative_flops_strictly_increasing(self, tiny_data, small_config):
        _, hist = _run(tiny_data, FedAvg(), small_config)
        flops = hist.flops()
        assert (np.diff(flops) > 0).all()

    def test_comm_proportional_to_rounds(self, tiny_data, small_config):
        sim, hist = _run(tiny_data, FedAvg(), small_config)
        per_round = 2 * sim.profile.num_params * 4 * small_config.clients_per_round
        np.testing.assert_allclose(
            hist.comm_bytes(), per_round * np.arange(1, small_config.rounds + 1)
        )

    def test_scaffold_doubles_comm(self, tiny_data, small_config):
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        _, h_scaf = _run(tiny_data, build_strategy("scaffold"), small_config)
        np.testing.assert_allclose(
            h_scaf.comm_bytes()[-1], 2 * h_avg.comm_bytes()[-1]
        )

    def test_moon_flops_exceed_fedavg(self, tiny_data, small_config):
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        _, h_moon = _run(tiny_data, build_strategy("moon"), small_config)
        # MOON adds 2 extra forwards out of 3 base passes: ~+2/3.
        assert h_moon.flops()[-1] > 1.4 * h_avg.flops()[-1]

    def test_fedtrip_overhead_is_negligible(self, tiny_data, small_config):
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        _, h_trip = _run(tiny_data, FedTrip(mu=0.4), small_config)
        assert h_trip.flops()[-1] < 1.1 * h_avg.flops()[-1]


class TestOptimizerSelection:
    def test_strategy_forces_plain_sgd(self, tiny_data, small_config):
        sim = Engine(tiny_data, build_strategy("slowmo"), small_config, model_name="mlp")
        worker = sim.executor._worker
        assert worker.optimizer.momentum == 0.0
        sim.close()

    def test_default_is_sgdm(self, tiny_data, small_config):
        sim = Engine(tiny_data, FedAvg(), small_config, model_name="mlp")
        assert sim.executor._worker.optimizer.momentum == pytest.approx(0.9)
        sim.close()
