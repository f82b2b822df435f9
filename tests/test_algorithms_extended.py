"""Extended baselines: FedNova, AdaptiveFedTrip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    AdaptiveFedTrip,
    FedAvg,
    FedNova,
    FedTrip,
    build_strategy,
)
from repro.algorithms.fednova import _effective_tau
from repro.fl import FLConfig, Simulation
from repro.fl.types import ClientUpdate


def _run(data, strategy, config, **kw):
    sim = Simulation(data, strategy, config, model_name="mlp", **kw)
    hist = sim.run()
    sim.close()
    return sim, hist


class TestEffectiveTau:
    def test_plain_sgd_is_step_count(self):
        assert _effective_tau(7, 0.0) == 7.0

    def test_momentum_amplifies(self):
        assert _effective_tau(7, 0.9) > 7.0

    def test_limit_matches_formula(self):
        m, steps = 0.5, 10
        expected = (steps - m * (1 - m**steps) / (1 - m)) / (1 - m)
        assert _effective_tau(steps, m) == pytest.approx(expected)


class TestFedNova:
    def test_registered(self):
        assert build_strategy("fednova").name == "fednova"

    def test_equal_shards_close_to_fedavg(self, tiny_iid_data, small_config):
        """With equal local step counts and plain SGD every tau is equal, so
        the normalized scales are the sample weights and the g row's
        coefficient is zero up to float64 rounding: FedNova's global
        weights equal FedAvg's within that rounding."""
        cfg = FLConfig(**{**small_config.__dict__, "optimizer": "sgd"})
        nova, _ = _run(tiny_iid_data, FedNova(), cfg)
        avg, _ = _run(tiny_iid_data, FedAvg(), cfg)
        np.testing.assert_allclose(
            nova.server.flat_weights, avg.server.flat_weights, rtol=1e-6, atol=1e-7)

    def test_aggregate_is_the_pinned_float64_fold(self):
        """aggregate == a test-side float64 fold over the client rows (raw
        scales, cohort order) plus the (1 - sum scales) * g row, byte for
        byte; unequal taus make the g row's coefficient non-zero."""
        rng = np.random.default_rng(7)
        p = 53
        g = rng.standard_normal(p).astype(np.float32)
        taus, ns = [1.0, 3.0, 7.0], [10, 20, 30]
        updates = [
            ClientUpdate.from_flat(
                rng.standard_normal(p).astype(np.float32), [(p,)], client_id=i,
                num_samples=n, train_loss=0.0, extras={"tau_eff": t})
            for i, (t, n) in enumerate(zip(taus, ns))
        ]
        total = sum(ns)
        ps = [n / total for n in ns]
        tau_eff = sum(q * t for q, t in zip(ps, taus))
        scales = np.array([tau_eff * q / t for q, t in zip(ps, taus)])
        assert abs(1.0 - scales.sum()) > 0.1
        acc = np.zeros(p)
        for u, s in zip(updates, scales):
            acc += u.flat.astype(np.float64) * s
        acc += g.astype(np.float64) * (1.0 - scales.sum())
        out = FedNova().aggregate(updates, g, {}, FLConfig(rounds=1, n_clients=3,
                                                             clients_per_round=3))
        assert out.dtype == np.float32 and out.shape == (p,)
        np.testing.assert_array_equal(out, acc.astype(np.float32))

    def test_heterogeneous_epochs_still_learns(self, tiny_data):
        cfg = FLConfig(rounds=4, n_clients=6, clients_per_round=3, batch_size=10,
                       local_epochs=2, lr=0.05, seed=0)
        _, hist = _run(tiny_data, FedNova(), cfg)
        assert hist.best_accuracy() > 30.0

    def test_uploads_tau(self, tiny_data, small_config):
        sim = Simulation(tiny_data, FedNova(), small_config, model_name="mlp")
        sim.run_round()
        sim.close()  # no error => tau_eff was present during aggregation


class TestAdaptiveFedTrip:
    def test_registered_with_paper_defaults(self):
        s = build_strategy("fedtrip_adaptive", model="mlp")
        assert s.mu == 1.0

    def test_mu_stays_in_bounds(self, tiny_data, small_config):
        strat = AdaptiveFedTrip(mu=0.4, mu_min=0.1, mu_max=1.0, growth=2.0)
        sim = Simulation(tiny_data, strat, small_config, model_name="mlp")
        sim.run()
        assert 0.1 <= sim.server.state["mu"] <= 1.0
        sim.close()

    def test_mu_tightens_on_loss_increase(self):
        strat = AdaptiveFedTrip(mu=0.4, mu_min=0.01, mu_max=2.0, growth=1.5)
        state = strat.server_init(np.zeros(2), FLConfig(rounds=1, n_clients=1, clients_per_round=1))

        def fake_updates(loss):
            return [ClientUpdate(0, [np.zeros(2, dtype=np.float32)], 1, loss)]

        strat.post_aggregate(np.zeros(2), np.zeros(2), fake_updates(1.0), state,
                             FLConfig(rounds=1, n_clients=1, clients_per_round=1))
        mu0 = state["mu"]
        strat.post_aggregate(np.zeros(2), np.zeros(2), fake_updates(2.0), state,
                             FLConfig(rounds=1, n_clients=1, clients_per_round=1))
        assert state["mu"] == pytest.approx(mu0 * 1.5)

    def test_mu_relaxes_after_patience(self):
        strat = AdaptiveFedTrip(mu=0.4, growth=2.0, patience=2)
        cfg = FLConfig(rounds=1, n_clients=1, clients_per_round=1)
        state = strat.server_init(np.zeros(2), cfg)

        def step(loss):
            strat.post_aggregate(
                np.zeros(2), np.zeros(2),
                [ClientUpdate(0, [np.zeros(2, dtype=np.float32)], 1, loss)],
                state, cfg,
            )

        step(2.0)        # set prev
        step(1.5)        # improving (streak 1)
        step(1.0)        # improving (streak 2 -> relax)
        assert state["mu"] == pytest.approx(0.2)

    def test_trains_end_to_end(self, tiny_data, small_config):
        _, hist = _run(tiny_data, AdaptiveFedTrip(mu=0.4), small_config)
        assert hist.best_accuracy() > 30.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveFedTrip(mu=0.4, mu_min=0.5)
        with pytest.raises(ValueError):
            AdaptiveFedTrip(growth=1.0)
        with pytest.raises(ValueError):
            AdaptiveFedTrip(patience=0)
