"""Per-algorithm correctness: gradient math, state handling, reductions.

The key technique: run one client round with a strategy, and independently
recompute what the weights *should* be from the algorithm's published update
rule, using the same batches and initial weights.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    FedAvg,
    FedDyn,
    FedProx,
    FedTrip,
    MOON,
    SlowMo,
    SCAFFOLD,
    available_strategies,
    build_strategy,
    paper_defaults,
)
from repro.fl import FLConfig, Simulation
from repro.fl.params import as_flat


def _run(data, strategy, config, rounds=None, **kw):
    cfg = config
    sim = Simulation(data, strategy, cfg, model_name="mlp", **kw)
    hist = sim.run()
    sim.close()
    return sim, hist


class TestRegistry:
    def test_all_strategies_constructible(self):
        for name in available_strategies():
            s = build_strategy(name)
            assert s.name == name

    def test_paper_defaults_fedtrip(self):
        assert paper_defaults("fedtrip", model="mlp")["mu"] == 1.0
        assert paper_defaults("fedtrip", model="cnn")["mu"] == 0.4

    def test_paper_defaults_feddyn(self):
        assert paper_defaults("feddyn", dataset="mnist")["alpha"] == 1.0
        assert paper_defaults("feddyn", dataset="cifar10")["alpha"] == 0.1
        assert paper_defaults("feddyn", dataset="mini_mnist")["alpha"] == 1.0

    def test_overrides_win(self):
        s = build_strategy("fedtrip", mu=2.5)
        assert s.mu == 2.5

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            build_strategy("fedsgd9000")

    def test_describe_rows(self):
        """Table I: FedTrip = sufficient info + low cost; MOON = high cost."""
        assert build_strategy("fedtrip").describe()["information_utilization"] == "sufficient"
        assert build_strategy("fedtrip").describe()["resource_cost"] == "low"
        assert build_strategy("moon").describe()["resource_cost"] == "high"
        assert build_strategy("fedprox").describe()["information_utilization"] == "insufficient"


class TestFedTripMath:
    def test_mu_zero_equals_fedavg(self, tiny_data, small_config):
        _, h_trip = _run(tiny_data, FedTrip(mu=0.0), small_config)
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        np.testing.assert_allclose(h_trip.accuracies(), h_avg.accuracies(), atol=1e-5)

    def test_first_round_equals_fedprox(self, tiny_data):
        """With no history yet, FedTrip's gradient term reduces to FedProx's
        proximal term (same mu), so round 1 must match exactly."""
        cfg = FLConfig(rounds=1, n_clients=6, clients_per_round=3, batch_size=20, seed=4)
        _, h_trip = _run(tiny_data, FedTrip(mu=0.3), cfg)
        _, h_prox = _run(tiny_data, FedProx(mu=0.3), cfg)
        np.testing.assert_allclose(h_trip.accuracies(), h_prox.accuracies(), atol=1e-6)

    def test_diverges_from_fedprox_once_history_exists(self, tiny_data):
        cfg = FLConfig(rounds=6, n_clients=6, clients_per_round=3, batch_size=20, seed=4)
        _, h_trip = _run(tiny_data, FedTrip(mu=0.3), cfg)
        _, h_prox = _run(tiny_data, FedProx(mu=0.3), cfg)
        assert not np.allclose(h_trip.accuracies()[3:], h_prox.accuracies()[3:], atol=1e-6)

    def test_xi_is_staleness(self, tiny_data):
        """xi must equal the gap since last participation."""
        strat = FedTrip(mu=0.4)
        state = strat.init_client_state(0)
        assert state == {"historical": None, "last_round": None}

        class FakeCtx:
            round_idx = 7
            state = {"historical": ["x"], "last_round": 3}
            xi_measured = None

        assert strat._xi(FakeCtx()) == 4.0

        class FreshCtx:
            round_idx = 7
            state = {"historical": None, "last_round": None}
            xi_measured = None

        assert strat._xi(FreshCtx()) == 0.0

    def test_xi_constant_mode(self):
        strat = FedTrip(mu=0.4, xi_mode="constant", xi_value=0.7)

        class Ctx:
            round_idx = 9
            state = {"historical": ["x"], "last_round": 1}
            xi_measured = None

        assert strat._xi(Ctx()) == 0.7

    def test_xi_normalized_mode(self):
        strat = FedTrip(mu=0.4, xi_mode="normalized", participation_rate=0.4)

        class Ctx:
            round_idx = 6
            state = {"historical": ["x"], "last_round": 1}
            xi_measured = None

        assert strat._xi(Ctx()) == pytest.approx(5 * 0.4)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            FedTrip(mu=-1.0)
        with pytest.raises(ValueError):
            FedTrip(xi_mode="bogus")
        with pytest.raises(ValueError):
            FedTrip(xi_mode="normalized")

    def test_historical_state_updated_each_round(self, tiny_data, small_config):
        sim = Simulation(tiny_data, FedTrip(mu=0.4), small_config, model_name="mlp")
        sim.run()
        participated = {c for rec in sim.history.records for c in rec.selected}
        for cid in participated:
            st = sim.clients[cid].state
            assert st["historical"] is not None
            assert st["last_round"] is not None
        sim.close()

    def test_gradient_formula_manual(self, rng):
        """modify_gradients must add exactly mu((w-wg) + xi(wh-w))."""
        from repro.algorithms.base import ClientRoundContext
        from repro.models import build_mlp
        from repro.nn.losses import CrossEntropyLoss
        from repro.optim import SGD

        model = build_mlp((1, 2, 2), 2, hidden=3, rng=rng).materialize_flat()
        wg = [w + 0.1 for w in model.get_weights()]
        wh = [w - 0.2 for w in model.get_weights()]
        strat = FedTrip(mu=0.5)
        ctx = ClientRoundContext(
            client_id=0, round_idx=5, global_weights=wg, model=model, frozen=model,
            optimizer=SGD(model.parameters(), lr=0.1),
            criterion=CrossEntropyLoss(),
            config=FLConfig(rounds=1, n_clients=1, clients_per_round=1),
            state={"historical": as_flat(wh), "last_round": 2},
            rng=rng, n_samples=10, fp_flops_per_sample=1.0,
            global_flat=as_flat(wg),
        )
        strat.on_round_start(ctx)
        assert ctx.scratch["xi"] == 3.0
        model.zero_grad()
        strat.modify_gradients(ctx)
        for p, g, h in zip(model.parameters(), wg, wh):
            expected = 0.5 * ((p.data - g) + 3.0 * (h - p.data))
            np.testing.assert_allclose(p.grad, expected, atol=1e-6)


class TestFedProxMath:
    def test_mu_zero_equals_fedavg(self, tiny_data, small_config):
        _, h_prox = _run(tiny_data, FedProx(mu=0.0), small_config)
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        np.testing.assert_allclose(h_prox.accuracies(), h_avg.accuracies(), atol=1e-6)

    def test_proximal_pull_shrinks_update(self, tiny_data):
        """Large mu must keep local models closer to the global model."""
        cfg = FLConfig(rounds=1, n_clients=6, clients_per_round=3, batch_size=20, seed=2)
        drifts = {}
        for mu in (0.0, 10.0):
            sim = Simulation(tiny_data, FedProx(mu=mu), cfg, model_name="mlp")
            init = [w.copy() for w in sim.server.weights]
            sim.run()
            drifts[mu] = sum(
                float(np.sum((a - b) ** 2)) for a, b in zip(sim.server.weights, init)
            )
            sim.close()
        assert drifts[10.0] < drifts[0.0]


class TestSlowMo:
    def test_beta_zero_equals_fedavg(self, tiny_data, small_config):
        """SlowMo(beta=0, slow_lr=1) reduces exactly to FedAvg with SGD."""
        cfg = FLConfig(rounds=3, n_clients=6, clients_per_round=3, batch_size=20,
                       seed=1, optimizer="sgd")
        _, h_slow = _run(tiny_data, SlowMo(beta=0.0, slow_lr=1.0), cfg)
        _, h_avg = _run(tiny_data, FedAvg(), cfg)
        np.testing.assert_allclose(h_slow.accuracies(), h_avg.accuracies(), atol=1e-5)

    def test_momentum_state_persists(self, tiny_data, small_config):
        sim = Simulation(tiny_data, SlowMo(beta=0.5), small_config, model_name="mlp")
        sim.run()
        assert np.abs(sim.server.state["u"]).sum() > 0
        sim.close()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SlowMo(beta=1.0)
        with pytest.raises(ValueError):
            SlowMo(slow_lr=0.0)


class TestFedDyn:
    def test_h_state_updates(self, tiny_data, small_config):
        sim = Simulation(tiny_data, FedDyn(alpha=0.1), small_config, model_name="mlp")
        sim.run()
        assert np.abs(sim.server.state["h"]).sum() > 0
        participated = {c for rec in sim.history.records for c in rec.selected}
        cid = next(iter(participated))
        assert sim.clients[cid].state["h_k"] is not None
        sim.close()

    def test_client_correction_formula(self, rng):
        """After a round, h_k must decrease by alpha*(w_k - w_glob)."""
        from repro.algorithms.base import ClientRoundContext
        from repro.models import build_mlp
        from repro.nn.losses import CrossEntropyLoss
        from repro.optim import SGD

        model = build_mlp((1, 2, 2), 2, hidden=3, rng=rng).materialize_flat()
        wg = model.get_weights()
        strat = FedDyn(alpha=0.5)
        state = strat.init_client_state(0)
        ctx = ClientRoundContext(
            client_id=0, round_idx=0, global_weights=wg, model=model, frozen=model,
            optimizer=SGD(model.parameters(), lr=0.1), criterion=CrossEntropyLoss(),
            config=FLConfig(rounds=1, n_clients=1, clients_per_round=1),
            state=state, rng=rng, n_samples=10, fp_flops_per_sample=1.0,
            global_flat=as_flat(wg),
        )
        strat.on_round_start(ctx)
        # Pretend training moved the weights.
        for p in model.parameters():
            p.data += 0.3
        strat.on_round_end(ctx)
        for hk in ctx.state["h_k"]:
            np.testing.assert_allclose(hk, -0.5 * 0.3, atol=1e-5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            FedDyn(alpha=0.0)


class TestSCAFFOLD:
    def test_control_variates_sum_property(self, tiny_data, small_config):
        sim = Simulation(tiny_data, SCAFFOLD(), small_config, model_name="mlp")
        sim.run()
        # Server variate is a running average of client deltas: finite & nonzero.
        c = sim.server.state["c"]
        assert np.isfinite(c).all()
        assert np.abs(c).sum() > 0
        sim.close()

    def test_client_uploads_delta(self, tiny_data, small_config):
        from repro.fl.sampling import FixedSampler

        sim = Simulation(
            tiny_data, SCAFFOLD(), small_config, model_name="mlp",
            sampler=FixedSampler([[0, 1, 2]], n_clients=6),
        )
        sim.run_round()
        assert sim.clients[0].state["c_k"] is not None
        sim.close()

    def test_variate_magnitude_reasonable(self, tiny_data, small_config):
        """c_k ~ (w_glob - w_k)/(K lr): bounded by drift/(K lr)."""
        sim = Simulation(tiny_data, SCAFFOLD(), small_config, model_name="mlp")
        sim.run()
        assert np.abs(sim.server.state["c"]).max() < 100.0
        sim.close()


class TestMOON:
    def test_first_round_prev_falls_back_to_global(self, tiny_data):
        cfg = FLConfig(rounds=1, n_clients=6, clients_per_round=2, batch_size=20, seed=0)
        sim = Simulation(tiny_data, MOON(mu=1.0), cfg, model_name="mlp")
        sim.run()
        participated = {c for rec in sim.history.records for c in rec.selected}
        for cid in participated:
            assert sim.clients[cid].state["previous"] is not None
        sim.close()

    def test_mu_zero_close_to_fedavg(self, tiny_data, small_config):
        """mu=0 removes the contrastive gradient: identical to FedAvg."""
        _, h_moon = _run(tiny_data, MOON(mu=0.0), small_config)
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        np.testing.assert_allclose(h_moon.accuracies(), h_avg.accuracies(), atol=1e-4)

    def test_history_depth_guard(self):
        with pytest.raises(NotImplementedError):
            MOON(history_depth=2)


class TestPreambleStrategies:
    def test_feddane_runs_and_stores_agg(self, tiny_data, small_config):
        sim = Simulation(tiny_data, build_strategy("feddane"), small_config, model_name="mlp")
        sim.run_round()
        assert "g_agg" in sim.server.state
        sim.close()

    def test_mimelite_server_momentum(self, tiny_data, small_config):
        sim = Simulation(tiny_data, build_strategy("mimelite"), small_config, model_name="mlp")
        sim.run_round()
        assert "s" in sim.server.state
        s0 = sim.server.state["s"]
        sim.run_round()
        assert not np.array_equal(s0, sim.server.state["s"])
        sim.close()

    def test_preamble_flops_charged(self, tiny_data, small_config):
        _, h_dane = _run(tiny_data, build_strategy("feddane"), small_config)
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        assert h_dane.flops()[-1] > h_avg.flops()[-1]


class TestFedGKD:
    def test_gamma_zero_close_to_fedavg(self, tiny_data, small_config):
        _, h_gkd = _run(tiny_data, build_strategy("fedgkd", gamma=0.0), small_config)
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        np.testing.assert_allclose(h_gkd.accuracies(), h_avg.accuracies(), atol=1e-4)

    def test_distillation_flops_charged(self, tiny_data, small_config):
        _, h_gkd = _run(tiny_data, build_strategy("fedgkd"), small_config)
        _, h_avg = _run(tiny_data, FedAvg(), small_config)
        # One extra forward of three base passes: ~ +1/3.
        assert h_gkd.flops()[-1] > 1.2 * h_avg.flops()[-1]
