"""Gradient clipping: the stability lever for aggressive mu/xi/lr regimes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.nn import Parameter, clip_grad_norm, global_grad_norm


def _params_with_grads(values):
    out = []
    for v in values:
        p = Parameter(np.zeros_like(np.asarray(v, dtype=np.float32)))
        p.grad[...] = v
        out.append(p)
    return out


class TestClipGradNorm:
    def test_norm_computation(self):
        params = _params_with_grads([np.array([3.0, 0.0]), np.array([[4.0]])])
        assert global_grad_norm(params) == pytest.approx(5.0)

    def test_clips_to_max(self):
        params = _params_with_grads([np.array([3.0, 4.0])])
        pre = clip_grad_norm(params, 1.0)
        assert pre == pytest.approx(5.0)
        assert global_grad_norm(params) == pytest.approx(1.0, rel=1e-5)

    def test_direction_preserved(self):
        params = _params_with_grads([np.array([3.0, 4.0])])
        clip_grad_norm(params, 1.0)
        np.testing.assert_allclose(params[0].grad, [0.6, 0.8], rtol=1e-5)

    def test_no_clip_when_small(self):
        params = _params_with_grads([np.array([0.3, 0.4])])
        clip_grad_norm(params, 1.0)
        np.testing.assert_allclose(params[0].grad, [0.3, 0.4])

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm(_params_with_grads([np.array([1.0])]), 0.0)


class TestClippingInSimulation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(max_grad_norm=0.0)

    def test_clipping_changes_trajectory(self, tiny_data):
        accs = {}
        for clip in (None, 0.01):
            cfg = FLConfig(rounds=3, n_clients=6, clients_per_round=3,
                           batch_size=20, lr=0.05, seed=1, max_grad_norm=clip)
            sim = Engine(tiny_data, build_strategy("fedavg"), cfg, model_name="mlp")
            accs[clip] = sim.run().accuracies()
            sim.close()
        assert not np.allclose(accs[None], accs[0.01])

    def test_clipping_keeps_hot_fedtrip_finite_and_learning(self):
        """The Fig. 7 hot regime (large mu, staleness xi, momentum):
        clipping bounds every step so the run stays finite and learns."""
        data = build_federated_data("mini_mnist", n_clients=10,
                                    partition="dirichlet", alpha=0.5, seed=0)
        cfg = FLConfig(rounds=12, n_clients=10, clients_per_round=4,
                       batch_size=50, lr=0.03, seed=0, max_grad_norm=1.0)
        sim = Engine(data, build_strategy("fedtrip", mu=2.5), cfg,
                         model_name="mlp")
        hist = sim.run()
        assert all(np.isfinite(w).all() for w in sim.server.weights)
        assert hist.accuracies()[-1] > 30.0
        sim.close()

    def test_clipping_applies_to_moon_and_fedgkd(self, tiny_data):
        for method in ("moon", "fedgkd"):
            cfg = FLConfig(rounds=2, n_clients=6, clients_per_round=3,
                           batch_size=20, lr=0.05, seed=1, max_grad_norm=0.5)
            sim = Engine(tiny_data, build_strategy(method), cfg, model_name="mlp")
            hist = sim.run()
            assert np.isfinite(hist.accuracies()).all()
            sim.close()
