"""Bridging theory to implementation: Definition 1's gamma and server
fault tolerance."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_strategy
from repro.analysis import measure_inexactness
from repro.data import ArrayDataset
from repro.fl.server import Server
from repro.fl.types import ClientUpdate
from repro.models import build_mlp
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD


def _train_local(model, dataset, epochs, lr=0.1, mu=0.0, global_weights=None):
    crit = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=lr)
    for _ in range(epochs):
        logits = model(dataset.x)
        _, d = crit(logits, dataset.y)
        model.zero_grad()
        model.backward(d)
        if mu > 0 and global_weights is not None:
            for p, g in zip(model.parameters(), global_weights):
                p.grad += mu * (p.data - g)
        opt.step()


@pytest.fixture
def local_task(rng):
    x = rng.standard_normal((60, 1, 3, 3)).astype(np.float32)
    y = (x.reshape(60, -1).sum(axis=1) > 0).astype(np.int64)
    return ArrayDataset(x, y)


class TestGammaInexactness:
    def test_no_training_gamma_one(self, local_task, rng):
        """At w_k = w_g with mu=0: grad h = grad F_k(w_g), so gamma = 1."""
        model = build_mlp((1, 3, 3), 2, hidden=4, rng=rng)
        w = model.get_weights()
        gamma = measure_inexactness(model, local_task, w, w, mu=0.0)
        assert gamma == pytest.approx(1.0, rel=1e-4)

    def test_more_local_work_shrinks_gamma(self, local_task, rng):
        """Solving the proximal subproblem more exactly lowers gamma —
        Definition 1's whole point."""
        mu = 0.5
        gammas = {}
        for epochs in (2, 60):
            model = build_mlp((1, 3, 3), 2, hidden=4, rng=np.random.default_rng(0))
            w_g = model.get_weights()
            _train_local(model, local_task, epochs, mu=mu, global_weights=w_g)
            gammas[epochs] = measure_inexactness(
                model, local_task, w_g, model.get_weights(), mu=mu
            )
        assert gammas[60] < gammas[2]

    def test_restores_model_weights(self, local_task, rng):
        model = build_mlp((1, 3, 3), 2, hidden=4, rng=rng)
        before = model.get_weights()
        other = [w + 1.0 for w in before]
        measure_inexactness(model, local_task, other, before, mu=0.1)
        for a, b in zip(model.get_weights(), before):
            np.testing.assert_array_equal(a, b)

    def test_historical_term_changes_gamma(self, local_task, rng):
        model = build_mlp((1, 3, 3), 2, hidden=4, rng=rng)
        w_g = model.get_weights()
        _train_local(model, local_task, 5)
        w_k = model.get_weights()
        hist = [w - 0.5 for w in w_k]
        g0 = measure_inexactness(model, local_task, w_g, w_k, mu=0.5, xi=0.0)
        g1 = measure_inexactness(model, local_task, w_g, w_k, mu=0.5, xi=1.0,
                                 historical_weights=hist)
        assert g0 != g1


class TestServerFaultTolerance:
    def _update(self, cid, values, n=5):
        return ClientUpdate(cid, [np.asarray(values, dtype=np.float32)], n, 0.0)

    def _server(self):
        cfg = FLConfig(rounds=1, n_clients=4, clients_per_round=2)
        return Server([np.zeros(2, dtype=np.float32)], build_strategy("fedavg"), cfg)

    def test_nan_update_dropped(self):
        server = self._server()
        server.apply_updates([
            self._update(0, [1.0, 1.0]),
            self._update(1, [np.nan, 2.0]),
        ])
        np.testing.assert_allclose(server.weights[0], [1.0, 1.0])

    def test_inf_update_dropped(self):
        server = self._server()
        server.apply_updates([
            self._update(0, [2.0, 2.0]),
            self._update(1, [np.inf, 0.0]),
        ])
        np.testing.assert_allclose(server.weights[0], [2.0, 2.0])

    def test_all_bad_skips_round_keeping_weights(self):
        server = self._server()
        before = [w.copy() for w in server.weights]
        server.apply_updates([self._update(0, [np.nan, np.nan])])
        for a, b in zip(server.weights, before):
            np.testing.assert_array_equal(a, b)
        assert server.skipped_rounds == 1
        assert server.round_idx == 1  # the round still advances

    def test_healthy_round_unaffected(self):
        server = self._server()
        server.apply_updates([
            self._update(0, [1.0, 3.0]),
            self._update(1, [3.0, 1.0]),
        ])
        np.testing.assert_allclose(server.weights[0], [2.0, 2.0])

    def test_simulation_survives_diverging_client(self, tiny_data):
        """A strategy that poisons one client's weights must not take down
        the global model."""
        from repro.algorithms import FedAvg

        class Saboteur(FedAvg):
            def on_round_end(self, ctx):
                if ctx.client_id == 0:
                    for p in ctx.model.parameters():
                        p.data[...] = np.nan

        cfg = FLConfig(rounds=3, n_clients=6, clients_per_round=3,
                       batch_size=20, lr=0.05, seed=0)
        sim = Engine(tiny_data, Saboteur(), cfg, model_name="mlp")
        hist = sim.run()
        for w in sim.server.weights:
            assert np.isfinite(w).all()
        acc = hist.accuracies()
        assert np.isfinite(acc[~np.isnan(acc)]).all()
        sim.close()
