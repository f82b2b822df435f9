"""The flat server side: every strategy server hook against its per-layer
oracle, and the invariant that server state and broadcast payloads are
``(P,)`` vectors in the plane's dtype.

Each oracle below is the per-layer server hook its strategy ran before the
server spoke flat, kept here as the reference the shipped flat hooks must
match byte for byte.  An oracle keeps per-layer server state and converts
only at the hook boundary: flat arguments become per-layer views of the
run's layout, and per-layer results are concatenated back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    SCAFFOLD,
    AdaptiveFedTrip,
    FedDANE,
    FedDyn,
    MimeLite,
    SlowMo,
)
from repro.algorithms.registry import STRATEGY_CLASSES, available_strategies
from repro.api import ExperimentSpec
from repro.api.registry import build_mode
from repro.fl.aggregation import weighted_average_flat
from repro.fl.params import as_flat

SPEC = dict(dataset="tiny", model="mlp", n_clients=6, clients_per_round=3,
            rounds=4, batch_size=20, lr=0.05, seed=0)


class _PerLayerServer:
    """Boundary helpers shared by the oracles: ``layout`` is set by the
    test to the run's weight layout before the engine is built."""

    layout = None

    def _tree(self, flat):
        return self.layout.tree_of(flat)

    def aggregate(self, updates, global_flat, server_state, config):
        # the weighted mean over the stacked (K, P) rows, cast once
        mat = np.stack([u.flat for u in updates])
        return weighted_average_flat(
            mat, [u.num_samples for u in updates]).astype(mat.dtype)


class _SlowMoOracle(_PerLayerServer, SlowMo):
    def server_init(self, global_flat, config):
        return {"u": [np.zeros_like(w) for w in self._tree(global_flat)]}

    def post_aggregate(self, new_flat, old_flat, updates, server_state, config):
        u = server_state["u"]
        lr = config.lr
        out = []
        for i, (new, old) in enumerate(zip(self._tree(new_flat), self._tree(old_flat))):
            d = (old - new) / lr
            u[i] = self.beta * u[i] + d
            out.append(old - self.slow_lr * lr * u[i])
        return as_flat(out)


class _FedDynOracle(_PerLayerServer, FedDyn):
    def server_init(self, global_flat, config):
        return {"h": [np.zeros_like(w) for w in self._tree(global_flat)]}

    def post_aggregate(self, new_flat, old_flat, updates, server_state, config):
        h = server_state["h"]
        new_weights = self._tree(new_flat)
        scale = self.alpha * len(updates) / config.n_clients
        for i, (new, old) in enumerate(zip(new_weights, self._tree(old_flat))):
            h[i] = h[i] - scale * (new - old)
        return as_flat([new - hk / self.alpha for new, hk in zip(new_weights, h)])


class _SCAFFOLDOracle(_PerLayerServer, SCAFFOLD):
    def server_init(self, global_flat, config):
        return {"c": [np.zeros_like(w) for w in self._tree(global_flat)]}

    def server_broadcast(self, server_state, round_idx):
        return {"c_flat": as_flat(server_state["c"])}

    def post_aggregate(self, new_flat, old_flat, updates, server_state, config):
        c = server_state["c"]
        scale = len(updates) / config.n_clients
        for upd in updates:
            delta = self._tree(upd.extras["c_delta"])
            for i in range(len(c)):
                c[i] = c[i] + (scale / len(updates)) * delta[i]
        return new_flat


def _per_layer_mean(oracle, preambles, global_flat):
    grads = [oracle._tree(p["full_grad"]) for p in preambles.values()]
    mean = [np.zeros_like(w) for w in oracle._tree(global_flat)]
    for g in grads:
        for i in range(len(mean)):
            mean[i] += g[i] / len(grads)
    return mean


class _MimeLiteOracle(_PerLayerServer, MimeLite):
    def server_preamble(self, server_state, preambles, global_flat, round_idx):
        mean_grad = _per_layer_mean(self, preambles, global_flat)
        s = server_state.get("s")
        if s is None:
            server_state["s"] = mean_grad
        else:
            server_state["s"] = [
                (1 - self.beta) * mg + self.beta * sk for mg, sk in zip(mean_grad, s)
            ]

    def server_broadcast(self, server_state, round_idx):
        if "s" not in server_state:
            return {}
        return {"s_flat": as_flat(server_state["s"])}


class _FedDANEOracle(_PerLayerServer, FedDANE):
    def server_preamble(self, server_state, preambles, global_flat, round_idx):
        server_state["g_agg"] = _per_layer_mean(self, preambles, global_flat)

    def server_broadcast(self, server_state, round_idx):
        if "g_agg" not in server_state:
            return {}
        return {"g_agg_flat": as_flat(server_state["g_agg"])}


class _AdaptiveFedTripOracle(_PerLayerServer, AdaptiveFedTrip):
    def post_aggregate(self, new_flat, old_flat, updates, server_state, config):
        new_weights = self._tree(new_flat)
        loss = float(np.mean([u.train_loss for u in updates]))
        prev = server_state["prev_loss"]
        if prev is not None:
            if loss > prev * 1.001:
                server_state["mu"] = min(server_state["mu"] * self.growth, self.mu_max)
                server_state["good_streak"] = 0
            else:
                server_state["good_streak"] += 1
                if server_state["good_streak"] >= self.patience:
                    server_state["mu"] = max(server_state["mu"] / self.growth, self.mu_min)
                    server_state["good_streak"] = 0
        server_state["prev_loss"] = loss
        return as_flat(new_weights)


SERVER_ORACLES = {
    "slowmo": _SlowMoOracle,
    "feddyn": _FedDynOracle,
    "scaffold": _SCAFFOLDOracle,
    "mimelite": _MimeLiteOracle,
    "feddane": _FedDANEOracle,
    "fedtrip_adaptive": _AdaptiveFedTripOracle,
}
SEMISYNC_CASES = [m for m in SERVER_ORACLES if not STRATEGY_CLASSES[m].needs_preamble]


def _run(method, mode="sync"):
    spec = ExperimentSpec(**SPEC, method=method, mode=mode)
    engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
    try:
        hist = engine.run()
    finally:
        engine.close()
    return engine, hist


def _flat_value(value):
    return np.concatenate([np.ravel(a) for a in value]) if isinstance(value, list) else value


def _assert_same_server(shipped, oracle):
    np.testing.assert_array_equal(shipped.server.flat_weights, oracle.server.flat_weights)
    assert shipped.server.state.keys() == oracle.server.state.keys()
    for key, value in shipped.server.state.items():
        expected = _flat_value(oracle.server.state[key])
        if isinstance(value, np.ndarray):
            assert value.dtype == expected.dtype, key
            np.testing.assert_array_equal(value, expected, err_msg=key)
        else:
            assert value == expected, key


@pytest.mark.parametrize("mode,method", [("sync", m) for m in SERVER_ORACLES]
                         + [("semisync", m) for m in SEMISYNC_CASES])
def test_flat_server_hooks_match_per_layer_oracle(monkeypatch, mode, method):
    shipped, shipped_hist = _run(method, mode)
    oracle_cls = SERVER_ORACLES[method]
    monkeypatch.setattr(oracle_cls, "layout", shipped.server.plane.layout)
    monkeypatch.setitem(STRATEGY_CLASSES, method, oracle_cls)
    oracle, oracle_hist = _run(method, mode)
    assert isinstance(oracle.strategy, oracle_cls)
    assert len(shipped_hist) == SPEC["rounds"] >= 3
    _assert_same_server(shipped, oracle)
    for a, b in zip(shipped_hist.records, oracle_hist.records):
        assert a.test_accuracy == b.test_accuracy
        assert a.mean_train_loss == b.mean_train_loss


@pytest.mark.parametrize("method", available_strategies())
def test_server_state_and_payload_are_plane_vectors(method):
    spec = ExperimentSpec(**{**SPEC, "rounds": 2}, method=method)
    engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
    try:
        engine.run()
        plane = engine.server.plane
        arrays = [v for v in engine.server.state.values() if isinstance(v, np.ndarray)]
        arrays += list(engine.server.broadcast_payload().values())
        for value in engine.server.state.values():
            assert not isinstance(value, (list, tuple)), method
        for arr in arrays:
            if np.ndim(arr) == 0:  # a scalar payload (AdaptiveFedTrip's mu)
                continue
            assert arr.shape == (plane.n_params,), method
            assert arr.dtype == plane.layout.dtype, method
    finally:
        engine.close()
