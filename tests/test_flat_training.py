"""Plane-backed client training: materialization invariants (one dtype per
model), numerical gradients through plane-backed models, per-optimizer
tree-vs-flat byte equivalence, every strategy's flat attach op against its
per-layer oracle, flat clipping, and the determinism grid on the clipped
(re-pinned) reduction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    SCAFFOLD,
    AdaptiveFedTrip,
    FedDANE,
    FedDyn,
    FedProx,
    FedTrip,
    MimeLite,
)
from repro.algorithms.registry import build_strategy, paper_defaults
from repro.api import ExperimentSpec, run_experiment
from repro.data.dataset import ArrayDataset
from repro.fl.client import Client
from repro.fl.executor import (
    ClientTaskSpec,
    TaskRuntime,
    WorkerContext,
    execute_task,
    make_optimizer,
)
from repro.fl.params import GradPlane, ParamPlane, as_flat, materialize_parameters
from repro.fl.types import FLConfig
from repro.models import MODEL_BUILDERS, build_mlp, build_model
from repro.nn import Parameter, clip_grad_norm, clip_grad_norm_flat
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD, Adam
from repro.utils.rng import RngStream
from repro.utils.vectorize import tree_copy

from tests.conftest import check_layer_gradients


def _mlp(seed=0, input_dim=32):
    return build_model("mlp", (input_dim,), 10, rng=RngStream(seed).child("m").generator)


# ---------------------------------------------------------------------------
# materialization invariants
# ---------------------------------------------------------------------------

class TestMaterializeFlat:
    def test_bytes_order_and_shapes_preserved(self):
        model = _mlp(3)
        before = model.get_weights()
        names = [n for n, _ in model.named_parameters()]
        model.materialize_flat()
        assert [n for n, _ in model.named_parameters()] == names
        for w, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(w, p.data)
            assert p.data.dtype == np.float32

    def test_params_are_views_into_the_planes(self):
        model = _mlp(4).materialize_flat()
        w_flat, g_flat = model.flat_state()
        assert w_flat.size == g_flat.size == model.num_parameters()
        for p in model.parameters():
            assert np.shares_memory(p.data, w_flat)
            assert np.shares_memory(p.grad, g_flat)
        # a write through the flat vector is visible through the parameters
        w_flat[:] = 2.5
        assert all((p.data == 2.5).all() for p in model.parameters())

    def test_idempotent(self):
        model = _mlp(5).materialize_flat()
        w_flat = model.flat_weights
        model.materialize_flat()
        assert model.flat_weights is w_flat

    def test_zero_grad_is_one_write(self):
        model = _mlp(6).materialize_flat()
        model.flat_grads[...] = 3.0
        model.zero_grad()
        assert (model.flat_grads == 0.0).all()
        assert all((p.grad == 0.0).all() for p in model.parameters())

    def test_get_weights_flat_is_detached_single_copy(self):
        model = _mlp(7).materialize_flat()
        flat, shapes = model.get_weights_flat()
        assert not np.shares_memory(flat, model.flat_weights)
        assert shapes == [p.data.shape for p in model.parameters()]
        np.testing.assert_array_equal(
            flat, np.concatenate([p.data.ravel() for p in model.parameters()]))

    def test_set_weights_flat_adopts_in_one_copy(self):
        model = _mlp(8).materialize_flat()
        target = np.arange(model.num_parameters(), dtype=np.float32)
        model.set_weights_flat(target)
        np.testing.assert_array_equal(model.flat_weights, target)
        with pytest.raises(ValueError, match="elements"):
            model.set_weights_flat(target[:-1])

    def test_state_dict_round_trip_through_views(self):
        model = _mlp(9).materialize_flat()
        other = _mlp(10).materialize_flat()
        other.load_state_dict(model.state_dict())
        np.testing.assert_array_equal(other.flat_weights, model.flat_weights)

    def test_mixed_dtype_tree_raises(self):
        a = Parameter(np.ones(3))
        b = Parameter(np.ones(2))
        b.data = b.data.astype(np.float64)  # force a mixed-dtype tree
        b.grad = np.zeros(2, dtype=np.float64)
        before = a.data
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            materialize_parameters([a, b])
        assert a.data is before  # untouched when rejected
        with pytest.raises(ValueError, match="empty"):
            materialize_parameters([])

    def test_run_experiment_rejects_a_mixed_dtype_model(self, monkeypatch):
        def mlp_with_f64_head(input_shape, num_classes, rng=None):
            model = build_mlp(input_shape, num_classes, rng=rng)
            head = model.parameters()[-1]
            head.data = head.data.astype(np.float64)
            head.grad = np.zeros_like(head.data)
            return model

        monkeypatch.setitem(MODEL_BUILDERS, "mlp_f64_head", mlp_with_f64_head)
        spec = ExperimentSpec(dataset="tiny", model="mlp_f64_head", n_clients=4,
                              clients_per_round=2, rounds=1, batch_size=20)
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            run_experiment(spec)

    def test_materialize_parameters_returns_plane_pair(self):
        model = _mlp(11)
        params = model.parameters()
        planes = materialize_parameters(params)
        assert planes is not None
        weight_plane, grad_plane = planes
        assert isinstance(weight_plane, ParamPlane)
        assert isinstance(grad_plane, GradPlane)
        grad_plane.flat[...] = 1.0
        grad_plane.zero_()
        assert (grad_plane.flat == 0.0).all()

    def test_rebind_rejects_mismatches(self):
        p = Parameter(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="rebind data"):
            p.rebind(np.zeros((3, 2), dtype=np.float32), np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="rebind grad"):
            p.rebind(np.zeros((2, 3), dtype=np.float32), np.zeros((3, 2), dtype=np.float32))


# ---------------------------------------------------------------------------
# numerical gradients survive re-homing
# ---------------------------------------------------------------------------

def _smooth_fedmodel(seed=12):
    """A two-hidden-layer Tanh MLP: smooth everywhere, so the central
    differences of the numerical check are well defined at every entry
    (ReLU kinks make sampled checks flaky near zero pre-activations)."""
    from repro.models.fedmodel import FedModel
    from repro.nn import Linear, Sequential, Tanh

    rng = RngStream(seed).child("m").generator
    return FedModel(
        Sequential(Linear(9, 12, rng=rng), Tanh(), Linear(12, 8, rng=rng), Tanh()),
        Sequential(Linear(8, 5, rng=rng)),
        input_shape=(9,), name="smooth-mlp")


class TestPlaneBackedGradients:
    def test_gradcheck_through_plane_backed_model(self, rng):
        model = _smooth_fedmodel().materialize_flat()
        x = rng.standard_normal((4, 9)).astype(np.float32)
        check_layer_gradients(model, x)

    def test_plane_backed_gradients_match_tree_gradients(self, rng):
        x = rng.standard_normal((4, 9)).astype(np.float32)
        flat_model = _smooth_fedmodel().materialize_flat()
        tree_model = _smooth_fedmodel()
        for model in (flat_model, tree_model):
            out = model(x)
            model.zero_grad()
            model.backward(np.ones_like(out))
        np.testing.assert_array_equal(
            flat_model.flat_grads,
            np.concatenate([p.grad.ravel() for p in tree_model.parameters()]))
        assert float(np.abs(flat_model.flat_grads).sum()) > 0.0


# ---------------------------------------------------------------------------
# per-optimizer tree-vs-flat byte equivalence
# ---------------------------------------------------------------------------

OPTIMIZER_CASES = [
    ("sgd", dict(lr=0.05)),
    ("sgd+wd", dict(lr=0.05, weight_decay=0.01)),
    ("sgdm", dict(lr=0.05, momentum=0.9)),
    ("sgdm+wd", dict(lr=0.05, momentum=0.9, weight_decay=0.01)),
    ("nesterov", dict(lr=0.05, momentum=0.9, nesterov=True)),
    ("adam", dict(lr=0.01)),
    ("adam+wd", dict(lr=0.01, weight_decay=0.01)),
]


class TestOptimizerByteEquivalence:
    @pytest.mark.parametrize("name,kwargs", OPTIMIZER_CASES, ids=[c[0] for c in OPTIMIZER_CASES])
    def test_flat_step_matches_tree_step_bytes(self, name, kwargs):
        cls = Adam if name.startswith("adam") else SGD
        tree_model = _mlp(20)
        flat_model = _mlp(20).materialize_flat()
        tree_opt = cls(tree_model.parameters(), **kwargs)
        flat_opt = cls(flat_model.parameters(), flat_state=flat_model.flat_state(), **kwargs)
        rng = np.random.default_rng(0)
        for step in range(5):
            if step == 3:  # rounds reset momentum without touching weights
                tree_opt.reset_state()
                flat_opt.reset_state()
            grads = rng.standard_normal(flat_model.num_parameters()).astype(np.float32)
            flat_model.flat_grads[...] = grads
            cursor = 0
            for p in tree_model.parameters():
                p.grad[...] = grads[cursor:cursor + p.size].reshape(p.data.shape)
                cursor += p.size
            tree_opt.step()
            flat_opt.step()
            np.testing.assert_array_equal(
                flat_model.flat_weights,
                np.concatenate([p.data.ravel() for p in tree_model.parameters()]),
                err_msg=f"{name} diverged at step {step}")

    def test_weight_decay_folds_in_place_no_fresh_grad_array(self):
        for cls, kwargs in ((SGD, dict(lr=0.1, weight_decay=0.5)),
                            (Adam, dict(lr=0.1, weight_decay=0.5))):
            p = Parameter(np.full(4, 2.0, dtype=np.float32))
            p.grad[...] = 1.0
            grad_buffer = p.grad
            cls([p], **kwargs).step()
            assert p.grad is grad_buffer
            np.testing.assert_allclose(p.grad, 1.0 + 0.5 * 2.0, rtol=1e-6)

    def test_flat_state_size_validated(self):
        model = _mlp(21).materialize_flat()
        w, g = model.flat_state()
        with pytest.raises(ValueError, match="flat state"):
            SGD(model.parameters(), lr=0.1, flat_state=(w[:-1], g[:-1]))


# ---------------------------------------------------------------------------
# per-strategy flat attach ops against their per-layer oracles
# ---------------------------------------------------------------------------
#
# Each oracle below is the per-layer attach op its strategy ran on models
# that were not plane-backed, kept here as the reference the shipped flat
# hooks must match byte for byte.  The oracles keep per-layer client state
# and read per-layer server payloads (SCAFFOLD's ``c``, MimeLite's ``s``,
# FedDANE's ``g_agg``); they train on the same plane-backed worker, whose
# ``Parameter.data``/``.grad`` are views into the planes.

class _FedProxOracle(FedProx):
    def modify_gradients(self, ctx):
        if self.mu == 0.0:
            return
        for p, gw in zip(ctx.model.parameters(), ctx.global_weights):
            p.grad += self.mu * (p.data - gw)
        ctx.extra_flops += 2.0 * ctx.n_params


class _FedTripOracleHooks:
    """FedTrip's Algorithm 1 line 7 per layer, with a per-layer anchor.
    ``on_round_start`` stays FedTrip's (xi, and the adapted mu of
    AdaptiveFedTrip); the flat op it binds goes unused."""

    def modify_gradients(self, ctx):
        mu = ctx.scratch.get("mu", self.mu)
        if mu == 0.0:
            return
        xi = ctx.scratch["xi"]
        hist = ctx.state.get("historical")
        params = ctx.model.parameters()
        if xi > 0.0 and hist is not None:
            ctx.extra_flops += 4.0 * ctx.n_params
            for p, gw, hw in zip(params, ctx.global_weights, hist):
                p.grad += mu * ((p.data - gw) + xi * (hw - p.data))
        else:
            ctx.extra_flops += 2.0 * ctx.n_params
            for p, gw in zip(params, ctx.global_weights):
                p.grad += mu * (p.data - gw)

    def on_round_end(self, ctx):
        if self.historical_source == "last-local":
            ctx.state["historical"] = tree_copy(ctx.model.weight_refs())
        else:
            ctx.state["historical"] = tree_copy(ctx.global_weights)
        ctx.state["last_round"] = ctx.round_idx


class _FedTripOracle(_FedTripOracleHooks, FedTrip):
    pass


class _AdaptiveFedTripOracle(_FedTripOracleHooks, AdaptiveFedTrip):
    pass


class _FedDynOracle(FedDyn):
    def on_round_start(self, ctx):
        if ctx.state["h_k"] is None:
            ctx.state["h_k"] = [np.zeros_like(w) for w in ctx.global_weights]

    def modify_gradients(self, ctx):
        for p, gw, hk in zip(ctx.model.parameters(), ctx.global_weights, ctx.state["h_k"]):
            p.grad += self.alpha * (p.data - gw) - hk
        ctx.extra_flops += 4.0 * ctx.n_params

    def on_round_end(self, ctx):
        h_k = ctx.state["h_k"]
        for i, (p, gw) in enumerate(zip(ctx.model.parameters(), ctx.global_weights)):
            h_k[i] = h_k[i] - self.alpha * (p.data - gw)


class _SCAFFOLDOracle(SCAFFOLD):
    def on_round_start(self, ctx):
        if ctx.state["c_k"] is None:
            ctx.state["c_k"] = [np.zeros_like(w) for w in ctx.global_weights]
        ctx.scratch["steps"] = 0

    def modify_gradients(self, ctx):
        c = ctx.server_broadcast["c"]
        for p, ck, cg in zip(ctx.model.parameters(), ctx.state["c_k"], c):
            p.grad += cg - ck
        ctx.scratch["steps"] += 1
        ctx.extra_flops += 2.0 * ctx.n_params

    def on_round_end(self, ctx):
        inv = 1.0 / (max(ctx.scratch["steps"], 1) * ctx.config.lr)
        c = ctx.server_broadcast["c"]
        c_k_new, delta = [], []
        for p, gw, ck, cg in zip(ctx.model.parameters(), ctx.global_weights,
                                 ctx.state["c_k"], c):
            new = ck - cg + inv * (gw - p.data)
            c_k_new.append(new)
            delta.append(new - ck)
        ctx.state["c_k"] = c_k_new
        ctx.upload_extras["c_delta"] = delta


class _MimeLiteOracle(MimeLite):
    def modify_gradients(self, ctx):
        s = ctx.server_broadcast.get("s")
        if s is None:
            return
        b = self.beta
        for p, sk in zip(ctx.model.parameters(), s):
            p.grad *= 1 - b
            p.grad += b * sk
        ctx.extra_flops += 2.0 * ctx.n_params


class _FedDANEOracle(FedDANE):
    def on_round_start(self, ctx):
        pass

    def modify_gradients(self, ctx):
        g_agg = ctx.server_broadcast.get("g_agg")
        g_loc = ctx.state.get("grad_at_global")
        params = ctx.model.parameters()
        if g_agg is not None and g_loc is not None:
            for p, gw, ga, gl in zip(params, ctx.global_weights, g_agg, g_loc):
                p.grad += ga - gl + self.mu * (p.data - gw)
            ctx.extra_flops += 4.0 * ctx.n_params
        else:
            for p, gw in zip(params, ctx.global_weights):
                p.grad += self.mu * (p.data - gw)
            ctx.extra_flops += 2.0 * ctx.n_params


ORACLES = {
    "fedavg": None,  # no attach op: the shipped strategy is its own oracle
    "fedprox": _FedProxOracle,
    "fedtrip": _FedTripOracle,
    "fedtrip_adaptive": _AdaptiveFedTripOracle,
    "feddyn": _FedDynOracle,
    "scaffold": _SCAFFOLDOracle,
    "mimelite": _MimeLiteOracle,
    "feddane": _FedDANEOracle,
}
STRATEGY_CASES = list(ORACLES)

#: (server payload key, fill value) of the strategies that ship one
SERVER_PAYLOADS = {"scaffold": ("c", 0.01), "mimelite": ("s", 0.02), "feddane": ("g_agg", 0.03)}


def _make_fixture(method: str, oracle: bool):
    """A one-client training fixture on a plane-backed worker running either
    the shipped strategy or its per-layer oracle: (worker, runtime, strategy)."""
    root = RngStream(0)
    model = build_model("mlp", (24,), 10, rng=root.child("model-init").generator)
    frozen = build_model("mlp", (24,), 10, rng=root.child("model-init").generator)
    frozen.eval()
    strategy = build_strategy(method)
    if oracle and ORACLES[method] is not None:
        strategy = ORACLES[method](**paper_defaults(method))
    opt_name = strategy.local_optimizer or "sgdm"
    config = FLConfig(rounds=2, n_clients=2, clients_per_round=2, batch_size=10,
                      lr=0.05, optimizer=opt_name)
    worker = WorkerContext(model, frozen, make_optimizer(opt_name, model, config),
                           CrossEntropyLoss())

    rng = np.random.default_rng(5)
    dataset = ArrayDataset(rng.standard_normal((20, 24)).astype(np.float32),
                           rng.integers(0, 10, 20))
    clients = [Client(0, dataset, seed=0)]
    glob = build_model("mlp", (24,), 10, rng=RngStream(9).child("g").generator)
    plane = ParamPlane.from_tree(glob.get_weights())
    runtime = TaskRuntime(clients=clients, strategy=strategy, config=config,
                          fp_flops=100.0, global_weights=plane.tree,
                          global_flat=plane.flat)
    if method in SERVER_PAYLOADS:
        key, value = SERVER_PAYLOADS[method]
        tree = [np.full_like(w, value) for w in plane.tree]
        runtime.server_broadcast = (
            {key: tree} if oracle else {f"{key}_flat": as_flat(tree)})
    return worker, runtime, strategy


def _client_round_result(method: str, oracle: bool = False):
    """Train one client for two rounds (so historical/variate state is
    exercised) with the shipped strategy or its per-layer oracle.  The
    client sits out rounds 1 and 2, so FedTrip's second round has xi = 3."""
    worker, runtime, strategy = _make_fixture(method, oracle)
    state = strategy.init_client_state(0)
    if method == "feddane":
        tree = [np.full_like(w, 0.01) for w in runtime.global_weights]
        state["grad_at_global"] = tree if oracle else as_flat(tree)
    update = None
    for round_idx in (0, 3):
        result = execute_task(
            ClientTaskSpec(client_id=0, round_idx=round_idx, state=state),
            worker, runtime)
        state = result.state
        update = result.update
    return update, state


def _flat(value):
    """A per-layer oracle value as one vector (flat values pass through)."""
    if isinstance(value, list):
        return np.concatenate([np.ravel(a) for a in value])
    return value


class TestStrategyFlatEquivalence:
    @pytest.mark.parametrize("method", STRATEGY_CASES)
    def test_trained_weights_byte_identical(self, method):
        shipped, shipped_state = _client_round_result(method)
        oracle, oracle_state = _client_round_result(method, oracle=True)
        np.testing.assert_array_equal(
            shipped.flat_vector(), oracle.flat_vector(),
            err_msg=f"{method}: flat attach op diverged from its per-layer oracle")
        assert shipped.flops == oracle.flops
        assert shipped.train_loss == oracle.train_loss
        assert shipped_state.keys() == oracle_state.keys()
        for key, value in shipped_state.items():
            assert isinstance(value, (np.ndarray, type(None), int, float)), key
            np.testing.assert_array_equal(value, _flat(oracle_state[key]), err_msg=key)
        assert shipped.extras.keys() == oracle.extras.keys()
        for key, value in shipped.extras.items():
            np.testing.assert_array_equal(value, _flat(oracle.extras[key]), err_msg=key)

    def test_scaffold_flat_delta_matches_tree_delta(self):
        shipped, shipped_state = _client_round_result("scaffold")
        oracle, oracle_state = _client_round_result("scaffold", oracle=True)
        assert isinstance(shipped.extras["c_delta"], np.ndarray)
        assert np.abs(shipped.extras["c_delta"]).max() > 0.0
        np.testing.assert_array_equal(
            shipped.extras["c_delta"], _flat(oracle.extras["c_delta"]))
        np.testing.assert_array_equal(shipped_state["c_k"], _flat(oracle_state["c_k"]))

    def test_fedtrip_historical_state_is_flat(self):
        _, state = _client_round_result("fedtrip")
        assert isinstance(state["historical"], np.ndarray)

    def test_upload_does_not_alias_the_worker_plane(self):
        update, _ = _client_round_result("fedavg")
        snapshot = update.flat_vector().copy()
        # a later round mutates the worker model; the upload must not move
        _client_round_result("fedavg")
        np.testing.assert_array_equal(update.flat_vector(), snapshot)


# ---------------------------------------------------------------------------
# flat clipping
# ---------------------------------------------------------------------------

class TestFlatClipping:
    def test_flat_clip_matches_tree_clip_values(self):
        rng = np.random.default_rng(3)
        grads = (rng.standard_normal(200) * 5).astype(np.float32)
        params = []
        cursor = 0
        for size in (64, 64, 72):
            p = Parameter(np.zeros(size, dtype=np.float32))
            p.grad[...] = grads[cursor:cursor + size]
            cursor += size
            params.append(p)
        flat = grads.copy()
        pre_tree = clip_grad_norm(params, 1.0)
        pre_flat = clip_grad_norm_flat(flat, 1.0)
        assert pre_flat == pytest.approx(pre_tree, rel=1e-6)
        np.testing.assert_allclose(
            flat, np.concatenate([p.grad for p in params]), rtol=1e-6)

    def test_no_clip_below_threshold(self):
        g = np.array([0.3, 0.4], dtype=np.float32)
        assert clip_grad_norm_flat(g, 1.0) == pytest.approx(0.5)
        np.testing.assert_allclose(g, [0.3, 0.4], rtol=1e-6)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm_flat(np.ones(2, dtype=np.float32), 0.0)


# ---------------------------------------------------------------------------
# determinism grid on the clipped flat path (the one re-pinned reduction)
# ---------------------------------------------------------------------------

TINY_CLIP = dict(dataset="tiny", model="mlp", method="fedtrip", n_clients=4,
                 clients_per_round=2, rounds=3, batch_size=20, lr=0.05,
                 max_grad_norm=0.5)


def _signature(history):
    return [
        (r.round_idx, tuple(r.selected), r.test_accuracy, r.test_loss,
         r.mean_train_loss, r.cumulative_flops, r.cumulative_comm_bytes)
        for r in history.records
    ]


class TestClippedDeterminismGrid:
    def test_byte_identity_across_executors_and_modes(self):
        """Fixed seed => byte-identical History on the clipped flat path,
        for every executor x mode cell (the flat grad norm is one reduction,
        applied uniformly everywhere).  Sync and full-buffer semisync share
        one reference (semisync degenerates to the barrier loop); async —
        the mode that needs clipping in production — aggregates differently
        by design, so its cells get their own cross-executor reference."""
        references = {}
        for executor in ("serial", "process"):
            for mode in ("sync", "semisync", "async"):
                spec = ExperimentSpec(**{**TINY_CLIP, "executor": executor,
                                         "mode": mode,
                                         "n_workers": 2 if executor != "serial" else 1,
                                         **({"device_profile": "iot"}
                                            if mode != "sync" else {})})
                sig = _signature(run_experiment(spec))
                key = "async" if mode == "async" else "barrier"
                if key not in references:
                    references[key] = sig
                else:
                    assert sig == references[key], f"{executor}/{mode} diverged"
        assert references["async"] != references["barrier"]  # sanity: it ran
