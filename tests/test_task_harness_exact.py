"""The per-task harness is a bit-exact rewrite of the straightforward one.

Every client task builds a round context, derives RNG streams, flips the
model into training mode, and then per step runs the cross-entropy loss, a
parameter-only backward and, under FedTrip, the attach op.  Each of those
was made cheaper without changing a single bit of any History: streams
extend their parent's entropy instead of re-hashing the path, the round
generator is derived only when read, traversal is cached once a model is
plane-backed, the loss shares one shifted/exp pass between ``log_softmax``
and ``softmax``, and the attach op writes into worker-resident buffers.
The oracles below are the plain versions, compared on raw bit patterns.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.algorithms import FedTrip
from repro.algorithms.base import ClientRoundContext
from repro.algorithms.fedbn import _bn_modules
from repro.fl import FLConfig
from repro.fl.client import Client
from repro.fl.executor import build_round_context, make_worker_context, TaskRuntime
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.models.zoo import build_cnn
from repro.nn.functional import log_softmax, softmax
from repro.utils.rng import RngStream

# ±inf logits are the point of the loss properties; their warnings are not.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(bits(got), bits(want))


# ---------------------------------------------------------------------------
# Cross-entropy: one shifted/exp pass == log_softmax then softmax.
# ---------------------------------------------------------------------------

def cross_entropy_oracle(logits, labels):
    n = logits.shape[0]
    logp = log_softmax(logits, axis=1)
    loss = -float(np.mean(logp[np.arange(n), labels]))
    grad = softmax(logits, axis=1)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


#: ties (small integers), ordinary values, huge magnitudes and ±inf
logit_values = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-20.0, 20.0, width=32),
    st.sampled_from([3.0e38, -3.0e38, 1.0e30, -1.0e30, np.inf, -np.inf, 0.0, -0.0]),
)


@st.composite
def logits_and_labels(draw):
    n = draw(st.integers(1, 12))
    c = draw(st.integers(1, 10))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = draw(st.lists(logit_values, min_size=n * c, max_size=n * c))
    labels = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    return np.array(values, dtype=dtype).reshape(n, c), np.array(labels, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(logits_and_labels())
def test_cross_entropy_matches_log_softmax_softmax_pair(case):
    logits, labels = case
    want_loss, want_grad = cross_entropy_oracle(logits.copy(), labels)
    got_loss, got_grad = nn.CrossEntropyLoss()(logits.copy(), labels)
    assert_same_bits(np.float64(got_loss), np.float64(want_loss))
    assert_same_bits(got_grad, want_grad)


def test_cross_entropy_leaves_logits_untouched():
    logits = np.random.default_rng(0).standard_normal((5, 4)).astype(np.float32)
    before = logits.copy()
    nn.CrossEntropyLoss()(logits, np.array([0, 1, 2, 3, 0]))
    assert_same_bits(logits, before)


# ---------------------------------------------------------------------------
# RngStream: extending the parent's entropy == hashing the whole path.
# ---------------------------------------------------------------------------

def stream_oracle(seed, path):
    """The generator the original implementation built: blake2b every path
    element afresh into one SeedSequence entropy list."""
    entropy = [int(seed)] + [
        int.from_bytes(hashlib.blake2b(str(p).encode("utf-8"), digest_size=8).digest(), "little")
        for p in path
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


path_elements = st.one_of(
    st.text(min_size=0, max_size=6), st.integers(-5, 2 ** 40), st.sampled_from(["round", "batches", 0, "0"]),
)
paths = st.lists(path_elements, min_size=1, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 63 - 1), paths, paths)
def test_chained_children_draw_like_the_full_path(seed, a, b):
    chained = RngStream(seed).child(*a).child(*b)
    whole = RngStream(seed, a + b)
    want = stream_oracle(seed, a + b).integers(0, 2 ** 62, size=6)
    np.testing.assert_array_equal(chained.integers(0, 2 ** 62, size=6), want)
    np.testing.assert_array_equal(whole.integers(0, 2 ** 62, size=6), want)


def test_sibling_streams_stay_independent():
    root = RngStream(3).child("client", 7)
    draws = {r: root.child("round", r).random() for r in range(50)}
    assert len(set(draws.values())) == 50
    assert draws[4] == stream_oracle(3, ("client", 7, "round", 4)).random()


# ---------------------------------------------------------------------------
# FedTrip's attach op through worker-resident buffers == the expression.
# ---------------------------------------------------------------------------

def attach_ctx(rng, hist_present, last_round, workspace):
    model = build_model("mlp", (1, 6, 6), 5, rng=np.random.default_rng(2)).materialize_flat()
    w, grads = model.flat_weights, model.flat_grads
    w[...] = rng.standard_normal(w.shape).astype(np.float32)
    grads[...] = rng.standard_normal(w.shape).astype(np.float32)
    gw = (w + rng.standard_normal(w.shape).astype(np.float32) * np.float32(0.3)).astype(np.float32)
    hist = (w - rng.standard_normal(w.shape).astype(np.float32)).astype(np.float32)
    ctx = ClientRoundContext(
        client_id=0, round_idx=9, global_weights=[], model=model, frozen=model,
        optimizer=None, criterion=None, config=FLConfig(rounds=1, n_clients=1, clients_per_round=1),
        state={"historical": hist if hist_present else None, "last_round": last_round},
        n_samples=10, fp_flops_per_sample=1.0, global_flat=gw, workspace=workspace,
    )
    return ctx, w, grads, gw, hist


@pytest.mark.parametrize("xi_mode", ["staleness", "normalized", "constant"])
@pytest.mark.parametrize("hist_present", [True, False])
def test_fedtrip_attach_op_matches_the_expression(xi_mode, hist_present):
    rng = np.random.default_rng(11)
    strategy = FedTrip(mu=0.4, xi_mode=xi_mode, xi_value=0.7, participation_rate=0.3)
    workspace = {}
    for step in range(3):  # later steps reuse the buffers the first allocated
        ctx, w, grads, gw, hist = attach_ctx(rng, hist_present, 2, workspace)
        strategy.on_round_start(ctx)
        xi = ctx.scratch["xi"]
        if xi > 0.0 and hist_present:
            want = grads + 0.4 * ((w - gw) + xi * (hist - w))
        else:
            want = grads + 0.4 * (w - gw)
        strategy.modify_gradients(ctx)
        assert_same_bits(grads, want)
        if step == 0:
            held = {k: id(v) for k, v in workspace.items()}
    assert held and {k: id(v) for k, v in workspace.items()} == held


def test_attach_buffers_live_on_the_worker_context():
    """One buffer set per worker context, reused by every task it serves."""
    spec_model = lambda: build_model("mlp", (1, 6, 6), 5, rng=np.random.default_rng(2))  # noqa: E731
    worker = make_worker_context(spec_model, "sgd", FLConfig(rounds=1, n_clients=2, clients_per_round=1))
    x = np.random.default_rng(0).standard_normal((8, 1, 6, 6)).astype(np.float32)
    clients = [Client(k, ArrayDataset(x, np.arange(8) % 5), seed=0) for k in range(2)]
    runtime = TaskRuntime(
        clients=clients, strategy=FedTrip(), config=FLConfig(rounds=1, n_clients=2, clients_per_round=1),
        fp_flops=1.0, global_weights=worker.model.get_weights(),
        global_flat=worker.model.get_weights_flat()[0],
    )
    ids = []
    for k in (0, 1):
        ctx = build_round_context(worker, runtime, k, 3, {}, {"historical": None, "last_round": None})
        runtime.strategy.on_round_start(ctx)
        runtime.strategy.modify_gradients(ctx)
        assert ctx.workspace is worker.workspace
        ids.append(id(worker.workspace["fedtrip.pull"]))
    assert ids[0] == ids[1]


# ---------------------------------------------------------------------------
# The round generator is derived on first access, keyed on (client, round).
# ---------------------------------------------------------------------------

def test_lazy_round_rng_draws_like_round_rng():
    worker = make_worker_context(
        lambda: build_model("mlp", (1, 4, 4), 3, rng=np.random.default_rng(0)),
        "sgd", FLConfig(rounds=1, n_clients=3, clients_per_round=1),
    )
    x = np.zeros((6, 1, 4, 4), dtype=np.float32)
    clients = [Client(k, ArrayDataset(x, np.arange(6) % 3), seed=5) for k in range(3)]
    runtime = TaskRuntime(
        clients=clients, strategy=FedTrip(), config=FLConfig(rounds=1, n_clients=3, clients_per_round=1),
        fp_flops=1.0, global_weights=worker.model.get_weights(),
    )
    for cid, round_idx in ((0, 0), (2, 7), (1, 7)):
        ctx = build_round_context(worker, runtime, cid, round_idx, {}, {})
        want = clients[cid].round_rng(round_idx).integers(0, 2 ** 62, size=8)
        np.testing.assert_array_equal(ctx.rng.integers(0, 2 ** 62, size=8), want)


def test_round_rng_is_derived_once_and_only_when_read():
    calls = []

    def source():
        calls.append(1)
        return np.random.default_rng(4)

    common = dict(
        client_id=0, round_idx=0, global_weights=[], model=None, frozen=None,
        optimizer=None, criterion=None, config=None, state={}, n_samples=1,
        fp_flops_per_sample=1.0,
    )
    ctx = ClientRoundContext(rng_source=source, **common)
    assert calls == []
    assert ctx.rng is ctx.rng and calls == [1]
    explicit = np.random.default_rng(9)
    ctx = ClientRoundContext(rng=explicit, rng_source=source, **common)
    assert ctx.rng is explicit and calls == [1]
    assert ClientRoundContext(**common).rng is None


# ---------------------------------------------------------------------------
# Cached traversal: same tree, same modes, same backward, no recursion.
# ---------------------------------------------------------------------------

MODELS = {
    "mlp": lambda rng: build_model("mlp", (1, 12, 12), 10, rng=rng),
    "cnn": lambda rng: build_model("cnn", (1, 12, 12), 10, rng=rng),
    "cnn_bn": lambda rng: build_cnn((1, 12, 12), 10, rng=rng, batch_norm=True),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cached_traversal_is_the_walked_tree(name):
    model = MODELS[name](np.random.default_rng(0))
    before = [n for n, _ in model.modules()]
    before_params = [n for n, _ in model.named_parameters()]
    n_bn = len(_bn_modules(model))
    model.materialize_flat()
    assert [n for n, _ in model.modules()] == before
    for mode in (model.train, model.eval, model.train, model.eval):
        mode()
        assert [n for n, _ in model.modules()] == before
    assert [n for n, _ in model.named_parameters()] == before_params
    assert all(m.training is False for _, m in model.modules())
    # Every submodule reached by its own traversal too (FedBN walks them).
    assert len(_bn_modules(model)) == n_bn and (n_bn > 0) == (name == "cnn_bn")
    assert all(m.training is False for m in _bn_modules(model))
    model.train()
    assert all(m.training is True for _, m in model.modules())


@pytest.mark.parametrize("name", sorted(MODELS))
def test_cached_backward_skips_the_parameter_free_layers_below(name, monkeypatch):
    """After materialize, the parameter-only backward still stops at each
    Sequential's own first trainable layer: nothing below it runs."""
    model = MODELS[name](np.random.default_rng(0)).materialize_flat()
    twin = MODELS[name](np.random.default_rng(0))  # walks, never caches
    for seq in (model.features, model.head):
        first = next(i for i, layer in enumerate(seq.layers) if layer.parameters())
        for layer in seq.layers[:first]:
            monkeypatch.setattr(layer, "backward", _forbidden)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 1, 12, 12)).astype(np.float32)
    y = rng.integers(0, 10, 4)
    for m in (model, twin):
        _, dlogits = nn.CrossEntropyLoss()(m(x), y)
        m.zero_grad()
        m.backward(dlogits, input_grad=False)
    for p, q in zip(model.parameters(), twin.parameters()):
        assert_same_bits(p.grad, q.grad)


def _forbidden(*_args, **_kwargs):
    raise AssertionError("a layer below the first trainable one was visited")
