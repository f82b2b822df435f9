"""The per-task harness is a bit-exact rewrite of the straightforward one.

Every client task builds a round context, derives RNG streams, flips the
model into training mode, and then per step runs the cross-entropy loss, a
parameter-only backward and, under FedTrip, the attach op.  Each of those
was made cheaper without changing a single bit of any History: streams
extend their parent's entropy instead of re-hashing the path and hand
``SeedSequence`` its entropy as ready-made uint32 words, the round generator
is derived only when read, traversal is cached once a model is
plane-backed, the loss shares one shifted/exp pass between ``log_softmax``
and ``softmax`` and calls the reductions' ufuncs directly, and the attach op
is resolved once per round into worker-resident buffers.  The oracles below
are the plain versions, compared on raw bit patterns.

Planted mutations, each applied to a copy of the code, and the tests seen to
catch them:

* ``_int_words(0)`` returning no word instead of ``(0,)``: the seed-0 cases
  of ``test_stream_words_match_the_int_entropy_oracle`` and
  ``test_int_words_are_seedsequences_coercion``.
* words emitted big-endian (most significant first): the same two tests and
  ``test_chained_children_draw_like_the_full_path``.
* the mean folded in float64 (``add.reduce(..., dtype=float64) / n``):
  ``test_cross_entropy_matches_the_one_pass_oracle`` and
  ``test_cross_entropy_matches_log_softmax_softmax_pair``.
* ``AdaptiveFedTrip`` setting its mu after ``FedTrip.on_round_start`` bound
  the op: ``test_adaptive_mu_reaches_the_bound_attach_op``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExperimentSpec, nn, run_experiment
from repro.algorithms import AdaptiveFedTrip, FedTrip
from repro.algorithms.base import ClientRoundContext
from repro.algorithms.fedbn import _bn_modules
from repro.fl import FLConfig
from repro.fl.client import Client
from repro.fl.executor import build_round_context, make_worker_context, TaskRuntime
from repro.data.dataset import ArrayDataset
from repro.models import build_model
from repro.models.zoo import build_cnn
from repro.nn.functional import log_softmax, softmax
from repro.nn.losses import _row_index
from repro.utils.rng import RngStream, _int_words

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


def cross_entropy_one_pass_oracle(logits, labels):
    """The one-pass loss as it stood before its reductions went straight to
    the ufuncs: the ``np.max``/``np.sum``/``np.mean`` wrappers and a fresh
    ``arange`` per call."""
    n = logits.shape[0]
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    ex = np.exp(shifted)
    total = np.sum(ex, axis=1, keepdims=True)
    rows = np.arange(n)
    loss = -float(np.mean(shifted[rows, labels] - np.log(total)[:, 0]))
    grad = np.divide(ex, total, out=ex)
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


SPECIAL_LOGITS = [np.inf, -np.inf, 0.0, -0.0, 3.0e38, -3.0e38, 1.0e30, -1.0e30, 88.7, -103.9]


@st.composite
def batch_logits_and_labels(draw):
    """Training-sized float32 batches: seeded normal logits at a drawn
    scale (optionally rounded, for ties), with drawn entries overwritten
    by ±inf, ±0.0 and huge magnitudes."""
    n = draw(st.integers(1, 300))
    c = draw(st.integers(2, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e4]))
    logits = (rng.standard_normal((n, c)) * scale).astype(np.float32)
    if draw(st.booleans()):
        logits = np.round(logits).astype(np.float32)
    for _ in range(draw(st.integers(0, 6))):
        logits[draw(st.integers(0, n - 1)), draw(st.integers(0, c - 1))] = draw(
            st.sampled_from(SPECIAL_LOGITS))
    return logits, rng.integers(0, c, size=n)


@settings(max_examples=300, deadline=None)
@given(batch_logits_and_labels())
def test_cross_entropy_matches_the_one_pass_oracle(case):
    logits, labels = case
    want_loss, want_grad = cross_entropy_one_pass_oracle(logits.copy(), labels)
    got_loss, got_grad = nn.CrossEntropyLoss()(logits.copy(), labels)
    assert_same_bits(np.float64(got_loss), np.float64(want_loss))
    assert_same_bits(got_grad, want_grad)


def test_cross_entropy_row_index_is_shared_and_read_only():
    rows = _row_index(7)
    assert rows is _row_index(7) and not rows.flags.writeable
    np.testing.assert_array_equal(rows, np.arange(7))


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


#: seeds whose SeedSequence coercion is one word, the zero word, a word
#: boundary, and two and three words.
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 70]


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("path", [("client", 0), (0,), (2 ** 32, "round", 2 ** 40 + 3), ("batches", 0, 0)])
def test_stream_words_match_the_int_entropy_oracle(seed, path):
    want = stream_oracle(seed, path).integers(0, 2 ** 62, size=8)
    np.testing.assert_array_equal(RngStream(seed, path).integers(0, 2 ** 62, size=8), want)
    np.testing.assert_array_equal(RngStream(seed).child(*path).integers(0, 2 ** 62, size=8), want)
    head, tail = path[:1], path[1:]
    if tail:
        got = RngStream(seed).child(*head).child_generator(*tail)
        np.testing.assert_array_equal(got.integers(0, 2 ** 62, size=8), want)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2 ** 130)), min_size=1, max_size=5))
def test_int_words_are_seedsequences_coercion(ints):
    """Concatenated words seed exactly what the int list seeds."""
    words = np.array(sum((_int_words(v) for v in ints), ()), dtype=np.uint32)
    want = np.random.SeedSequence(list(ints)).generate_state(8)
    np.testing.assert_array_equal(np.random.SeedSequence(words).generate_state(8), want)


def test_negative_seed_raises_like_seedsequence():
    with pytest.raises(ValueError, match="expected non-negative integer") as numpy_error:
        np.random.SeedSequence([-1])
    with pytest.raises(ValueError, match=str(numpy_error.value)):
        RngStream(-1)


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


@pytest.mark.parametrize("hist_present", [True, False])
def test_bound_attach_op_charges_flops_per_step(hist_present):
    strategy = FedTrip(mu=0.4)
    ctx, w, grads, gw, hist = attach_ctx(np.random.default_rng(3), hist_present, 2, {})
    strategy.on_round_start(ctx)
    for _ in range(3):
        strategy.modify_gradients(ctx)
    per_step = (4.0 if hist_present else 2.0) * w.size
    assert ctx.extra_flops == per_step + per_step + per_step


def test_zero_mu_binds_no_attach_op():
    strategy = FedTrip(mu=0.0)
    ctx, w, grads, gw, hist = attach_ctx(np.random.default_rng(4), True, 2, {})
    before = grads.copy()
    strategy.on_round_start(ctx)
    strategy.modify_gradients(ctx)
    assert_same_bits(grads, before)
    assert ctx.extra_flops == 0.0 and ctx.workspace == {}


def test_adaptive_mu_reaches_the_bound_attach_op():
    """``AdaptiveFedTrip`` sets the round's mu before FedTrip binds the op,
    so the server-adapted mu, not the constructor's, scales the pull."""
    rng = np.random.default_rng(12)
    strategy = AdaptiveFedTrip(mu=0.4, mu_min=0.01, mu_max=2.5)
    ctx, w, grads, gw, hist = attach_ctx(rng, True, 2, {})
    ctx.server_broadcast = {"mu": 1.7}
    strategy.on_round_start(ctx)
    xi = ctx.scratch["xi"]
    want = grads + 1.7 * ((w - gw) + xi * (hist - w))
    strategy.modify_gradients(ctx)
    assert_same_bits(grads, want)


def test_adaptive_fedtrip_at_a_pinned_mu_is_fedtrip():
    """With mu_min = mu = mu_max the adaptive variant never moves mu, and
    its History is FedTrip's, record for record."""
    base = dict(dataset="tiny", model="mlp", n_clients=6, clients_per_round=3, rounds=4,
                batch_size=20, lr=0.05, seed=2)
    plain = run_experiment(ExperimentSpec(method="fedtrip", overrides={"mu": 0.7}, **base))
    pinned = run_experiment(ExperimentSpec(
        method="fedtrip_adaptive", overrides={"mu": 0.7, "mu_min": 0.7, "mu_max": 0.7}, **base))

    def records(history):
        out = []
        for record in history.records:
            d = record.to_dict()
            d.pop("wall_seconds"), d.pop("phase_seconds")
            out.append(d)
        return out

    assert len(plain.records) == 4
    assert records(pinned) == records(plain)


@pytest.mark.parametrize("source", ["last-local", "last-global"])
def test_round_end_writes_the_new_anchor_over_the_old(source):
    """A writeable anchor of the plane's layout is overwritten in place (so
    the client's state-arena slot needs no second copy); anything else is
    replaced by a fresh copy.  The bytes are the trained (or received)
    model's either way."""
    strategy = FedTrip(mu=0.4, historical_source=source)
    ctx, w, grads, gw, hist = attach_ctx(np.random.default_rng(8), True, 2, {})
    want = w if source == "last-local" else gw
    strategy.on_round_end(ctx)
    assert ctx.state["historical"] is hist
    assert_same_bits(hist, want)
    frozen = hist.copy()
    frozen.setflags(write=False)
    for held in (frozen, hist[:-1].copy(), hist.astype(np.float64), None):
        ctx.state["historical"] = held
        strategy.on_round_end(ctx)
        assert ctx.state["historical"] is not held and ctx.state["historical"] is not want
        assert_same_bits(ctx.state["historical"], want)


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
        global_flat=worker.model.get_weights_flat()[0],
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
