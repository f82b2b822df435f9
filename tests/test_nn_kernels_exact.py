"""The CNN kernels are bit-exact rewrites of the straightforward ones.

``repro.nn`` stages ``col2im`` channels-last, gathers ``im2col`` through an
index, reduces non-overlapping max-pool windows over contiguous planes and
lets training skip the gradient w.r.t. the data batch.  None of that may
change a single bit: the oracles below are the plain implementations
(strided-window ``im2col``, channels-first ``col2im``, ``argmax`` +
``np.add.at`` max-pool), and every comparison is on the raw bit patterns
(``.view(np.uint32)``), so ``-0.0`` vs ``+0.0`` and NaN payloads count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import build_model
from repro.models.zoo import build_cnn
from repro.nn.functional import col2im, conv_output_size, im2col

# NaN and inf inputs are the point here; their arithmetic warnings are not.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ---------------------------------------------------------------------------
# Oracles: the plain kernels the rewrites must reproduce bit for bit.
# ---------------------------------------------------------------------------

def im2col_oracle(x, kh, kw, stride, padding):
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = x
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kh * kw)
    return np.ascontiguousarray(cols), (oh, ow)


def col2im_oracle(cols, x_shape, kh, kw, stride, padding):
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    dx_pad = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    for i in range(kh):
        for j in range(kw):
            dx_pad[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += patches[:, :, :, :, i, j]
    if padding > 0:
        return dx_pad[:, :, padding:padding + h, padding:padding + w]
    return dx_pad


def maxpool_oracle(x, k, s):
    """``(out, argmax)`` — argmax is the flat row-major index in each window."""
    n, c, h, w = x.shape
    oh, ow = conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0)
    sn, sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, shape=(n, c, oh, ow, k, k), strides=(sn, sc, sh * s, sw * s, sh, sw), writeable=False,
    )
    flat = win.reshape(n, c, oh, ow, k * k)
    idx = np.argmax(flat, axis=-1)
    return np.ascontiguousarray(np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]), idx


def maxpool_backward_oracle(dout, argmax, x_shape, k, s):
    n, c, h, w = x_shape
    oh, ow = dout.shape[2], dout.shape[3]
    dx = np.zeros(x_shape, dtype=dout.dtype)
    rows = (np.arange(oh)[None, None, :, None] * s + argmax // k).reshape(-1)
    cols = (np.arange(ow)[None, None, None, :] * s + argmax % k).reshape(-1)
    ni = np.broadcast_to(np.arange(n)[:, None, None, None], argmax.shape).reshape(-1)
    ci = np.broadcast_to(np.arange(c)[None, :, None, None], argmax.shape).reshape(-1)
    np.add.at(dx, (ni, ci, rows, cols), dout.reshape(-1))
    return dx


# ---------------------------------------------------------------------------
# Inputs: awkward geometry, awkward values, awkward memory layout.
# ---------------------------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf], dtype=np.float32)

# The NaN the hardware makes of inf + -inf (sign set on x86).  Where an add
# sees two different NaNs, which one survives depends on the operand order
# numpy's inner loop picked, not on the kernel: inputs to col2im sums carry
# only this NaN, so every NaN a fold can produce has the same bits.
with np.errstate(invalid="ignore"):
    SUM_NAN = np.float32(np.inf) + np.float32(-np.inf)
FOLD_SPECIALS = np.array([0.0, -0.0, SUM_NAN, np.inf, -np.inf], dtype=np.float32)


def awkward_values(rng, shape, relu=False, specials=SPECIALS):
    """Normals sprinkled with ±0.0, NaN and ±inf; ``relu=True`` clamps to
    post-ReLU values first, so many windows tie at zero."""
    x = rng.standard_normal(shape).astype(np.float32)
    if relu:
        x = np.maximum(x, np.float32(0.0))
        x[rng.random(shape) < 0.1] = -0.0
    special = rng.random(shape) < 0.08
    x[special] = rng.choice(specials, size=int(special.sum()))
    return x


def awkward_layout(x, layout):
    """The same values as ``x`` in C order, channels-last memory, or as a
    strided slice of a larger array."""
    if layout == "nhwc":
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    if layout == "strided":
        big = np.zeros(x.shape[:3] + (2 * x.shape[3],), dtype=x.dtype)
        big[..., ::2] = x
        return big[..., ::2]
    return x


def bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(bits(got), bits(want))


geometry = st.tuples(
    st.integers(1, 4),    # n
    st.integers(1, 5),    # c
    st.integers(1, 11),   # h
    st.integers(1, 11),   # w
    st.integers(1, 5),    # kernel
    st.integers(1, 3),    # stride
    st.integers(0, 2),    # padding
)
layouts = st.sampled_from(["c", "nhwc", "strided"])
seeds = st.integers(0, 2 ** 32 - 1)


def conv_geometry_ok(h, w, k, stride, padding):
    return h + 2 * padding >= k and w + 2 * padding >= k


# ---------------------------------------------------------------------------
# im2col / col2im.
# ---------------------------------------------------------------------------

class TestUnfoldFold:
    @given(geometry, layouts, seeds)
    @settings(max_examples=150, deadline=None)
    def test_im2col_matches_oracle(self, geom, layout, seed):
        n, c, h, w, k, stride, padding = geom
        assume(conv_geometry_ok(h, w, k, stride, padding))
        x = awkward_layout(awkward_values(np.random.default_rng(seed), (n, c, h, w)), layout)
        got, got_hw = im2col(x, k, k, stride, padding)
        want, want_hw = im2col_oracle(x, k, k, stride, padding)
        assert got_hw == want_hw
        assert got.flags.c_contiguous  # the forward GEMM's operand layout
        assert_same_bits(got, want)

    @given(geometry, seeds)
    @settings(max_examples=150, deadline=None)
    def test_col2im_matches_oracle(self, geom, seed):
        n, c, h, w, k, stride, padding = geom
        assume(conv_geometry_ok(h, w, k, stride, padding))
        oh = conv_output_size(h, k, stride, padding)
        ow = conv_output_size(w, k, stride, padding)
        cols = awkward_values(np.random.default_rng(seed), (n * oh * ow, c * k * k),
                              specials=FOLD_SPECIALS)
        got = col2im(cols, (n, c, h, w), k, k, stride, padding)
        want = col2im_oracle(cols, (n, c, h, w), k, k, stride, padding)
        assert_same_bits(got, want)
        # Same memory order as well, so layout-sensitive consumers
        # (reductions) downstream see the same summation order.
        assert [st for st, d in zip(got.strides, got.shape) if d > 1] == [
            st for st, d in zip(want.strides, want.shape) if d > 1
        ]


# ---------------------------------------------------------------------------
# Max-pool.
# ---------------------------------------------------------------------------

pool_geometry = st.tuples(
    st.integers(1, 4),    # n
    st.integers(1, 4),    # c
    st.integers(1, 11),   # h
    st.integers(1, 11),   # w
    st.integers(1, 4),    # kernel
    st.integers(1, 5),    # stride (== kernel is the tiled path)
)


class TestMaxPool:
    @given(pool_geometry, st.booleans(), layouts, seeds)
    @settings(max_examples=200, deadline=None)
    def test_forward_and_backward_match_oracle(self, geom, relu, layout, seed):
        n, c, h, w, k, stride = geom
        assume(h >= k and w >= k)
        rng = np.random.default_rng(seed)
        x = awkward_layout(awkward_values(rng, (n, c, h, w), relu=relu), layout)
        want_out, argmax = maxpool_oracle(x, k, stride)

        pool = nn.MaxPool2d(k, stride)
        out = pool(x)
        assert out.flags.c_contiguous
        assert_same_bits(out, want_out)
        # Distinct positive gradients land exactly on each window's argmax,
        # so equal dx means equal pool indices.
        unique = np.arange(1, out.size + 1, dtype=np.float32).reshape(out.shape)
        assert_same_bits(pool.backward(unique),
                         maxpool_backward_oracle(unique, argmax, x.shape, k, stride))
        # ... and awkward gradients keep their bits (0.0 + g, +0.0 elsewhere).
        pool(x)
        g = awkward_values(rng, out.shape)
        assert_same_bits(pool.backward(g), maxpool_backward_oracle(g, argmax, x.shape, k, stride))

        pool.eval()
        assert_same_bits(pool(x), want_out)

    def test_tied_zeros_route_to_the_first_element(self):
        x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]]], dtype=np.float32)
        pool = nn.MaxPool2d(2)
        out = pool(x)
        assert np.signbit(out[0, 0, 0, 0])  # the first element, -0.0
        dx = pool.backward(np.ones((1, 1, 1, 1), dtype=np.float32))
        np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_first_nan_wins(self):
        x = np.array([[[[1.0, np.nan], [np.inf, np.nan]]]], dtype=np.float32)
        x.view(np.uint32)[0, 0, 1, 1] ^= 1  # a second, distinguishable NaN
        pool = nn.MaxPool2d(2)
        out = pool(x)
        assert bits(out)[0, 0, 0, 0] == bits(x)[0, 0, 0, 1]
        dx = pool.backward(np.full((1, 1, 1, 1), 2.0, dtype=np.float32))
        np.testing.assert_array_equal(dx[0, 0], [[0.0, 2.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# Conv2d / Linear: outputs, parameter gradients, input gradients.
# ---------------------------------------------------------------------------

def conv_oracle(conv, x, dout):
    """Forward output, weight grad, bias grad and dx of ``conv`` computed
    with the oracle kernels and the layer's own GEMM expressions."""
    k, f = conv.kernel_size, conv.out_channels
    n = x.shape[0]
    cols, (oh, ow) = im2col_oracle(x, k, k, conv.stride, conv.padding)
    out = cols @ conv.weight.data.reshape(f, -1).T
    out += conv.bias.data
    out = np.ascontiguousarray(out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2))
    dout_mat = dout.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
    dw = (cols.T @ dout_mat).T.reshape(conv.weight.data.shape)
    db = dout_mat.sum(axis=0)
    dx = col2im_oracle(dout_mat @ conv.weight.data.reshape(f, -1), x.shape, k, k,
                       conv.stride, conv.padding)
    return out, dw, db, dx


class TestLayers:
    @given(geometry, st.integers(1, 4), seeds)
    @settings(max_examples=80, deadline=None)
    def test_conv2d_matches_oracle(self, geom, out_channels, seed):
        n, c, h, w, k, stride, padding = geom
        assume(conv_geometry_ok(h, w, k, stride, padding))
        rng = np.random.default_rng(seed)
        conv = nn.Conv2d(c, out_channels, k, stride=stride, padding=padding, rng=rng)
        conv.bias.data[...] = rng.standard_normal(out_channels)
        x = awkward_values(rng, (n, c, h, w))
        out = conv(x)
        dout = awkward_values(rng, out.shape, specials=FOLD_SPECIALS)  # dx is a fold
        want_out, want_dw, want_db, want_dx = conv_oracle(conv, x, dout)
        assert_same_bits(out, want_out)

        dx = conv.backward(dout)
        assert_same_bits(conv.weight.grad, want_dw)
        assert_same_bits(conv.bias.grad, want_db)
        assert_same_bits(dx, want_dx)

        conv.zero_grad()
        conv(x)
        assert conv.backward_params(dout) is None
        assert_same_bits(conv.weight.grad, want_dw)
        assert_same_bits(conv.bias.grad, want_db)

    @given(st.integers(1, 6), st.integers(1, 7), st.integers(1, 7), seeds)
    @settings(max_examples=40, deadline=None)
    def test_linear_param_only_backward(self, n, fan_in, fan_out, seed):
        rng = np.random.default_rng(seed)
        lin = nn.Linear(fan_in, fan_out, rng=rng)
        x = awkward_values(rng, (n, fan_in))
        dout = awkward_values(rng, (n, fan_out))
        lin(x)
        dx = lin.backward(dout)
        assert_same_bits(dx, dout @ lin.weight.data.T)
        want = [p.grad.copy() for p in lin.parameters()]
        assert_same_bits(want[0], x.T @ dout)
        assert_same_bits(want[1], dout.sum(axis=0))
        lin.zero_grad()
        lin(x)
        assert lin.backward_params(dout) is None
        for p, g in zip(lin.parameters(), want):
            assert_same_bits(p.grad, g)


# ---------------------------------------------------------------------------
# Whole models: the parameter-only training backward.
# ---------------------------------------------------------------------------

MODELS = {
    "mlp": lambda rng: build_model("mlp", (1, 12, 12), 10, rng=rng),
    "cnn": lambda rng: build_model("cnn", (1, 12, 12), 10, rng=rng),
    "cnn_bn": lambda rng: build_cnn((1, 12, 12), 10, rng=rng, batch_norm=True),
    "alexnet": lambda rng: build_model("alexnet", (3, 16, 16), 10, rng=rng),
}


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("with_dfeatures", [False, True])
def test_param_only_backward_leaves_grads_bitwise_equal(name, with_dfeatures):
    """A training step's ``backward(..., input_grad=False)`` stops at the
    first trainable layer; every parameter gradient must still equal the
    full pass's, bit for bit (two identically seeded models, so dropout
    masks and batch-norm statistics match too)."""
    full, lean = MODELS[name](np.random.default_rng(7)), MODELS[name](np.random.default_rng(7))
    for model in (full, lean):
        model.materialize_flat()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((9,) + full.input_shape).astype(np.float32)
    y = rng.integers(0, 10, 9)
    criterion = nn.CrossEntropyLoss()
    results = []
    for model, input_grad in ((full, True), (lean, False)):
        logits, z = model.forward_with_features(x)
        _, dlogits = criterion(logits, y)
        dfeatures = np.full_like(z, 0.25) if with_dfeatures else None
        model.zero_grad()
        results.append(model.backward(dlogits, dfeatures, input_grad=input_grad))
    assert results[0].shape == x.shape and results[1] is None
    assert_same_bits(lean.flat_grads, full.flat_grads)
    assert np.any(full.flat_grads != 0)
