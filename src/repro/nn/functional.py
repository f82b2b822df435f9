"""Stateless numerical kernels shared by layers and losses.

Everything here is a pure function on NumPy arrays, fully vectorized; the
im2col/col2im pair is the workhorse that turns convolution into one large
GEMM (one big BLAS call instead of nested Python loops over pixels).
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "cosine_similarity",
    "conv_output_size",
    "im2col",
    "col2im",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """One-hot encode integer ``labels`` into shape ``(n, num_classes)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Row-wise cosine similarity between ``(n, d)`` matrices."""
    an = np.linalg.norm(a, axis=1)
    bn = np.linalg.norm(b, axis=1)
    return np.einsum("nd,nd->n", a, b) / np.maximum(an * bn, eps)


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a conv/pool dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output: size={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into patch rows for GEMM-based convolution.

    Returns ``(cols, (oh, ow))`` where ``cols`` has shape
    ``(N * oh * ow, C * kh * kw)``, rows ordered by sample then output
    pixel.  With ``padding > 0`` the input is first copied into a zeroed,
    padded buffer; then one ``np.take`` per batch gathers every sample's
    patch elements through a cached, range-checked index of flat offsets
    (:func:`_patch_index`) — about twice as fast as copying a strided window
    view, whose innermost runs are only ``kw`` long.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    if padding > 0:
        xp = np.zeros((n, c, hp, wp), dtype=x.dtype)
        xp[:, :, padding : padding + h, padding : padding + w] = x
    else:
        xp = np.ascontiguousarray(x)
    index = _patch_index(c, hp, wp, kh, kw, stride, oh, ow)
    # "wrap" never wraps: _patch_index checked its range once per geometry,
    # which spares np.take the per-element bounds check of mode="raise".
    cols = np.take(xp.reshape(n, c * hp * wp), index, axis=1, mode="wrap")
    return cols.reshape(n * oh * ow, c * kh * kw), (oh, ow)


@functools.lru_cache(maxsize=64)
def _patch_index(
    c: int, hp: int, wp: int, kh: int, kw: int, stride: int, oh: int, ow: int
) -> np.ndarray:
    """Flat offsets into one padded ``(C, hp, wp)`` sample of every patch
    element, in ``(oh, ow, C, kh, kw)`` order (read-only; one per geometry).
    Its range is checked here, once, so :func:`im2col` may gather with
    ``mode="wrap"``, which never wraps an in-range index."""
    patch = (np.arange(c)[:, None, None] * hp + np.arange(kh)[:, None]) * wp + np.arange(kw)
    origin = np.arange(oh)[:, None] * (stride * wp) + np.arange(ow) * stride
    index = (origin[:, :, None, None, None] + patch).reshape(-1)
    if index.min() < 0 or index.max() >= c * hp * wp:
        raise AssertionError(f"patch index leaves the (C, hp, wp) = ({c}, {hp}, {wp}) sample")
    index.setflags(write=False)
    return index


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch-row gradients back into an input-shaped gradient.

    Inverse scatter-add of :func:`im2col`: overlapping windows accumulate.
    The adds are staged channels-last, in an ``(N, hp, wp, C)`` buffer:
    at stride 1 one kernel offset's ``(ow, C)`` block is then one run
    (contiguous in the buffer, evenly strided in ``cols``) instead of ``C``
    runs of ``ow``.  Every element still receives its terms in kernel-offset
    ``(i, j)`` order starting from ``+0.0``, so the values are those of a
    channels-first fold, and the result is returned with that fold's
    strides: an ``(N, C, h, w)`` window of an ``(N, C, hp, wp)`` block.
    """
    n, c, h, w = x_shape
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    staged = np.zeros((n, hp, wp, c), dtype=cols.dtype)
    patches = cols.reshape(n, oh, ow, c, kh, kw)
    # Accumulate per kernel offset; kh*kw iterations of fully vectorized adds.
    for i in range(kh):
        i_max = i + stride * oh
        for j in range(kw):
            j_max = j + stride * ow
            staged[:, i:i_max:stride, j:j_max:stride, :] += patches[:, :, :, :, i, j]
    inner = (slice(None), slice(None), slice(padding, padding + h), slice(padding, padding + w))
    dx = np.empty((n, c, hp, wp), dtype=cols.dtype)[inner]
    dx[...] = staged.transpose(0, 3, 1, 2)[inner]
    return dx
