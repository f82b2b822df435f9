"""Spatial pooling layers."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.functional import conv_output_size
from repro.nn.module import Module

__all__ = ["MaxPool2d", "AvgPool2d"]


def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Strided zero-copy view ``(N, C, oh, ow, k, k)`` over pooling windows."""
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, 0)
    ow = conv_output_size(w, k, stride, 0)
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, oh, ow, k, k),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def _tile_max(x: np.ndarray, k: int, keep_route: bool) -> Tuple[np.ndarray, List[np.ndarray]]:
    """Max over non-overlapping ``k x k`` tiles, with :func:`numpy.argmax`'s
    choice of element: the first maximum in row-major window order, where a
    NaN counts as the maximum (so the first NaN wins).

    The tiles are split into ``k*k`` contiguous ``(N, C, oh, ow)`` planes,
    one per window offset, and reduced pairwise in offset order: the next
    element replaces the running one iff ``not (best >= v or best != best)``.
    With ``keep_route`` the per-step replacement masks are returned too; the
    argmax of a window is the last offset that replaced.

    Elements are selected on their bit patterns (``bits * mask``, an exact
    integer select) rather than with ``np.where``, which is several times
    slower on these sizes.
    """
    n, c, h, w = x.shape
    oh, ow = conv_output_size(h, k, k, 0), conv_output_size(w, k, k, 0)
    tiles = x[:, :, : oh * k, : ow * k].reshape(n, c, oh, k, ow, k)
    planes = np.ascontiguousarray(tiles.transpose(3, 5, 0, 1, 2, 4)).reshape(k * k, n, c, oh, ow)
    bits = planes.view(_bits_dtype(x.dtype))
    best, best_bits = planes[0], bits[0]
    route: List[np.ndarray] = []
    for t in range(1, k * k):
        stay = np.greater_equal(best, planes[t])
        stay |= np.isnan(best)
        take = ~stay
        best_bits = best_bits * stay
        best_bits += bits[t] * take
        best = best_bits.view(x.dtype)
        if keep_route:
            route.append(take)
    return best, route


def _tile_max_backward(
    dout: np.ndarray, route: List[np.ndarray], x_shape: Tuple[int, int, int, int], k: int
) -> np.ndarray:
    """Gradient of :func:`_tile_max`: each window's ``0.0 + dout`` lands on
    its argmax element, every other element is ``+0.0`` — the values a
    scatter-add into zeros produces."""
    oh, ow = dout.shape[2], dout.shape[3]
    bits = _bits_dtype(dout.dtype)
    g = (dout.dtype.type(0) + dout).view(bits)
    dx = np.zeros(x_shape, dtype=dout.dtype)
    dx_bits = dx.view(bits)
    replaced_later = np.zeros(dout.shape, dtype=bool)
    for t in range(k * k - 1, -1, -1):
        won = ~replaced_later
        if t:
            won &= route[t - 1]
            replaced_later |= route[t - 1]
        i, j = divmod(t, k)
        np.multiply(g, won, out=dx_bits[:, :, i : oh * k : k, j : ow * k : k])
    return dx


def _bits_dtype(dtype: np.dtype) -> np.dtype:
    """The unsigned integer type that views ``dtype``'s bit patterns."""
    return np.dtype(f"u{np.dtype(dtype).itemsize}")


class MaxPool2d(Module):
    """Max pooling with square windows.

    Each window's output is the element :func:`numpy.argmax` picks over the
    window in row-major order (first maximum; a NaN counts as the maximum),
    and the backward pass routes the gradient to that element.  When
    windows overlap (stride < kernel) and several windows share the same
    argmax element the backward pass accumulates into it, matching the
    standard scatter-add semantics.  Non-overlapping windows (stride ==
    kernel) are reduced over contiguous per-offset planes instead
    (:func:`_tile_max`), with the same bytes and no index gather/scatter.
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._argmax: Optional[np.ndarray] = None
        self._route: Optional[List[np.ndarray]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        if s == k:
            out, route = _tile_max(x, k, self.training)
            if self.training:
                self._x_shape = x.shape
                self._route = route
            return out
        win = _windows(x, k, s)
        n, c, oh, ow = win.shape[:4]
        flat = win.reshape(n, c, oh, ow, k * k)
        idx = np.argmax(flat, axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
        if self.training:
            self._x_shape = x.shape
            self._argmax = idx
        return np.ascontiguousarray(out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        k, s = self.kernel_size, self.stride
        if self._route is not None and self._x_shape is not None:
            dx = _tile_max_backward(dout, self._route, self._x_shape, k)
            self._route = self._x_shape = None
            return dx
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called without a cached training forward")
        n, c, h, w = self._x_shape
        oh, ow = dout.shape[2], dout.shape[3]
        dx = np.zeros(self._x_shape, dtype=dout.dtype)
        # Convert flat window argmax to absolute coordinates, then scatter-add.
        ki = self._argmax // k
        kj = self._argmax % k
        oi = np.arange(oh)[None, None, :, None]
        oj = np.arange(ow)[None, None, None, :]
        rows = (oi * s + ki).reshape(-1)
        cols = (oj * s + kj).reshape(-1)
        ni = np.broadcast_to(np.arange(n)[:, None, None, None], self._argmax.shape).reshape(-1)
        ci = np.broadcast_to(np.arange(c)[None, :, None, None], self._argmax.shape).reshape(-1)
        np.add.at(dx, (ni, ci, rows, cols), dout.reshape(-1))
        self._argmax = self._x_shape = None
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        oh = conv_output_size(h, self.kernel_size, self.stride, 0)
        ow = conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, oh, ow)

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        c, oh, ow = self.output_shape(input_shape)
        # One comparison per window element, counted as one FLOP.
        return c * oh * ow * self.kernel_size * self.kernel_size


class AvgPool2d(Module):
    """Average pooling with square windows."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: Optional[Tuple[int, int, int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        win = _windows(x, self.kernel_size, self.stride)
        out = win.mean(axis=(-2, -1))
        if self.training:
            self._x_shape = x.shape
        return np.ascontiguousarray(out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called without a cached training forward")
        k, s = self.kernel_size, self.stride
        n, c, h, w = self._x_shape
        oh, ow = dout.shape[2], dout.shape[3]
        dx = np.zeros(self._x_shape, dtype=dout.dtype)
        share = dout / (k * k)
        for i in range(k):
            for j in range(k):
                dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += share
        self._x_shape = None
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        oh = conv_output_size(h, self.kernel_size, self.stride, 0)
        ow = conv_output_size(w, self.kernel_size, self.stride, 0)
        return (c, oh, ow)

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        c, oh, ow = self.output_shape(input_shape)
        return c * oh * ow * self.kernel_size * self.kernel_size
