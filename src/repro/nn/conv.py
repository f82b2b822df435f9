"""2-D convolution implemented as im2col + GEMM."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init as nn_init
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Cross-correlation over ``(N, C, H, W)`` inputs.

    Weight shape is ``(out_channels, in_channels, kh, kw)``.  The forward pass
    unfolds the input into patch rows (:func:`~repro.nn.functional.im2col`)
    and performs one matrix multiply — one big BLAS call instead of
    per-pixel Python loops.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size) <= 0 or stride <= 0 or padding < 0:
            raise ValueError("invalid Conv2d geometry")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(nn_init.kaiming_uniform(rng, shape), "weight")
        self.bias = Parameter(nn_init.zeros((out_channels,)), "bias") if bias else None
        self._cols: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, int, int, int]] = None
        self._out_hw: Optional[Tuple[int, int]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (n, {self.in_channels}, h, w), got {x.shape}"
            )
        n = x.shape[0]
        k = self.kernel_size
        cols, (oh, ow) = im2col(x, k, k, self.stride, self.padding)
        w_mat = self.weight.data.reshape(self.out_channels, -1).T  # (C*k*k, F)
        out = cols @ w_mat  # (N*oh*ow, F)
        if self.bias is not None:
            out += self.bias.data
        out = out.reshape(n, oh, ow, self.out_channels).transpose(0, 3, 1, 2)
        if self.training:
            self._cols, self._x_shape, self._out_hw = cols, x.shape, (oh, ow)
        return np.ascontiguousarray(out)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dout_mat, x_shape = self._param_backward(dout)
        dcols = dout_mat @ self.weight.data.reshape(self.out_channels, -1)
        k = self.kernel_size
        return col2im(dcols, x_shape, k, k, self.stride, self.padding)

    def backward_params(self, dout: np.ndarray) -> None:
        self._param_backward(dout)

    def _param_backward(self, dout: np.ndarray) -> Tuple[np.ndarray, Tuple[int, int, int, int]]:
        """Accumulate the weight/bias gradients and release the forward
        cache; returns ``dout`` as an ``(N*oh*ow, F)`` GEMM operand and the
        input shape, for the input gradient."""
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise RuntimeError("backward called without a cached training forward")
        x_shape = self._x_shape
        oh, ow = self._out_hw
        dout_mat = dout.transpose(0, 2, 3, 1).reshape(x_shape[0] * oh * ow, self.out_channels)
        self.weight.grad += (self._cols.T @ dout_mat).T.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += dout_mat.sum(axis=0)
        self._cols = self._x_shape = self._out_hw = None
        return dout_mat, x_shape

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        c, h, w = input_shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        k = self.kernel_size
        oh = conv_output_size(h, k, self.stride, self.padding)
        ow = conv_output_size(w, k, self.stride, self.padding)
        return (self.out_channels, oh, ow)

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        _, oh, ow = self.output_shape(input_shape)
        k = self.kernel_size
        macs = oh * ow * self.out_channels * self.in_channels * k * k
        flops = 2 * macs
        if self.bias is not None:
            flops += oh * ow * self.out_channels
        return flops
