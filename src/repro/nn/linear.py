"""Fully connected layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init as nn_init
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x W + b`` with ``W`` of shape ``(in, out)``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to include the additive bias term.
    rng:
        Generator for weight init; a fresh default generator is used when
        omitted (convenient in tests, but models pass an explicit stream).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(nn_init.kaiming_uniform(rng, (in_features, out_features)), "weight")
        self.bias = Parameter(nn_init.zeros((out_features,)), "bias") if bias else None
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"Linear expects (n, {self.in_features}), got {x.shape}")
        self._x = x if self.training else None
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.backward_params(dout)
        return dout @ self.weight.data.T

    def backward_params(self, dout: np.ndarray) -> None:
        if self._x is None:
            raise RuntimeError("backward called without a cached training forward")
        x = self._x
        self.weight.grad += x.T @ dout
        if self.bias is not None:
            # ndarray.sum's own reduction, without the method's dispatch.
            self.bias.grad += np.add.reduce(dout, axis=0)
        self._x = None

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (self.out_features,)

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        flops = 2 * self.in_features * self.out_features
        if self.bias is not None:
            flops += self.out_features
        return flops
