"""Structural layers: Flatten and Sequential."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.nn.module import Module

__all__ = ["Flatten", "Sequential"]


class Flatten(Module):
    """Collapse all non-batch dimensions to one."""

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called without a cached training forward")
        dx = dout.reshape(self._shape)
        self._shape = None
        return dx

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class Sequential(Module):
    """A chain of layers executed in order.

    ``backward`` runs the chain in reverse, so a full training step is::

        out = seq(x)
        loss, dout = criterion(out, y)
        seq.zero_grad()
        seq.backward(dout)
        optimizer.step()
    """

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers: List[Module] = list(layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def _first_param_layer(self) -> Optional[int]:
        return next(
            (i for i, layer in enumerate(self.layers) if next(layer.named_parameters(), None)),
            None,
        )

    def _cache_traversal(self) -> None:
        super()._cache_traversal()
        self._first_param = self._first_param_layer()

    def backward_params(self, dout: np.ndarray) -> None:
        """Backpropagate down to the earliest layer that holds parameters,
        which skips its input gradient; the parameter-free layers below it
        are not visited."""
        cache = self.__dict__  # filled by _cache_traversal once plane-backed
        first = cache["_first_param"] if "_first_param" in cache else self._first_param_layer()
        if first is None:
            return
        for layer in reversed(self.layers[first + 1 :]):
            dout = layer.backward(dout)
        self.layers[first].backward_params(dout)

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        shape = input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    def forward_flops(self, input_shape: Tuple[int, ...]) -> int:
        total = 0
        shape = input_shape
        for layer in self.layers:
            total += layer.forward_flops(shape)
            shape = layer.output_shape(shape)
        return total
