"""Trainable parameter container.

A :class:`Parameter` pairs a weight array with its gradient accumulator.  All
arrays are C-contiguous ``float32`` by default: federated averaging and the
regularizers stream over every parameter each round, so compact contiguous
storage matters for cache behaviour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["Parameter", "DEFAULT_DTYPE"]

DEFAULT_DTYPE = np.float32


class Parameter:
    """A named trainable array with a same-shaped gradient buffer.

    Attributes
    ----------
    data:
        The weight values; mutated in place by optimizers.
    grad:
        Gradient accumulator, reset by :meth:`zero_grad`.  Kept allocated for
        the lifetime of the parameter so backward passes write in place.
    name:
        Dotted path assigned when the owning module tree is constructed;
        useful in error messages and profiling output.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.ascontiguousarray(data, dtype=DEFAULT_DTYPE)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the gradient buffer in place (no reallocation)."""
        self.grad[...] = 0.0

    def rebind(self, data: np.ndarray, grad: np.ndarray) -> None:
        """Re-home this parameter onto external storage (plane views).

        Used by :func:`repro.fl.params.materialize_parameters` to back a
        whole model with two contiguous buffers; the caller is responsible
        for having copied the current values into ``data``/``grad`` first.
        Shapes and dtypes must match exactly so every downstream consumer
        (layers, optimizers, strategies) is oblivious to the move.
        """
        if data.shape != self.data.shape or data.dtype != self.data.dtype:
            raise ValueError(
                f"parameter {self.name!r}: rebind data mismatch "
                f"{data.shape}/{data.dtype} vs {self.data.shape}/{self.data.dtype}"
            )
        if grad.shape != self.grad.shape or grad.dtype != self.grad.dtype:
            raise ValueError(
                f"parameter {self.name!r}: rebind grad mismatch "
                f"{grad.shape}/{grad.dtype} vs {self.grad.shape}/{self.grad.dtype}"
            )
        self.data = data
        self.grad = grad

    def copy_(self, values: np.ndarray) -> None:
        """Copy ``values`` into :attr:`data` without changing identity."""
        if values.shape != self.data.shape:
            raise ValueError(
                f"parameter {self.name!r}: shape mismatch {values.shape} vs {self.data.shape}"
            )
        np.copyto(self.data, values.astype(DEFAULT_DTYPE, copy=False))

    def clone_data(self) -> np.ndarray:
        """Detached copy of the current weights."""
        return np.array(self.data, copy=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


def as_parameter(value, name: str = "") -> Optional[Parameter]:
    """Coerce arrays to :class:`Parameter`; pass through existing ones."""
    if value is None:
        return None
    if isinstance(value, Parameter):
        return value
    return Parameter(np.asarray(value), name=name)
