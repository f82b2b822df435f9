"""Federated model wrapper with a features/head split.

MOON and FedGKD need access to the penultimate representation ``z`` (MOON
contrasts representations across models; FedGKD distils logits).  Every model
in this reproduction is therefore a :class:`FedModel`: a feature extractor
followed by a classifier head, with a backward pass that can inject an extra
gradient at the representation boundary.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.containers import Sequential
from repro.nn.module import Module

__all__ = ["FedModel"]


class FedModel(Module):
    """``logits = head(features(x))`` with gradient injection at ``z``.

    Parameters
    ----------
    features:
        Everything up to and including the representation layer.
    head:
        The classifier on top of the representation (typically one Linear).
    input_shape:
        Per-sample input shape, e.g. ``(1, 28, 28)``; used for FLOPs/shape
        bookkeeping and sanity checks.
    name:
        Registry name ("mlp", "cnn", "alexnet", ...).
    """

    def __init__(
        self,
        features: Sequential,
        head: Sequential,
        input_shape: Tuple[int, ...],
        name: str = "fedmodel",
    ) -> None:
        super().__init__()
        self.features = features
        self.head = head
        self.input_shape = tuple(input_shape)
        self.name = name

    # -- forward ---------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.head(self.features(x))

    def forward_with_features(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(logits, z)`` where ``z`` is the representation."""
        z = self.features(x)
        return self.head(z), z

    # -- flat weight I/O -------------------------------------------------------
    def set_weights_flat(self, flat: np.ndarray) -> None:
        """Load one flat parameter vector (the canonical server-side
        representation, see :mod:`repro.fl.params`) into the model —
        inverse of :meth:`~repro.nn.module.Module.get_weights_flat`.

        On a plane-backed model (:meth:`~repro.nn.module.Module.
        materialize_flat`) this is a single ``np.copyto`` into the weight
        plane — the broadcast-adoption fast path; otherwise it falls back
        to one reshape+copy per parameter."""
        flat_w = self.flat_weights
        if flat_w is not None:
            if flat.size != flat_w.size:
                raise ValueError(
                    f"flat vector has {flat.size} elements, model has {flat_w.size}"
                )
            # "unsafe" mirrors the fallback's astype(float32) semantics.
            np.copyto(flat_w, flat, casting="unsafe")
            return
        params = self.parameters()
        total = sum(p.size for p in params)
        if flat.size != total:
            raise ValueError(f"flat vector has {flat.size} elements, model has {total}")
        cursor = 0
        for p in params:
            p.copy_(flat[cursor : cursor + p.size].reshape(p.data.shape))
            cursor += p.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Argmax class prediction in eval mode (mode is restored)."""
        was_training = self.training
        self.eval()
        try:
            logits = self.forward(x)
        finally:
            self.train(was_training)
        return np.argmax(logits, axis=1)

    # -- backward ----------------------------------------------------------------
    def backward(
        self,
        dlogits: np.ndarray,
        dfeatures: Optional[np.ndarray] = None,
        *,
        input_grad: bool = True,
    ) -> Optional[np.ndarray]:
        """Backpropagate ``dlogits`` (and optionally an extra gradient on the
        representation, as MOON requires) down to the input.

        A training step needs only the parameter gradients: with
        ``input_grad=False`` the pass stops at the earliest layer holding
        parameters, skips that layer's input gradient and returns None.
        The parameter gradients are the same bytes either way."""
        dz = self.head.backward(dlogits)
        if dfeatures is not None:
            dz = dz + dfeatures
        if input_grad:
            return self.features.backward(dz)
        self.features.backward_params(dz)
        return None

    # -- bookkeeping ---------------------------------------------------------------
    @property
    def feature_dim(self) -> int:
        shape = self.features.output_shape(self.input_shape)
        if len(shape) != 1:
            raise RuntimeError(f"feature extractor must end flat, got {shape}")
        return shape[0]

    @property
    def num_classes(self) -> int:
        return self.head.output_shape((self.feature_dim,))[0]

    def output_shape(self, input_shape: Tuple[int, ...]) -> Tuple[int, ...]:
        return self.head.output_shape(self.features.output_shape(input_shape))

    def forward_flops(self, input_shape: Optional[Tuple[int, ...]] = None) -> int:
        shape = tuple(input_shape) if input_shape is not None else self.input_shape
        z_shape = self.features.output_shape(shape)
        return self.features.forward_flops(shape) + self.head.forward_flops(z_shape)
