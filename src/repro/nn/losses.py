"""Loss functions.

Each criterion exposes ``forward(...) -> (loss, grad)`` where ``grad`` is the
gradient of the *mean* loss w.r.t. the first input — ready to feed into
``model.backward``.  This one-shot interface avoids hidden state and keeps a
training step to three explicit lines.

``ModelContrastiveLoss`` is MOON's model-level contrastive objective (Li et
al., CVPR 2021) used by :class:`repro.algorithms.moon.MOON`; it is the
expensive representation-based alternative that FedTrip's parameter-space
triplet term replaces.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from repro.nn.functional import log_softmax, softmax

__all__ = [
    "CrossEntropyLoss",
    "MSELoss",
    "KLDivLoss",
    "ModelContrastiveLoss",
    "TripletSampleLoss",
]


@functools.lru_cache(maxsize=64)
def _row_index(n: int) -> np.ndarray:
    """``arange(n)``, read-only and shared: every batch of one size picks its
    label entries through the same index."""
    rows = np.arange(n)
    rows.setflags(write=False)
    return rows


class CrossEntropyLoss:
    """Softmax cross-entropy over integer class labels."""

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (n, classes), got {logits.shape}")
        n = logits.shape[0]
        if labels.shape != (n,):
            raise ValueError(f"labels must be ({n},), got {labels.shape}")
        # One pass of log_softmax and softmax's shared work: the same ops on
        # the same operands as calling both, so the same bits.  Only the
        # label entries of log p are ever read, so only those are formed.
        # The reductions call the ufuncs np.max/np.sum/np.mean reach, and
        # the mean is np.mean's own scalar path: one add.reduce, then the
        # quotient cast back to the sum's dtype.
        shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
        ex = np.exp(shifted)
        total = np.add.reduce(ex, axis=1, keepdims=True)
        rows = _row_index(n)
        picked = np.add.reduce(shifted[rows, labels] - np.log(total)[:, 0])
        loss = -float(picked.dtype.type(picked / n))
        grad = np.divide(ex, total, out=ex)
        grad[rows, labels] -= 1.0
        grad /= n
        return loss, grad

    __call__ = forward


class MSELoss:
    """Mean squared error."""

    def forward(self, pred: np.ndarray, target: np.ndarray) -> Tuple[float, np.ndarray]:
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
        diff = pred - target
        loss = float(np.mean(diff * diff))
        grad = (2.0 / diff.size) * diff
        return loss, grad

    __call__ = forward


class KLDivLoss:
    """Temperature-scaled KL divergence ``KL(teacher || student)``.

    Used for FedGKD-style global-knowledge distillation: the teacher is the
    frozen global model, the student the local model being trained.  Returns
    the gradient w.r.t. *student logits*; scaled by ``temperature**2`` as is
    conventional so gradient magnitudes stay comparable across temperatures.
    """

    def __init__(self, temperature: float = 1.0) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = float(temperature)

    def forward(
        self, student_logits: np.ndarray, teacher_logits: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if student_logits.shape != teacher_logits.shape:
            raise ValueError("student/teacher logit shapes differ")
        t = self.temperature
        n = student_logits.shape[0]
        p = softmax(teacher_logits / t, axis=1)
        logq = log_softmax(student_logits / t, axis=1)
        logp = log_softmax(teacher_logits / t, axis=1)
        loss = float(np.sum(p * (logp - logq)) / n) * t * t
        q = softmax(student_logits / t, axis=1)
        grad = (q - p) * (t / n)
        return loss, grad

    __call__ = forward


def _cosine_and_grad(z: np.ndarray, a: np.ndarray, eps: float = 1e-8):
    """Row-wise cosine similarity and its gradient w.r.t. ``z``."""
    zn = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), eps)
    an = np.maximum(np.linalg.norm(a, axis=1, keepdims=True), eps)
    cos = np.sum(z * a, axis=1, keepdims=True) / (zn * an)
    dz = a / (zn * an) - cos * z / (zn * zn)
    return cos[:, 0], dz


class ModelContrastiveLoss:
    """MOON's contrastive loss over (current, global, previous) features.

    ``l = -log( exp(sim(z, z_glob)/tau) / (exp(sim(z, z_glob)/tau)
    + exp(sim(z, z_prev)/tau)) )`` averaged over the batch.  ``z_glob`` and
    ``z_prev`` are treated as constants (they come from frozen models).
    """

    def __init__(self, temperature: float = 0.5) -> None:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.temperature = float(temperature)

    def forward(
        self, z: np.ndarray, z_glob: np.ndarray, z_prev: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if z.shape != z_glob.shape or z.shape != z_prev.shape:
            raise ValueError("feature shapes must match")
        tau = self.temperature
        n = z.shape[0]
        sg, dsg = _cosine_and_grad(z, z_glob)
        sp, dsp = _cosine_and_grad(z, z_prev)
        logits = np.stack([sg, sp], axis=1) / tau
        logp = log_softmax(logits, axis=1)
        loss = -float(np.mean(logp[:, 0]))
        p = softmax(logits, axis=1)
        # d loss / d sg = (p_g - 1)/ (n tau); d loss / d sp = p_p / (n tau)
        cg = (p[:, 0] - 1.0) / (n * tau)
        cp = p[:, 1] / (n * tau)
        grad = cg[:, None] * dsg + cp[:, None] * dsp
        return loss, grad

    __call__ = forward


class TripletSampleLoss:
    """Classic sample-level triplet loss (FaceNet), kept for reference.

    FedTrip lifts this anchor/positive/negative structure from embeddings to
    *model parameters*; this class exists so examples/tests can demonstrate
    the analogy.  ``max(||a-p||^2 - ||a-n||^2 + margin, 0)`` per row.
    """

    def __init__(self, margin: float = 1.0) -> None:
        if margin < 0:
            raise ValueError("margin must be non-negative")
        self.margin = float(margin)

    def forward(
        self, anchor: np.ndarray, positive: np.ndarray, negative: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        if anchor.shape != positive.shape or anchor.shape != negative.shape:
            raise ValueError("triplet shapes must match")
        n = anchor.shape[0]
        dp = anchor - positive
        dn = anchor - negative
        viol = np.sum(dp * dp, axis=1) - np.sum(dn * dn, axis=1) + self.margin
        active = viol > 0
        loss = float(np.mean(np.maximum(viol, 0.0)))
        grad = np.zeros_like(anchor)
        grad[active] = 2.0 * (dp[active] - dn[active]) / n
        return loss, grad

    __call__ = forward
