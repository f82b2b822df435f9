"""Server-side model aggregation.

The weighted average (Eq. 2) is the server's arithmetic hot path: every
round it reduces K client models of P parameters each.  The server speaks
flat: :func:`fedavg_aggregate` folds the updates' cached ``(P,)`` vectors
into one float64 accumulator and returns the result as one vector in their
dtype, cast once.  Every other server-side combination (FedNova's
normalized average, the robust rules' :func:`weighted_average_flat`) runs
through the same :func:`fold_rows`.

The pinned reduction order
--------------------------

The reduction is a *row-sequential left fold*: rows are folded one at a
time in cohort order (``acc += w_k * row_k``), never via a single BLAS
GEMM/GEMV.  BLAS is free to reorder a K-way sum, so a GEMM result would
depend on the BLAS build, its thread count and how many rows it sees at
once — the fold makes the float64 bit pattern a function of the row
*sequence* only.  It also needs only O(P) memory.  Rows are upcast to
float64 *before* the scalar multiply, so a float32 row contributes exactly
what a staged float64 copy of it would.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.fl.types import ClientUpdate

__all__ = [
    "fedavg_aggregate",
    "fold_rows",
    "weighted_average_flat",
]


def _normalized(weights: Sequence[float], n: int) -> np.ndarray:
    """Validate and sum-normalize aggregation weights.

    Shared by every entry to the fold, so all of them raise the same,
    specific error: non-finite weights, negative weights,
    and an all-zero sum (e.g. every client reported zero samples) each get
    their own message instead of a silent divide producing NaN weights.
    ``n = 1`` degenerates to the single weight normalizing to exactly 1.0,
    so a K=1 "average" returns that update's values unchanged (pinned by
    tests).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size != n:
        raise ValueError("one weight per row required")
    if not np.isfinite(w).all():
        raise ValueError("aggregation weights must be finite")
    if (w < 0).any():
        raise ValueError("aggregation weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError(
            "aggregation weights sum to zero; cannot form a weighted average "
            "(did every client report zero samples?)"
        )
    return w / total


def fold_rows(rows: Iterable[np.ndarray], coefs: Sequence[float], p: int) -> np.ndarray:
    """``sum_k coefs[k] * rows[k]`` as a ``(P,)`` float64 vector, folded
    strictly row by row.

    This is *the* pinned reduction order: every server-side combination
    funnels its rows through this loop in cohort order, never through a
    BLAS GEMV, so the result is bitwise a function of the row sequence
    only.  ``dtype=float64`` pins the double-precision ufunc loop, so a
    float32 row is upcast element-wise before the scalar multiply.
    """
    acc = np.zeros(p, dtype=np.float64)
    scratch = np.empty(p, dtype=np.float64)
    for row, c in zip(rows, coefs):
        if row.size != p:
            raise ValueError(f"row has {row.size} values, expected {p}")
        np.multiply(row, c, out=scratch, dtype=np.float64)
        acc += scratch
    return acc


def weighted_average_flat(mat: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Weighted mean of K stacked flat vectors via the pinned row fold.

    ``mat`` is ``(K, P)``; returns the ``(P,)`` float64 combination with
    ``weights`` normalized to sum 1.
    """
    mat = np.asarray(mat)
    return fold_rows(mat, _normalized(weights, mat.shape[0]), mat.shape[1])


def fedavg_aggregate(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """FedAvg (Eq. 2): the sample-count-weighted mean of the updates' flat
    vectors, as one ``(P,)`` vector in their dtype (cast once)."""
    if not updates:
        raise ValueError("no client updates to aggregate")
    flats = [u.flat_vector() for u in updates]
    w = _normalized([u.num_samples for u in updates], len(updates))
    return fold_rows(flats, w, flats[0].size).astype(flats[0].dtype)
