"""Server-side model aggregation.

The weighted average (Eq. 2) is the server's arithmetic hot path: every
round it reduces K client models of P parameters each.  The historical
implementation was a Python loop — K x L ``acc += w_k * arr`` axpys — whose
interpreter overhead dominates once models are small relative to the cohort
(exactly the paper's resource-efficiency regime).  The flat path stages
client vectors into a pooled float64 matrix (see
:class:`~repro.fl.params.MatrixPool`) and reduces them into one running
``(P,)`` accumulator.

Streaming and the pinned reduction order
----------------------------------------

The reduction is a *row-sequential left fold*: rows are staged in cohort
order and folded one at a time (``acc += w_k * row_k``), never via a
single BLAS GEMM/GEMV.  BLAS is free to reorder a K-way sum, so a GEMM
result would depend on how many rows it sees at once — the fold makes the
float64 bit pattern a function of the row *sequence* only.  That buys the
streaming property for free: staging ``block_size`` rows at a time and
folding each block in order produces byte-identical output for *every*
block size (1, 3, K, K + 7, ...), because the per-row operation sequence
is unchanged.  Peak staging memory is ``O(block_size x P)`` instead of
``O(K x P)``, which is what lets a cohort stream out of a million-client
:class:`~repro.fl.population.Population` without materializing a dense
matrix.

The effective block size resolves in priority order: the explicit
``block_size`` argument, the innermost :func:`aggregation_block` context
(thread-local, used by :class:`~repro.fl.server.Server`), the module
default set by :func:`set_default_aggregation_block_size` (the conftest
``--agg-block-size`` hook), and finally ``None`` — dense staging of all K
rows, the historical behaviour.

``weighted_average_trees`` keeps its list-of-arrays signature — every
strategy's ``aggregate`` continues to work unchanged — and always runs the
staged fold: a weight tree has one dtype (see
:func:`repro.fl.params.tree_dtype`).  The loop implementation survives as
:func:`weighted_average_trees_loop`: it is the reference the equivalence
tests and ``benchmarks/bench_hot_path.py`` compare against.

Numerics: both paths accumulate in float64 and cast back to the tree dtype
once.  Rows are upcast to float64 *before* the scalar multiply (staging
buffer), matching what dense stacking always did — multiplying a float32
row by a float64 scalar directly would compute in single precision under
value-based casting.  Determinism holds because every executor and server
mode shares this single code path.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.fl.params import MatrixPool, _default_pool, tree_dtype
from repro.fl.types import ClientUpdate
from repro.utils.vectorize import flatten_into

__all__ = [
    "aggregation_block",
    "fedavg_aggregate",
    "get_aggregation_block_size",
    "set_default_aggregation_block_size",
    "uniform_aggregate",
    "weighted_average_flat",
    "weighted_average_trees",
    "weighted_average_trees_loop",
]

#: module-wide default block size (``None`` = dense).  Set once per process
#: (e.g. by the conftest ``--agg-block-size`` option); per-experiment values
#: travel through the thread-local :func:`aggregation_block` context instead.
_DEFAULT_BLOCK: Optional[int] = None

_BLOCK_LOCAL = threading.local()


def _validated_block(block_size: Optional[int]) -> Optional[int]:
    if block_size is None:
        return None
    b = int(block_size)
    if b < 1:
        raise ValueError(f"aggregation block size must be >= 1, got {block_size}")
    return b


def set_default_aggregation_block_size(block_size: Optional[int]) -> Optional[int]:
    """Set the process-wide default aggregation block size; returns the
    previous value.  ``None`` restores dense (all-K) staging."""
    global _DEFAULT_BLOCK
    previous = _DEFAULT_BLOCK
    _DEFAULT_BLOCK = _validated_block(block_size)
    return previous


def get_aggregation_block_size() -> Optional[int]:
    """The block size aggregation would use right now on this thread
    (innermost :func:`aggregation_block` context, else the module default),
    or ``None`` for dense staging."""
    stack = getattr(_BLOCK_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    return _DEFAULT_BLOCK


@contextmanager
def aggregation_block(block_size: Optional[int]) -> Iterator[None]:
    """Thread-locally pin the aggregation block size for the enclosed code.

    ``None`` is transparent — the surrounding context (or module default)
    stays in effect — so callers can pass an optional knob straight through
    without branching.
    """
    if block_size is None:
        yield
        return
    b = _validated_block(block_size)
    stack = getattr(_BLOCK_LOCAL, "stack", None)
    if stack is None:
        stack = _BLOCK_LOCAL.stack = []
    stack.append(b)
    try:
        yield
    finally:
        stack.pop()


def _resolve_block(block_size: Optional[int], k: int) -> int:
    """Effective staging width for a K-row reduction: the explicit argument,
    else the context/module default, else dense; always clamped to
    ``[1, K]`` (a block larger than the cohort is just dense)."""
    b = _validated_block(block_size)
    if b is None:
        b = get_aggregation_block_size()
    if b is None:
        return k
    return min(b, k)


def _normalized(weights: Sequence[float], n: int) -> np.ndarray:
    """Validate and sum-normalize aggregation weights.

    Shared by the staged fold and the reference loop, so both raise the
    same, specific error: non-finite weights, negative weights,
    and an all-zero sum (e.g. every client reported zero samples) each get
    their own message instead of a silent divide producing NaN weights.
    ``n = 1`` degenerates to the single weight normalizing to exactly 1.0,
    so a K=1 "average" returns that update's values unchanged (pinned by
    tests).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.size != n:
        raise ValueError("one weight per tree required")
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


def _fold_rows(rows: np.ndarray, w: np.ndarray, acc: np.ndarray, scratch: np.ndarray) -> None:
    """``acc += sum_k w[k] * rows[k]``, folded strictly row-by-row.

    This is *the* pinned reduction order: every aggregation entry point
    funnels K float64 rows through this loop in cohort order, so the
    result is bitwise independent of how the rows were batched upstream.
    """
    for k in range(rows.shape[0]):
        np.multiply(rows[k], w[k], out=scratch)
        acc += scratch


def weighted_average_flat(mat: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Weighted mean of K stacked flat vectors via the pinned row fold.

    ``mat`` is ``(K, P)``; returns the ``(P,)`` float64 combination with
    ``weights`` normalized to sum 1.  Byte-identical to the streaming path
    in :func:`weighted_average_trees` for the same rows — both fold
    float64 rows sequentially in row order.
    """
    mat = np.asarray(mat)
    w = _normalized(weights, mat.shape[0])
    if mat.dtype != np.float64:
        mat = mat.astype(np.float64)
    acc = np.zeros(mat.shape[1], dtype=np.float64)
    scratch = np.empty(mat.shape[1], dtype=np.float64)
    _fold_rows(mat, w, acc, scratch)
    return acc


def _check_structure(
    trees: Sequence[Sequence[np.ndarray]],
    flats: Optional[Sequence[Optional[np.ndarray]]],
) -> None:
    """Every tree must match the first layer-for-layer (the loop path got
    this for free from broadcasting; the flat path must check explicitly —
    two trees of equal total size but different layer shapes would
    otherwise average element-order-scrambled).  Rows backed by a cached
    flat vector (``ClientUpdate.from_flat`` guarantees tree/flat
    consistency) only need the arity check, keeping the hot path free of
    K x L shape walks."""
    shapes = [np.shape(a) for a in trees[0]]
    for i, tree in enumerate(trees):
        if i and len(tree) != len(shapes):
            raise ValueError("tree structure mismatch")
        if (flats is None or flats[i] is None) and any(
            np.shape(a) != s for a, s in zip(tree, shapes)
        ):
            raise ValueError("tree structure mismatch")


def _streamed_weighted_sum(
    trees: Sequence[Sequence[np.ndarray]],
    flats: Optional[Sequence[Optional[np.ndarray]]],
    w: np.ndarray,
    block_size: Optional[int],
    pool: Optional[MatrixPool] = None,
) -> np.ndarray:
    """Fold K client trees into one ``(P,)`` float64 vector, staging at most
    ``block`` rows of scratch at a time.

    The fold multiplies each row straight out of its cached flat vector when
    one is available — ``dtype=float64`` pins the double-precision ufunc
    loop, which upcasts a float32 row element-wise exactly as a staging
    copy would, minus the extra memory pass.  Only rows *without* a cached
    flat are staged (``flatten_into`` needs a float64 destination), and the
    pooled staging buffer is at most ``block`` rows, reused cyclically.
    Dense (``block == K``) and every smaller block produce the same bits:
    the per-row multiply/add sequence never depends on the block
    (see :func:`_fold_rows` for the pinned-order contract).
    """
    k = len(trees)
    sizes = [int(np.asarray(a).size) for a in trees[0]]
    p = sum(sizes)
    block = _resolve_block(block_size, k)
    stage = None  # allocated lazily: all-flat cohorts never touch the pool
    acc = np.zeros(p, dtype=np.float64)
    scratch = np.empty(p, dtype=np.float64)
    for i in range(k):
        flat = flats[i] if flats is not None else None
        if flat is not None and flat.size == p:
            src = flat
        else:
            if len(trees[i]) != len(sizes):
                raise ValueError("tree structure mismatch")
            if stage is None:
                pool = pool if pool is not None else _default_pool()
                stage = pool.take(block, p)
            src = stage[i % block]
            flatten_into(src, trees[i])
        np.multiply(src, w[i], out=scratch, dtype=np.float64)
        acc += scratch
    return acc


def weighted_average_trees(
    trees: Sequence[Sequence[np.ndarray]],
    weights: Sequence[float],
    flats: Optional[Sequence[Optional[np.ndarray]]] = None,
    block_size: Optional[int] = None,
) -> List[np.ndarray]:
    """Weighted mean of parameter trees; weights are normalized to sum 1.

    ``flats`` optionally carries a precomputed flat vector per tree (the
    :class:`~repro.fl.types.ClientUpdate` fast path) so staging skips
    re-flattening.  ``block_size`` caps how many rows are staged at once
    (``None`` defers to :func:`aggregation_block` / the module default);
    the result is byte-identical for every block size.  A mixed-dtype tree
    raises ``ValueError``.
    """
    if not trees:
        raise ValueError("no trees to aggregate")
    first = trees[0]
    dtype = tree_dtype(first)
    w = _normalized(weights, len(trees))
    _check_structure(trees, flats)
    flat = _streamed_weighted_sum(trees, flats, w, block_size)
    out: List[np.ndarray] = []
    cursor = 0
    for a in first:
        a = np.asarray(a)
        out.append(flat[cursor : cursor + a.size].reshape(a.shape).astype(dtype))
        cursor += a.size
    return out


def weighted_average_trees_loop(
    trees: Sequence[Sequence[np.ndarray]], weights: Sequence[float]
) -> List[np.ndarray]:
    """Reference per-layer loop implementation (pre-GEMM server path).

    Kept for the loop-vs-fold equivalence tests and as the baseline leg of
    ``benchmarks/bench_hot_path.py``.
    """
    if not trees:
        raise ValueError("no trees to aggregate")
    w = _normalized(weights, len(trees))
    out = [np.zeros_like(a, dtype=np.float64) for a in trees[0]]
    for tree, wk in zip(trees, w):
        if len(tree) != len(out):
            raise ValueError("tree structure mismatch")
        for acc, arr in zip(out, tree):
            acc += wk * arr
    return [a.astype(trees[0][i].dtype) for i, a in enumerate(out)]


def _average_updates(updates: Sequence[ClientUpdate], weights: Sequence[float]) -> List[np.ndarray]:
    return weighted_average_trees(
        [u.weights for u in updates],
        weights,
        flats=[u.flat for u in updates],
    )


def fedavg_aggregate(updates: Sequence[ClientUpdate]) -> List[np.ndarray]:
    """FedAvg: weights proportional to client sample counts (Eq. 2)."""
    if not updates:
        raise ValueError("no client updates to aggregate")
    return _average_updates(updates, [u.num_samples for u in updates])


def uniform_aggregate(updates: Sequence[ClientUpdate]) -> List[np.ndarray]:
    """Unweighted mean over participating clients."""
    if not updates:
        raise ValueError("no client updates to aggregate")
    return _average_updates(updates, [1.0] * len(updates))
