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

Tree staging and the block size
-------------------------------

:func:`weighted_average_trees` keeps a list-of-arrays signature for callers
holding plain weight trees.  It is the only path that stages rows: a tree
without a cached flat vector is flattened into a pooled float64 buffer of
at most ``block_size`` rows (see :class:`~repro.fl.params.MatrixPool`), and
every block size gives the same bits because the per-row operation
sequence is unchanged.  The block size resolves in priority order: the
explicit ``block_size`` argument, the innermost :func:`aggregation_block`
context (thread-local), the module default set by
:func:`set_default_aggregation_block_size` (the conftest
``--agg-block-size`` hook), and finally ``None`` — all K rows.  No engine
path reaches this staging: every update arrives with a cached flat vector,
so ``ExperimentSpec.agg_block_size`` stages nothing in a run.  The loop
implementation survives as :func:`weighted_average_trees_loop`: it is the
reference the equivalence tests and ``benchmarks/bench_hot_path.py``
compare against.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.fl.params import MatrixPool, _default_pool, tree_dtype
from repro.fl.types import ClientUpdate
from repro.utils.vectorize import flatten_into

__all__ = [
    "aggregation_block",
    "fedavg_aggregate",
    "fold_rows",
    "get_aggregation_block_size",
    "set_default_aggregation_block_size",
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
    ``weights`` normalized to sum 1.  Byte-identical to the streaming path
    in :func:`weighted_average_trees` for the same rows — both fold
    float64 rows sequentially in row order.
    """
    mat = np.asarray(mat)
    return fold_rows(mat, _normalized(weights, mat.shape[0]), mat.shape[1])


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

    A row with a cached flat vector is folded straight out of it; only rows
    *without* one are staged (``flatten_into`` needs a float64
    destination), into a pooled buffer of at most ``block`` rows reused
    cyclically.  Dense (``block == K``) and every smaller block produce the
    same bits: the per-row multiply/add sequence never depends on the block
    (see :func:`fold_rows` for the pinned-order contract).
    """
    k = len(trees)
    sizes = [int(np.asarray(a).size) for a in trees[0]]
    p = sum(sizes)
    block = _resolve_block(block_size, k)

    def rows() -> Iterator[np.ndarray]:
        stage = None  # allocated lazily: all-flat cohorts never touch the pool
        for i in range(k):
            flat = flats[i] if flats is not None else None
            if flat is not None and flat.size == p:
                yield flat
                continue
            if len(trees[i]) != len(sizes):
                raise ValueError("tree structure mismatch")
            if stage is None:
                stage = (pool if pool is not None else _default_pool()).take(block, p)
            yield flatten_into(stage[i % block], trees[i])

    return fold_rows(rows(), w, p)


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
    """Reference per-layer loop implementation (the pre-fold server path).

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


def fedavg_aggregate(updates: Sequence[ClientUpdate]) -> np.ndarray:
    """FedAvg (Eq. 2): the sample-count-weighted mean of the updates' flat
    vectors, as one ``(P,)`` vector in their dtype (cast once)."""
    if not updates:
        raise ValueError("no client updates to aggregate")
    flats = [u.flat_vector() for u in updates]
    w = _normalized([u.num_samples for u in updates], len(updates))
    return fold_rows(flats, w, flats[0].size).astype(flats[0].dtype)
