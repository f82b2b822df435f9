"""The canonical flat-parameter representation of model state.

The server-side hot path — aggregate K client models, broadcast the new
global model — is dominated by memory traffic, not math.  Treating model
state as a Python list of per-layer arrays makes every one of those steps a
Python loop (K clients x L layers for aggregation, L copies per broadcast).
This module makes **one contiguous buffer** the canonical in-memory form of
a weight tree so the hot path collapses to single vectorized operations:

* :class:`WeightLayout` — the immutable byte layout of a weight tree
  (shape/dtype/offset per array).  Every array shares one dtype — a
  construction invariant checked by :func:`tree_dtype` — so the layout has
  zero padding and the whole buffer is addressable as a single 1-D
  ``flat`` vector of ``total_elems`` elements.
* :class:`ParamPlane` — a layout plus one owned buffer, exposing the same
  memory as (a) per-layer reshaped views (``plane.tree`` — drop-in for the
  old list-of-arrays) and (b) the flat vector (``plane.flat``).  Writing
  through either view is visible through the other; broadcast is one
  ``np.copyto``.
* :func:`stack_updates` — gather K client vectors into a ``(K, P)`` float64
  matrix (reused across rounds via :class:`MatrixPool`), the input format
  of the robust aggregation rules in :mod:`repro.fl.robust`.

The out-of-process executor's ``BROADCAST`` frame uses the same layout, so
the server->worker broadcast is a single flat copy as well (see
:mod:`repro.fl.net`).

A mixed-dtype tree (say one float64 layer in a float32 model) is rejected
with a ``ValueError`` naming its dtypes: there is one weight representation,
the flat vector, and no per-layer fallback beside it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.vectorize import flatten_arrays

__all__ = [
    "WeightLayout",
    "ParamPlane",
    "GradPlane",
    "MatrixPool",
    "as_flat",
    "default_pool",
    "materialize_parameters",
    "reset_default_pool",
    "stack_updates",
    "tree_dtype",
]


def tree_dtype(tree: Sequence[np.ndarray]) -> np.dtype:
    """The one dtype every array of a weight tree shares.

    The single check behind the one-dtype invariant: a layout, a plane, a
    plane-backed model and every flat vector are built only from trees that
    pass it.  Raises ``ValueError`` naming the dtypes of a mixed tree (and
    on an empty one, which has no dtype).
    """
    dtypes = {np.asarray(a).dtype for a in tree}
    if len(dtypes) != 1:
        if not dtypes:
            raise ValueError("weight tree is empty")
        raise ValueError(
            f"weight tree mixes dtypes {sorted(d.name for d in dtypes)}; "
            "every array of a model must share one dtype"
        )
    return dtypes.pop()


@dataclass(frozen=True)
class WeightLayout:
    """Flat-buffer layout of a weight tree: (shape, dtype, offset) triples.

    ``offsets`` are byte offsets into the buffer; ``sizes`` are element
    counts per array.  Every array shares one dtype and the arrays sit back
    to back, so the buffer is also one flat vector: array ``i`` occupies
    elements ``[sum(sizes[:i]), sum(sizes[:i + 1]))`` of it.
    """

    shapes: Tuple[Tuple[int, ...], ...]
    dtypes: Tuple[str, ...]
    offsets: Tuple[int, ...]
    total_bytes: int

    @classmethod
    def from_weights(cls, weights: Sequence[np.ndarray]) -> "WeightLayout":
        arrays = [np.asarray(w) for w in weights]
        tree_dtype(arrays)
        shapes, dtypes, offsets = [], [], []
        cursor = 0
        for a in arrays:
            shapes.append(tuple(a.shape))
            dtypes.append(a.dtype.str)
            offsets.append(cursor)
            cursor += a.nbytes
        return cls(tuple(shapes), tuple(dtypes), tuple(offsets), max(cursor, 1))

    # -- derived structure -------------------------------------------------
    @property
    def n_arrays(self) -> int:
        return len(self.shapes)

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(int(np.prod(s, dtype=np.int64)) for s in self.shapes)

    @property
    def total_elems(self) -> int:
        return sum(self.sizes)

    @property
    def dtype(self) -> np.dtype:
        """The dtype every array of the layout shares."""
        return np.dtype(self.dtypes[0])

    # -- views over an external buffer -------------------------------------
    def views(self, buf, writeable: bool) -> List[np.ndarray]:
        """NumPy views over ``buf`` (any buffer object), one per array."""
        out = []
        for shape, dtype, offset in zip(self.shapes, self.dtypes, self.offsets):
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
            view.flags.writeable = writeable
            out.append(view)
        return out

    def flat_view(self, buf, writeable: bool) -> np.ndarray:
        """The whole buffer as one 1-D vector."""
        view = np.ndarray((self.total_elems,), dtype=self.dtype, buffer=buf)
        view.flags.writeable = writeable
        return view

    def tree_of(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-layer reshaped views of an existing flat vector (no copies)."""
        if flat.ndim != 1 or flat.size != self.total_elems:
            raise ValueError(
                f"flat vector has shape {flat.shape}, layout needs ({self.total_elems},)"
            )
        out: List[np.ndarray] = []
        cursor = 0
        for shape, size in zip(self.shapes, self.sizes):
            out.append(flat[cursor : cursor + size].reshape(shape))
            cursor += size
        return out

    def check_tree(self, tree: Sequence[np.ndarray]) -> None:
        """Validate shapes against the layout (dtype casts are allowed)."""
        if len(tree) != self.n_arrays:
            raise ValueError(
                f"weight tree has {len(tree)} arrays, layout expects {self.n_arrays}"
            )
        for i, (a, shape) in enumerate(zip(tree, self.shapes)):
            if tuple(np.shape(a)) != shape:
                raise ValueError(
                    f"array {i} has shape {np.shape(a)}, layout expects {shape}"
                )


class ParamPlane:
    """One contiguous buffer holding a whole weight tree.

    The plane owns its memory; ``tree`` (per-layer views) and ``flat``
    (the 1-D vector) alias it, so an in-place write
    through any of the three is immediately visible through the others.
    This is what lets the server keep *one* global weight buffer for the
    lifetime of a run: aggregation writes it once per round, and every
    consumer (evaluation, executor broadcast, strategy hooks) reads views
    that never churn.
    """

    def __init__(self, layout: WeightLayout) -> None:
        self.layout = layout
        self._buf = np.zeros(layout.total_bytes, dtype=np.uint8)
        #: stable per-layer views; identity is preserved across rounds.
        self.tree: List[np.ndarray] = layout.views(self._buf.data, writeable=True)
        #: the canonical flat vector.
        self.flat: np.ndarray = layout.flat_view(self._buf.data, writeable=True)

    @classmethod
    def from_tree(cls, tree: Sequence[np.ndarray]) -> "ParamPlane":
        plane = cls(WeightLayout.from_weights(tree))
        plane.copy_from_tree(tree)
        return plane

    @property
    def n_params(self) -> int:
        return self.layout.total_elems

    def bytes_view(self) -> np.ndarray:
        """The raw buffer as uint8 — one memcpy moves the whole model."""
        return self._buf

    # -- writes ------------------------------------------------------------
    def copy_from_tree(self, tree: Sequence[np.ndarray]) -> None:
        """Copy a weight tree into the plane (casting per layer if needed)."""
        self.layout.check_tree(tree)
        for view, w in zip(self.tree, tree):
            np.copyto(view, w, casting="same_kind")

    def copy_from_flat(self, flat: np.ndarray) -> None:
        """Copy a flat vector into the plane."""
        np.copyto(self.flat, flat, casting="same_kind")

    # -- reads -------------------------------------------------------------
    def tree_copy(self) -> List[np.ndarray]:
        return [np.array(v, copy=True) for v in self.tree]

    def flat_copy(self) -> np.ndarray:
        return self.flat.copy()


class GradPlane(ParamPlane):
    """A zero-initialized plane matching a weight layout.

    The gradient-side twin of :class:`ParamPlane`: worker models re-homed by
    :func:`materialize_parameters` accumulate every layer's gradient into one
    of these, so ``zero_grad``, gradient clipping, the fused optimizers and
    the strategies' attach ops all become single vector operations over the
    ``(P,)`` :attr:`flat` view instead of per-layer Python loops.
    """

    def zero_(self) -> None:
        """Reset every gradient in the plane with one vectorized write."""
        self.flat[...] = 0.0


def materialize_parameters(params) -> Tuple[ParamPlane, "GradPlane"]:
    """Re-home a list of :class:`~repro.nn.parameter.Parameter` objects onto
    one weight plane and one gradient plane.

    Each parameter's ``data``/``grad`` becomes a zero-copy view into the
    corresponding plane, preserving the current bytes, shapes, dtypes and
    traversal order exactly.  Raises ``ValueError`` (leaving the parameters
    untouched) when the tree is empty or mixes dtypes.  This is the
    plane-backed-module constructor behind
    :meth:`repro.nn.module.Module.materialize_flat`.
    """
    params = list(params)
    layout = WeightLayout.from_weights([p.data for p in params])
    weight_plane = ParamPlane(layout)
    grad_plane = GradPlane(layout)
    for p, wview, gview in zip(params, weight_plane.tree, grad_plane.tree):
        np.copyto(wview, p.data)
        np.copyto(gview, p.grad)
        p.rebind(wview, gview)
    return weight_plane, grad_plane


class MatrixPool:
    """Round-persistent scratch matrices for stacked client vectors.

    :func:`stack_updates` is its one client: the robust aggregation rules
    stack K client vectors into one ``(K, P)`` float64 matrix every round
    through it.  K and P are constant for a run, so the
    pool hands back the same allocation round after round instead of
    churning ~K*P*8 bytes per aggregation.  Keyed by shape; one entry per
    live shape (a run has one, two when privacy/compression wrappers stack
    their own deltas).

    A matrix returned by :meth:`take` is **scratch**: it is valid until the
    next ``take`` of the same shape, so callers must consume (reduce) it
    before triggering another aggregation.  The module-level default pool
    is therefore *thread-local* — engines aggregating concurrently in
    separate threads never share scratch.
    """

    def __init__(self, max_entries: int = 4) -> None:
        self._max = max_entries
        self._pool: Dict[Tuple[int, int], np.ndarray] = {}
        #: largest (K, P) shape ever handed out, by element count — the
        #: pool's peak scratch footprint, surfaced as an observability
        #: gauge.  Survives clear(): it describes the run, not the cache.
        self.peak_shape: Tuple[int, int] = (0, 0)

    def take(self, k: int, p: int) -> np.ndarray:
        if k * p > self.peak_shape[0] * self.peak_shape[1]:
            self.peak_shape = (k, p)
        mat = self._pool.get((k, p))
        if mat is None:
            if len(self._pool) >= self._max:
                self._pool.clear()
            mat = np.empty((k, p), dtype=np.float64)
            self._pool[(k, p)] = mat
        return mat

    def clear(self) -> None:
        self._pool.clear()


_POOLS = threading.local()


def _default_pool() -> MatrixPool:
    pool = getattr(_POOLS, "pool", None)
    if pool is None:
        pool = _POOLS.pool = MatrixPool()
    return pool


def default_pool() -> MatrixPool:
    """This thread's shared scratch pool (public read access — the engine's
    observability gauges report its peak shape)."""
    return _default_pool()


def reset_default_pool() -> None:
    """Drop this thread's pooled scratch matrices.

    The pool is keyed by ``(K, P)`` and capped at a few entries, so reuse
    across *same-shape* experiments is safe (every row is overwritten
    before the matrix is read) — but scratch from a finished experiment
    would otherwise pin ``K x P`` float64 until another shape evicts it.
    :meth:`repro.api.Engine.close` calls this so back-to-back experiments
    with different models or cohort sizes don't accumulate dead buffers.
    """
    pool = getattr(_POOLS, "pool", None)
    if pool is not None:
        pool.clear()


def as_flat(tree: Sequence[np.ndarray]) -> np.ndarray:
    """One freshly allocated flat copy of a weight tree (``ValueError`` on
    a mixed-dtype tree, see :func:`tree_dtype`)."""
    arrays = [np.asarray(a) for a in tree]
    tree_dtype(arrays)
    return flatten_arrays(arrays)


def stack_updates(
    flats: Sequence[np.ndarray], pool: Optional[MatrixPool] = None
) -> np.ndarray:
    """Stack K flat client vectors (e.g. ``ClientUpdate.flat_vector()``)
    into the pooled ``(K, P)`` float64 matrix.

    The returned matrix is pool scratch (see :class:`MatrixPool`): reduce
    it before stacking again.
    """
    if not flats:
        raise ValueError("no vectors to stack")
    p = int(flats[0].size)
    if any(f.size != p for f in flats):
        raise ValueError("vectors to stack differ in size")
    pool = pool if pool is not None else _default_pool()
    mat = pool.take(len(flats), p)
    for row, flat in zip(mat, flats):
        row[...] = flat
    return mat
