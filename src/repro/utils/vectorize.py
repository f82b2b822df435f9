"""Flat-vector and list-of-arrays ("tree") operations over model parameters.

All FL regularizers in this reproduction (FedProx's proximal term, FedTrip's
triplet term, FedDyn's linear correction, SCAFFOLD's control variates, ...)
are *parameter-space* operations.  Representing a model state as either a
single flat ``float64``/``float32`` vector or a list of per-layer arrays makes
those regularizers one or two vectorized NumPy expressions — no Python loops
over individual weights.

The "tree" here is simply ``list[np.ndarray]`` in a fixed layer order; it
avoids repeated concatenation when algorithms only need elementwise updates.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "flatten_arrays",
    "flatten_into",
    "unflatten_like",
    "zeros_like_flat",
    "tree_axpy",
    "tree_scale",
    "tree_sub",
    "tree_add",
    "tree_copy",
    "tree_dot",
    "tree_sq_norm",
]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate a sequence of arrays into one flat 1-D vector."""
    if not arrays:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate([np.ravel(a) for a in arrays])


def flatten_into(out: np.ndarray, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Write ``arrays`` into a preallocated 1-D vector, casting to its dtype.

    The zero-allocation sibling of :func:`flatten_arrays`: the aggregation
    hot path uses it to fill rows of a round-persistent ``(K, P)`` matrix
    without per-round concatenation temporaries.  Returns ``out``.
    """
    cursor = 0
    for a in arrays:
        a = np.asarray(a)
        out[cursor : cursor + a.size] = a.ravel()
        cursor += a.size
    if cursor != out.size:
        raise ValueError(f"arrays hold {cursor} elements, out holds {out.size}")
    return out


def unflatten_like(flat: np.ndarray, template: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Split ``flat`` back into arrays shaped like ``template``.

    The returned arrays are reshaped *views* into ``flat`` whenever possible,
    avoiding copies (see the guide's "use views, not copies").
    """
    flat = np.asarray(flat)
    total = sum(a.size for a in template)
    if flat.size != total:
        raise ValueError(f"flat vector has {flat.size} elements, template needs {total}")
    out: List[np.ndarray] = []
    offset = 0
    for a in template:
        chunk = flat[offset : offset + a.size]
        out.append(chunk.reshape(a.shape))
        offset += a.size
    return out


def zeros_like_flat(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """A flat zero vector sized to hold every array in ``arrays``."""
    total = sum(a.size for a in arrays)
    dtype = arrays[0].dtype if arrays else np.float32
    return np.zeros(total, dtype=dtype)


# ---------------------------------------------------------------------------
# Tree (list-of-arrays) arithmetic.  These mutate or allocate explicitly and
# never loop over elements — each op is a handful of BLAS/ufunc calls.
# ---------------------------------------------------------------------------

def _check_match(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> None:
    if len(xs) != len(ys):
        raise ValueError(f"tree length mismatch: {len(xs)} vs {len(ys)}")


def tree_axpy(alpha: float, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> None:
    """In-place ``ys += alpha * xs`` (BLAS axpy semantics, per layer)."""
    _check_match(xs, ys)
    for x, y in zip(xs, ys):
        y += alpha * x


def tree_scale(alpha: float, xs: Sequence[np.ndarray]) -> None:
    """In-place ``xs *= alpha``."""
    for x in xs:
        x *= alpha


def tree_sub(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Allocating ``xs - ys``."""
    _check_match(xs, ys)
    return [x - y for x, y in zip(xs, ys)]


def tree_add(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Allocating ``xs + ys``."""
    _check_match(xs, ys)
    return [x + y for x, y in zip(xs, ys)]


def tree_copy(xs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Deep copy of a parameter tree."""
    return [np.array(x, copy=True) for x in xs]


def tree_dot(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> float:
    """Inner product over the whole tree."""
    _check_match(xs, ys)
    total = 0.0
    for x, y in zip(xs, ys):
        total += float(np.dot(np.ravel(x), np.ravel(y)))
    return total


def tree_sq_norm(xs: Sequence[np.ndarray]) -> float:
    """Squared L2 norm over the whole tree."""
    total = 0.0
    for x in xs:
        xr = np.ravel(x)
        total += float(np.dot(xr, xr))
    return total
