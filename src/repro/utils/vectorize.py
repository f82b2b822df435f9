"""Flat-vector and list-of-arrays ("tree") conversions over model parameters.

A model state is either a single flat ``float64``/``float32`` vector or a
list of per-layer arrays in a fixed layer order (the "tree").  These helpers
move between the two and copy a tree.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

__all__ = [
    "flatten_arrays",
    "unflatten_like",
    "tree_copy",
]


def flatten_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate a sequence of arrays into one flat 1-D vector."""
    if not arrays:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate([np.ravel(a) for a in arrays])


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


def tree_copy(xs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Deep copy of a parameter tree."""
    return [np.array(x, copy=True) for x in xs]
