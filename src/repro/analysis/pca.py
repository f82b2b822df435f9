"""Principal component analysis via thin SVD (used for t-SNE init & figures)."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["pca"]


def pca(x: np.ndarray, n_components: int = 2) -> Tuple[np.ndarray, np.ndarray]:
    """Project rows of ``x`` onto the top principal components.

    Returns ``(projected, explained_variance_ratio)``.  Uses NumPy's thin
    SVD (``full_matrices=False``) — the full SVD of an
    (n, d) feature matrix would be needlessly cubic.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    n, d = x.shape
    k = min(n_components, n, d)
    centered = x - x.mean(axis=0)
    u, s, _vt = np.linalg.svd(centered, full_matrices=False)
    var = s**2
    ratio = var[:k] / max(var.sum(), 1e-12)
    return u[:, :k] * s[:k], ratio
