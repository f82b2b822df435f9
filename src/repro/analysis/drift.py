"""Client-drift diagnostics: the quantitative counterpart of Fig. 1.

The paper's Fig. 1 illustrates update inconsistency under non-IID data.
These metrics measure it on real runs:

* :func:`update_divergence` — mean pairwise L2 distance between client
  updates in one round (how far clients disagree);
* :func:`update_cosine_consistency` — mean pairwise cosine similarity of
  client update directions (1 = perfectly consistent, the IID ideal);
* :func:`drift_from_global` — per-client displacement norm from the global
  model;
* :class:`DriftTracker` — a small observer that accumulates these per
  round from the client updates the simulation produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.fl.types import ClientUpdate
from repro.utils.vectorize import flatten_arrays

__all__ = [
    "update_divergence",
    "update_cosine_consistency",
    "drift_from_global",
    "DriftTracker",
]


def _update_vectors(
    updates: Sequence[ClientUpdate], global_weights: Sequence[np.ndarray]
) -> np.ndarray:
    """Stack each client's flat displacement ``w_k - w_glob``: (K, |w|)."""
    if not updates:
        raise ValueError("no updates")
    g = flatten_arrays(global_weights)
    return np.stack([flatten_arrays(u.weights) - g for u in updates])


def update_divergence(
    updates: Sequence[ClientUpdate], global_weights: Sequence[np.ndarray]
) -> float:
    """Mean pairwise L2 distance between client updates."""
    vecs = _update_vectors(updates, global_weights)
    k = vecs.shape[0]
    if k < 2:
        return 0.0
    sq = np.sum(vecs * vecs, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vecs @ vecs.T)
    d = np.sqrt(np.maximum(d2, 0.0))
    return float(d[np.triu_indices(k, 1)].mean())


def update_cosine_consistency(
    updates: Sequence[ClientUpdate], global_weights: Sequence[np.ndarray]
) -> float:
    """Mean pairwise cosine similarity of client update directions."""
    vecs = _update_vectors(updates, global_weights)
    k = vecs.shape[0]
    if k < 2:
        return 1.0
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    unit = vecs / np.maximum(norms, 1e-12)
    sims = unit @ unit.T
    return float(sims[np.triu_indices(k, 1)].mean())


def drift_from_global(
    updates: Sequence[ClientUpdate], global_weights: Sequence[np.ndarray]
) -> Dict[int, float]:
    """Per-client L2 displacement from the global model."""
    vecs = _update_vectors(updates, global_weights)
    return {
        u.client_id: float(np.linalg.norm(v)) for u, v in zip(updates, vecs)
    }


@dataclass
class DriftTracker:
    """Accumulates per-round drift metrics.

    Usage with a :class:`~repro.api.engine.Engine`::

        tracker = DriftTracker()
        tracker.attach(sim)      # registers as an update observer
        sim.run()
        print(tracker.summary())
    """

    divergence: List[float] = field(default_factory=list)
    consistency: List[float] = field(default_factory=list)
    mean_drift: List[float] = field(default_factory=list)

    def attach(self, simulation) -> "DriftTracker":
        """Register on a simulation's per-round update-observer hook."""
        simulation.update_observers.append(self.observe)
        return self

    def observe(
        self, updates: Sequence[ClientUpdate], global_weights: Sequence[np.ndarray]
    ) -> None:
        self.divergence.append(update_divergence(updates, global_weights))
        self.consistency.append(update_cosine_consistency(updates, global_weights))
        drifts = drift_from_global(updates, global_weights)
        self.mean_drift.append(float(np.mean(list(drifts.values()))))

    def summary(self) -> Dict[str, float]:
        if not self.divergence:
            raise ValueError("no rounds observed")
        return {
            "mean_divergence": float(np.mean(self.divergence)),
            "mean_consistency": float(np.mean(self.consistency)),
            "mean_drift": float(np.mean(self.mean_drift)),
            "rounds": len(self.divergence),
        }
