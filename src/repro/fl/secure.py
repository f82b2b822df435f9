"""Secure aggregation simulation (Bonawitz et al., CCS 2017, simplified).

The paper's introduction motivates FL with privacy: raw data never leaves
the client.  Secure aggregation strengthens this so the *server* only sees
the sum of client updates, never an individual one.  This module simulates
the pairwise-masking protocol:

* every pair of clients (i < j) derives a shared mask ``m_ij`` from a
  common seed; client i adds ``+m_ij``, client j adds ``-m_ij``;
* each client uploads ``w_k + sum_j s_kj * m_kj`` (masked, individually
  useless);
* the server sums the uploads; all masks cancel exactly, recovering
  ``sum_k w_k``.

The simulation checks the two properties that matter — masked uploads are
(statistically) uninformative, and the aggregate is exact up to float
error — without implementing the key-agreement/dropout-recovery machinery
of the full protocol (out of scope; no adversary model here).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fl.params import as_flat
from repro.utils.rng import RngStream
from repro.utils.vectorize import unflatten_like

__all__ = ["PairwiseMasker", "secure_sum"]


class PairwiseMasker:
    """Derives cancelling pairwise masks for a fixed client cohort.

    Masks are regenerated per round from ``(seed, round, i, j)``, so both
    members of a pair derive identical masks without communication (the
    stand-in for the Diffie-Hellman agreement of the real protocol).

    ``scale`` sets the mask standard deviation; it should dominate the
    update magnitude for the masking to hide anything (asserted in tests,
    not enforced here).
    """

    def __init__(self, seed: int = 0, scale: float = 100.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self._root = RngStream(seed).child("secure-agg")
        self.scale = float(scale)

    def _pair_rng(self, round_idx: int, i: int, j: int) -> np.random.Generator:
        lo, hi = (i, j) if i < j else (j, i)
        return self._root.child(round_idx, lo, hi).generator

    def mask_update(
        self,
        client_id: int,
        cohort: Sequence[int],
        round_idx: int,
        update: Sequence[np.ndarray],
    ) -> List[np.ndarray]:
        """Return the client's masked upload.

        One mask draw + one fused axpy per pair on the whole parameter
        vector.
        """
        if client_id not in cohort:
            raise ValueError(f"client {client_id} not in cohort {list(cohort)}")
        flat = as_flat(update)
        for other in cohort:
            if other == client_id:
                continue
            rng = self._pair_rng(round_idx, client_id, other)
            sign = 1.0 if client_id < other else -1.0
            flat += (sign * self.scale) * rng.standard_normal(flat.size).astype(flat.dtype)
        return unflatten_like(flat, update)

    def unmask_sum(
        self, masked_uploads: Dict[int, Sequence[np.ndarray]], round_idx: int
    ) -> List[np.ndarray]:
        """Sum the uploads; pairwise masks cancel, no unmasking key needed.

        (Named for symmetry with the real protocol, where dropout recovery
        would reconstruct missing masks here.)
        """
        if not masked_uploads:
            raise ValueError("no uploads")
        uploads = list(masked_uploads.values())
        total = as_flat(uploads[0])
        for upload in uploads[1:]:
            total += as_flat(upload)
        return unflatten_like(total, uploads[0])


def secure_sum(
    updates: Dict[int, Sequence[np.ndarray]],
    round_idx: int = 0,
    seed: int = 0,
    scale: float = 100.0,
) -> Tuple[List[np.ndarray], Dict[int, List[np.ndarray]]]:
    """One-shot helper: mask every client's update and return
    ``(exact_sum, masked_uploads)``.

    The returned sum equals ``sum(updates.values())`` up to float32
    cancellation error (~``scale * sqrt(pairs) * 1e-7`` per element).
    """
    cohort = sorted(updates)
    masker = PairwiseMasker(seed=seed, scale=scale)
    masked = {
        cid: masker.mask_update(cid, cohort, round_idx, upd)
        for cid, upd in updates.items()
    }
    return masker.unmask_sum(masked, round_idx), masked
