"""Byzantine-robust aggregation rules over the stacked ``(K, P)`` matrix.

``Server.apply_updates`` only screens *non-finite* updates: a single
adversarial-but-finite client (a sign-flipped or scaled model) poisons the
weighted mean unchecked.  This module supplies drop-in replacements for that
mean with bounded *breakdown points* — the fraction ``f/K`` of colluding
clients each rule tolerates before an adversary can move the aggregate
arbitrarily:

=====================  =====================================  ==============
rule                   idea                                   breakdown
=====================  =====================================  ==============
``mean``               weighted mean (Eq. 2, the default)     0
``coordinate_median``  per-coordinate median                  < K/2
``trimmed_mean``       drop ``floor(beta*K)`` extremes per    < beta*K
                       coordinate, average the rest
``norm_clip``          rescale update deltas to a norm cap    attenuates
                       (default: the cohort's median norm)    (no screening)
``norm_screen``        drop the ``f`` largest-norm deltas     f
``krum`` /             select the ``m`` vectors closest to    f  (needs
``multi_krum``         their ``K - f - 2`` nearest            K >= f + 3)
                       neighbours, average them
=====================  =====================================  ==============

Every rule consumes the pooled ``(K, P)`` float64 matrix from
:func:`~repro.fl.params.stack_updates`, built from the updates' cached
flat vectors — so a robust round costs one extra pass over memory the
server already touches (plus one ``K x K`` Gram GEMM for the Krum family).

Rules are *deterministic* (sorts are stable, ties break by row index), so
the repository's byte-identity contract — fixed seed => identical History
across serial/threaded/process executors and sync/semisync/async modes —
extends to robust runs (asserted in ``tests/test_params.py``).

Registry mirrors the sampler/executor/mode registries in
:mod:`repro.api.registry`::

    agg = build_aggregator("trimmed_mean", beta=0.25)
    new_flat, screened_ids = robust_aggregate(agg, updates, global_flat)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.aggregation import weighted_average_flat
from repro.fl.params import MatrixPool, stack_updates
from repro.fl.types import ClientUpdate

__all__ = [
    "RobustAggregator",
    "MeanAggregator",
    "CoordinateMedian",
    "TrimmedMean",
    "NormClip",
    "NormScreen",
    "MultiKrum",
    "available_aggregators",
    "build_aggregator",
    "register_aggregator",
    "robust_aggregate",
]


class RobustAggregator:
    """One aggregation rule over the stacked client matrix.

    Subclasses implement :meth:`reduce`; everything else (stacking,
    screening bookkeeping, the cast to the plane's dtype) lives in
    :func:`robust_aggregate` so rules stay pure matrix math.
    """

    #: registry name, e.g. "coordinate_median"
    name: str = "base"

    def reduce(
        self, mat: np.ndarray, weights: np.ndarray, global_flat: np.ndarray
    ) -> Tuple[np.ndarray, List[int]]:
        """Reduce the ``(K, P)`` float64 matrix to one ``(P,)`` vector.

        ``mat`` is pool scratch and may be modified in place; ``weights``
        are the raw (unnormalized) client sample counts; ``global_flat`` is
        the current global model as float64.  Returns the new flat model and
        the row indices that contributed (screening rules return a strict
        subset — the complement is reported as the round's screened ids).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class MeanAggregator(RobustAggregator):
    """The existing weighted mean (Eq. 2, the pinned row fold) behind the
    registry name ``"mean"`` — zero robustness, kept as the explicit
    baseline leg of the accuracy-under-attack bench."""

    name = "mean"

    def reduce(self, mat, weights, global_flat):
        return weighted_average_flat(mat, weights), list(range(mat.shape[0]))


class CoordinateMedian(RobustAggregator):
    """Coordinate-wise median: breakdown point just under K/2.

    Unweighted by design — a weighted median would let an adversary with a
    large declared sample count recover the very leverage the median
    removes.
    """

    name = "coordinate_median"

    def reduce(self, mat, weights, global_flat):
        return np.median(mat, axis=0), list(range(mat.shape[0]))


class TrimmedMean(RobustAggregator):
    """Coordinate-wise ``beta``-trimmed mean: sort each coordinate, drop the
    ``floor(beta*K)`` smallest and largest entries, average the rest.
    Robust while the adversarial fraction stays below ``beta``."""

    name = "trimmed_mean"

    def __init__(self, beta: float = 0.1) -> None:
        if not 0.0 <= beta < 0.5:
            raise ValueError(f"trimmed_mean needs 0 <= beta < 0.5, got {beta}")
        self.beta = float(beta)

    def reduce(self, mat, weights, global_flat):
        k = mat.shape[0]
        cut = int(self.beta * k)
        if cut == 0:
            return mat.mean(axis=0), list(range(k))
        mat.sort(axis=0, kind="stable")  # scratch: sorting in place is fine
        return mat[cut : k - cut].mean(axis=0), list(range(k))


class NormClip(RobustAggregator):
    """Norm clipping: rescale each client's *delta* from the global model to
    at most ``tau`` before the weighted mean.  ``tau=None`` (default) uses
    the cohort's median delta norm, making the cap self-tuning: a scaled-up
    update is attenuated to honest magnitude instead of dropped."""

    name = "norm_clip"

    def __init__(self, tau: Optional[float] = None) -> None:
        if tau is not None and tau <= 0:
            raise ValueError("norm_clip tau must be positive when set")
        self.tau = tau

    def reduce(self, mat, weights, global_flat):
        if self.tau is None and mat.shape[0] == 1:
            # A lone row is its own median, so nothing is clipped; return it
            # as is (g + (x - g) is not x in floating point).
            return mat[0].copy(), [0]
        mat -= global_flat  # scratch: work on deltas in place
        norms = np.sqrt(np.einsum("kp,kp->k", mat, mat))
        tau = float(np.median(norms)) if self.tau is None else self.tau
        scale = np.minimum(1.0, tau / np.maximum(norms, np.finfo(np.float64).tiny))
        mat *= scale[:, None]
        return global_flat + weighted_average_flat(mat, weights), list(range(mat.shape[0]))


class NormScreen(RobustAggregator):
    """Norm screening: drop the ``f`` clients whose deltas from the global
    model have the largest L2 norm, then take the weighted mean of the
    survivors.  Ties break by row index (stable sort) for determinism."""

    name = "norm_screen"

    def __init__(self, f: int = 1) -> None:
        if f < 1:
            raise ValueError("norm_screen needs f >= 1 (clients to drop)")
        self.f = int(f)

    def reduce(self, mat, weights, global_flat):
        k = mat.shape[0]
        if self.f >= k:
            raise ValueError(
                f"norm_screen(f={self.f}) would drop every one of {k} clients"
            )
        deltas = mat - global_flat
        norms = np.sqrt(np.einsum("kp,kp->k", deltas, deltas))
        kept = sorted(np.argsort(norms, kind="stable")[: k - self.f].tolist())
        return (
            weighted_average_flat(mat[kept], weights[kept]),
            [int(i) for i in kept],
        )


class MultiKrum(RobustAggregator):
    """Krum / multi-Krum selection (Blanchard et al., NeurIPS 2017).

    Each client is scored by the sum of squared distances to its
    ``K - f - 2`` nearest neighbours; the ``m`` lowest-scoring vectors are
    averaged (weighted by sample count).  ``m=1`` is classical Krum — the
    aggregate *is* the single most-central client.  Requires ``K >= f + 3``
    so every score has at least one neighbour; tolerates ``f`` Byzantine
    clients provided they cannot form the majority cluster.  ``m=None``
    defaults to ``K - f`` at reduce time (average every presumed-honest
    client).
    """

    name = "multi_krum"

    def __init__(self, f: int = 1, m: Optional[int] = None) -> None:
        if f < 1:
            raise ValueError("multi_krum needs f >= 1 (faulty clients tolerated)")
        if m is not None and m < 1:
            raise ValueError("multi_krum needs m >= 1 when set")
        self.f = int(f)
        self.m = m

    def reduce(self, mat, weights, global_flat):
        k = mat.shape[0]
        n_neighbors = k - self.f - 2
        if n_neighbors < 1:
            raise ValueError(
                f"multi_krum(f={self.f}) needs at least f + 3 = {self.f + 3} "
                f"clients per round, got {k}"
            )
        m = min(k - self.f, k) if self.m is None else self.m
        if m > k:
            raise ValueError(f"multi_krum(m={m}) exceeds the {k} clients present")
        # Pairwise squared distances via one Gram GEMM: ||xi - xj||^2 =
        # ||xi||^2 + ||xj||^2 - 2 xi.xj.  K x K at K = cohort size.
        gram = mat @ mat.T
        sq = np.diag(gram)
        dist = np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)
        np.fill_diagonal(dist, np.inf)
        dist.sort(axis=1, kind="stable")
        scores = dist[:, :n_neighbors].sum(axis=1)
        kept = sorted(np.argsort(scores, kind="stable")[:m].tolist())
        return (
            weighted_average_flat(mat[kept], weights[kept]),
            [int(i) for i in kept],
        )


def robust_aggregate(
    aggregator: RobustAggregator,
    updates: Sequence[ClientUpdate],
    global_flat: np.ndarray,
    pool: Optional[MatrixPool] = None,
) -> Tuple[np.ndarray, List[int]]:
    """Run one robust rule over a batch of client updates.

    Stacks the updates' flat vectors into the pooled ``(K, P)`` float64
    matrix and hands it to ``aggregator.reduce`` together with the current
    global model ``global_flat``.  Returns ``(new_flat, screened_ids)``:
    the reduced ``(P,)`` vector in ``global_flat``'s dtype, and the client
    ids the rule excluded, sorted.
    """
    if not updates:
        raise ValueError("no client updates to aggregate")
    mat = stack_updates([u.flat_vector() for u in updates], pool=pool)
    if global_flat.size != mat.shape[1]:
        raise ValueError(
            f"global model has {global_flat.size} parameters, "
            f"updates have {mat.shape[1]}"
        )
    sample_weights = np.asarray([float(u.num_samples) for u in updates], np.float64)
    new_flat, kept = aggregator.reduce(mat, sample_weights, global_flat.astype(np.float64))
    kept_set = {int(i) for i in kept}
    screened = sorted(
        updates[i].client_id for i in range(len(updates)) if i not in kept_set
    )
    return new_flat.astype(global_flat.dtype), screened


# ---------------------------------------------------------------------------
# Registry (mirrors the sampler/executor/mode registries).
# ---------------------------------------------------------------------------

#: factory(**kwargs) -> RobustAggregator
AggregatorFactory = Callable[..., RobustAggregator]

_AGGREGATORS: Dict[str, AggregatorFactory] = {}


def register_aggregator(name: str, factory: AggregatorFactory) -> None:
    """Register (or replace) an aggregator factory under ``name``."""
    _AGGREGATORS[name.lower()] = factory


def available_aggregators() -> List[str]:
    return sorted(_AGGREGATORS)


def build_aggregator(name: str, **kwargs: Any) -> RobustAggregator:
    """Instantiate the aggregation rule registered under ``name``.

    ``kwargs`` are rule-specific (``beta=``, ``f=``, ``m=``, ``tau=``) and
    forwarded to the factory; an unknown name or a kwarg the rule does not
    accept raises ``ValueError``.
    """
    try:
        factory = _AGGREGATORS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown aggregator {name!r}; available: {available_aggregators()}"
        ) from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad arguments for aggregator {name!r}: {exc}") from None


register_aggregator("mean", MeanAggregator)
register_aggregator("coordinate_median", CoordinateMedian)
register_aggregator("trimmed_mean", TrimmedMean)
register_aggregator("norm_clip", NormClip)
register_aggregator("norm_screen", NormScreen)
register_aggregator("krum", lambda f=1: MultiKrum(f=f, m=1))
register_aggregator("multi_krum", MultiKrum)
