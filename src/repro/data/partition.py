"""Client data partitioners: IID, Dirichlet and orthogonal (Sec. V-A, Fig. 4).

* ``dirichlet``: each client draws a class-probability vector from
  ``Dir(alpha)`` and samples (without replacement) from per-class pools until
  its quota is filled — the paper's LEAF-style procedure.  ``alpha=0.1`` gives
  clients dominated by 1-2 classes; ``alpha=0.5`` gives 3-4.
* ``orthogonal``: clients are grouped into clusters; clusters own disjoint
  class sets; within a cluster data are IID.  ``Orthogonal-5`` on 10 classes
  gives every client 2 classes; ``Orthogonal-10`` gives 1.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "iid_partition",
    "dirichlet_partition",
    "orthogonal_partition",
    "make_partition",
    "check_n_clusters",
    "partition_label_counts",
    "PARTITIONERS",
]


def _class_pools(labels: np.ndarray, num_classes: int, rng: np.random.Generator) -> List[np.ndarray]:
    """Shuffled index pool per class."""
    pools = []
    for cls in range(num_classes):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        pools.append(idx)
    return pools


def _check_args(labels: np.ndarray, n_clients: int, samples_per_client: int) -> None:
    if n_clients <= 0 or samples_per_client <= 0:
        raise ValueError("n_clients and samples_per_client must be positive")
    if n_clients * samples_per_client > labels.shape[0]:
        raise ValueError(
            f"not enough data: need {n_clients * samples_per_client}, have {labels.shape[0]}"
        )


def check_n_clusters(n_clusters: int, num_classes: int) -> None:
    """Orthogonal clusters own disjoint, non-empty class sets."""
    if not 1 <= n_clusters <= num_classes:
        raise ValueError(f"n_clusters must be in [1, {num_classes}], got {n_clusters}")


def iid_partition(
    labels: np.ndarray,
    n_clients: int,
    samples_per_client: int,
    rng: np.random.Generator,
    num_classes: Optional[int] = None,  # accepted for dispatch symmetry
) -> List[np.ndarray]:
    """Uniformly random disjoint shards."""
    labels = np.asarray(labels)
    _check_args(labels, n_clients, samples_per_client)
    order = rng.permutation(labels.shape[0])
    return [
        np.sort(order[k * samples_per_client : (k + 1) * samples_per_client])
        for k in range(n_clients)
    ]


def dirichlet_partition(
    labels: np.ndarray,
    n_clients: int,
    samples_per_client: int,
    rng: np.random.Generator,
    alpha: float = 0.5,
    num_classes: Optional[int] = None,
) -> List[np.ndarray]:
    """Label-skewed shards via per-client Dirichlet class priors.

    Draws each client's target class histogram from a multinomial over its
    Dirichlet prior, then takes indices from per-class pools.  When a pool
    runs dry the residual demand is re-spread over classes that still have
    stock (weighted by the client's prior), so every client ends with exactly
    ``samples_per_client`` samples and no index is used twice.
    """
    labels = np.asarray(labels)
    _check_args(labels, n_clients, samples_per_client)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    c = int(num_classes) if num_classes is not None else int(labels.max()) + 1
    pools = _class_pools(labels, c, rng)
    cursor = np.zeros(c, dtype=np.int64)  # consumed count per class
    stock = np.array([p.size for p in pools], dtype=np.int64)
    shards: List[np.ndarray] = []
    for _ in range(n_clients):
        prior = rng.dirichlet(np.full(c, alpha))
        want = rng.multinomial(samples_per_client, prior)
        take = np.minimum(want, stock)
        deficit = samples_per_client - int(take.sum())
        while deficit > 0:
            remaining = stock - take
            open_classes = remaining > 0
            if not open_classes.any():
                raise RuntimeError("pool exhausted — _check_args should prevent this")
            weights = np.where(open_classes, np.maximum(prior, 1e-12), 0.0)
            weights /= weights.sum()
            extra = rng.multinomial(deficit, weights)
            extra = np.minimum(extra, remaining)
            take += extra
            deficit = samples_per_client - int(take.sum())
        chunks = []
        for cls in range(c):
            k = int(take[cls])
            if k:
                chunks.append(pools[cls][cursor[cls] : cursor[cls] + k])
                cursor[cls] += k
        stock -= take
        shards.append(np.sort(np.concatenate(chunks)))
    return shards


def orthogonal_partition(
    labels: np.ndarray,
    n_clients: int,
    samples_per_client: int,
    rng: np.random.Generator,
    n_clusters: int = 5,
    num_classes: Optional[int] = None,
) -> List[np.ndarray]:
    """Cluster-disjoint class ownership; IID inside each cluster.

    Classes are split round-robin over ``n_clusters`` groups, clients are
    assigned to clusters round-robin, and each client samples IID from its
    cluster's class pool.
    """
    labels = np.asarray(labels)
    _check_args(labels, n_clients, samples_per_client)
    c = int(num_classes) if num_classes is not None else int(labels.max()) + 1
    check_n_clusters(n_clusters, c)
    class_perm = rng.permutation(c)
    cluster_classes: List[np.ndarray] = [class_perm[g::n_clusters] for g in range(n_clusters)]
    pools = _class_pools(labels, c, rng)
    cursor = np.zeros(c, dtype=np.int64)
    shards: List[np.ndarray] = []
    for k in range(n_clients):
        classes = cluster_classes[k % n_clusters]
        # Even split of the quota across the cluster's classes (IID within).
        base = samples_per_client // classes.size
        rem = samples_per_client - base * classes.size
        order = rng.permutation(classes.size)
        chunks = []
        for j, cls_pos in enumerate(order):
            cls = int(classes[cls_pos])
            k_take = base + (1 if j < rem else 0)
            avail = pools[cls].size - cursor[cls]
            if avail < k_take:
                raise ValueError(
                    f"class {cls} pool exhausted under Orthogonal-{n_clusters}: "
                    f"reduce samples_per_client or n_clients"
                )
            chunks.append(pools[cls][cursor[cls] : cursor[cls] + k_take])
            cursor[cls] += k_take
        shards.append(np.sort(np.concatenate(chunks)))
    return shards


PARTITIONERS = {
    "iid": iid_partition,
    "dirichlet": dirichlet_partition,
    "orthogonal": orthogonal_partition,
}


def make_partition(
    kind: str,
    labels: np.ndarray,
    n_clients: int,
    samples_per_client: int,
    rng: np.random.Generator,
    **kwargs,
) -> List[np.ndarray]:
    """Dispatch by name: ``iid``, ``dirichlet`` (alpha=), ``orthogonal`` (n_clusters=)."""
    key = kind.lower()
    if key not in PARTITIONERS:
        raise KeyError(f"unknown partition kind {kind!r}; options: {sorted(PARTITIONERS)}")
    return PARTITIONERS[key](labels, n_clients, samples_per_client, rng, **kwargs)


def partition_label_counts(
    labels: np.ndarray, shards: Sequence[np.ndarray], num_classes: int
) -> np.ndarray:
    """Client-by-class label count matrix — the data behind Fig. 4."""
    labels = np.asarray(labels)
    out = np.zeros((len(shards), num_classes), dtype=np.int64)
    for k, shard in enumerate(shards):
        out[k] = np.bincount(labels[shard], minlength=num_classes)
    return out


def heterogeneity_summary(counts: np.ndarray) -> Dict[str, float]:
    """Simple skewness diagnostics of a partition (mean #classes per client,
    normalized entropy) used in tests and the Fig. 4 bench output."""
    present = (counts > 0).sum(axis=1)
    probs = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.nansum(np.where(probs > 0, probs * np.log(probs), 0.0), axis=1)
    max_ent = np.log(counts.shape[1])
    return {
        "mean_classes_per_client": float(present.mean()),
        "mean_normalized_entropy": float((ent / max_ent).mean()) if max_ent > 0 else 0.0,
    }
