"""Deterministic random-number-generator management.

Federated-learning experiments are notoriously sensitive to seeding: client
selection, data partitioning, weight initialisation and batch shuffling each
need an *independent* stream so that, e.g., changing the number of rounds does
not perturb the data partition.  We use :class:`numpy.random.Generator`
instances spawned from named child seeds of one root ``SeedSequence``.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Dict, Iterable

import numpy as np

__all__ = ["RngStream", "spawn_rngs", "seed_everything"]


@functools.lru_cache(maxsize=4096)
def _name_to_entropy(name: str) -> int:
    """Map a stream name to a stable 64-bit integer via blake2b (memoised:
    names like ``"round"`` or ``"batches"`` recur on every task)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _hash_path(path: tuple) -> tuple:
    return tuple(_name_to_entropy(str(p)) for p in path)


class RngStream:
    """A named tree of independent :class:`numpy.random.Generator` streams.

    Example
    -------
    >>> root = RngStream(seed=0)
    >>> init_rng = root.child("init")
    >>> data_rng = root.child("data")
    >>> client3 = root.child("client", 3)

    Children are derived from ``(seed, name, *indices)`` only, so two
    ``RngStream(0).child("data")`` calls always yield identical streams,
    regardless of what else was drawn in between.

    A node's ``SeedSequence`` entropy is ``[seed, h(p0), h(p1), ...]`` over
    its whole path; a child extends its parent's entropy tuple by the new
    elements' hashes only, and nothing is seeded until :attr:`generator`
    is first read, so intermediate nodes cost one tuple each.
    """

    def __init__(self, seed: int = 0, _path: tuple = (), _entropy: tuple = ()) -> None:
        self.seed = int(seed)
        self._path = _path
        self._entropy = _entropy or (self.seed,) + _hash_path(_path)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The lazily created generator for this node."""
        if self._generator is None:
            self._generator = np.random.default_rng(
                np.random.SeedSequence(list(self._entropy)))
        return self._generator

    def child(self, *path) -> "RngStream":
        """Derive an independent child stream keyed by ``path``."""
        if not path:
            raise ValueError("child() requires at least one path element")
        return RngStream(self.seed, self._path + path, self._entropy + _hash_path(path))

    # Convenience passthroughs ------------------------------------------------
    def integers(self, *args, **kwargs):
        return self.generator.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self.generator.random(*args, **kwargs)

    def normal(self, *args, **kwargs):
        return self.generator.normal(*args, **kwargs)

    def standard_normal(self, *args, **kwargs):
        return self.generator.standard_normal(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        return self.generator.permutation(*args, **kwargs)

    def choice(self, *args, **kwargs):
        return self.generator.choice(*args, **kwargs)

    def dirichlet(self, *args, **kwargs):
        return self.generator.dirichlet(*args, **kwargs)

    def shuffle(self, *args, **kwargs):
        return self.generator.shuffle(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.generator.uniform(*args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, path={self._path})"


def spawn_rngs(seed: int, names: Iterable[str]) -> Dict[str, np.random.Generator]:
    """Spawn one independent generator per name from a single seed."""
    root = RngStream(seed)
    return {name: root.child(name).generator for name in names}


def seed_everything(seed: int) -> RngStream:
    """Create the root stream for an experiment.

    NumPy's legacy global RNG is also seeded for any third-party code that
    still uses ``np.random.*`` directly; library code in this repo never does.
    """
    np.random.seed(seed % (2**32))
    return RngStream(seed)
