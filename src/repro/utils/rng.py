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


def _int_words(value: int) -> tuple:
    """``value`` as the little-endian 32-bit words ``SeedSequence`` coerces
    an int entry of its entropy list into (``0`` is the one word ``0``)."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    if value == 0:
        return (0,)
    words = []
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return tuple(words)


@functools.lru_cache(maxsize=4096)
def _name_words(name: str) -> tuple:
    """A stream name's stable 64-bit blake2b hash, as entropy words
    (memoised: names like ``"round"`` or ``"batches"`` recur on every task)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return _int_words(int.from_bytes(digest, "little"))


def _path_words(path: tuple) -> tuple:
    return sum((_name_words(str(p)) for p in path), ())


def _seeded(words: tuple) -> np.random.Generator:
    """What ``default_rng(SeedSequence(ints))`` builds, from the ints' words."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array(words, dtype=np.uint32))))


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
    its whole path.  It is held as the uint32 words ``SeedSequence`` would
    coerce that int list into (each int's little-endian 32-bit words, so
    the seeding is the same bit for bit), which spares NumPy the per-int
    coercion.  A child extends its parent's words by the new elements' only,
    and nothing is seeded until :attr:`generator` is first read, so
    intermediate nodes cost one tuple each.  A negative seed raises
    ``SeedSequence``'s own ``ValueError`` at construction.
    """

    def __init__(self, seed: int = 0, _path: tuple = (), _words: tuple = ()) -> None:
        self.seed = int(seed)
        self._path = _path
        self._words = _words or _int_words(self.seed) + _path_words(_path)
        self._generator: np.random.Generator | None = None

    @property
    def generator(self) -> np.random.Generator:
        """The lazily created generator for this node."""
        if self._generator is None:
            self._generator = _seeded(self._words)
        return self._generator

    def child_generator(self, *path) -> np.random.Generator:
        """``child(*path).generator`` without building the child node, for
        one-shot streams such as a client's per-round batch order."""
        if not path:
            raise ValueError("child() requires at least one path element")
        return _seeded(self._words + _path_words(path))

    def child(self, *path) -> "RngStream":
        """Derive an independent child stream keyed by ``path``."""
        if not path:
            raise ValueError("child() requires at least one path element")
        return RngStream(self.seed, self._path + path, self._words + _path_words(path))

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
