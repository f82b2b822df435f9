"""Population-scale federation: millions of clients without client objects.

The eager engine materializes one :class:`~repro.fl.client.Client` per
participant at construction — an object, a dataset shard and a strategy
state dict each, i.e. O(N) memory and O(N) startup work even though only a
K-client cohort trains per round.  That is fine at the paper's N=64 and
impossible at the ROADMAP's N=10⁶.  This module replaces the eager roster
with three pieces, all O(K)-per-round:

* :class:`Population` — the virtual id space.  ``population.size`` client
  ids exist; each maps onto one of ``n_shards`` concrete data shards
  (``shard_of = id % n_shards``), so a bounded dataset emulates an
  unbounded fleet the way production traffic replays a finite corpus.
* :class:`PopulationSampler` — samples a K-cohort of distinct ids per
  round in O(K) work and memory.  ``numpy``'s ``choice(N, K,
  replace=False)`` may build an O(N) permutation, which would make
  rounds/sec *grow* with population size; rejection sampling keeps the
  cost a function of K only (collisions are vanishingly rare at K ≪ N,
  and small populations fall back to ``choice``).
* :class:`ClientDirectory` — a lazy, thread-safe drop-in for the engine's
  client list: ``directory[client_id]`` materializes the client on first
  touch (dataset shard cached per shard, strategy state from the
  strategy's factory) and never iterates the population.  Determinism
  does not depend on materialization order: a client's RNG is keyed by
  ``(seed, client_id)`` (see :class:`~repro.fl.client.Client`), so the
  lazy roster is byte-identical to the eager one.

Per-client strategy state (SCAFFOLD's ``c_k``, FedDyn's ``h_k`` — one
(P,) flat each) is the other O(N x P) hazard.  :class:`FlatStateArena`
interns those flats: small totals stay on the heap; past a configurable
threshold new state lands in bump-allocated ``np.memmap`` temp-file
arenas, so a long-running simulation's touched-client state is disk-backed
and evictable instead of pinned RSS.  The directory routes every state
adoption through a stable per-``(client, key)`` slot — round N+1's values
are copied *into* round N's buffer — so state storage is allocated once
per touched client no matter how many rounds run, and strategies that
rebind fresh arrays each round (SCAFFOLD) cannot leak slots.  Arena slots
are plain ``np.ndarray`` views (not ``np.memmap`` instances), so they
pickle by value and survive worker-process round trips unchanged.
"""

from __future__ import annotations

import copy
import os
import tempfile
import threading
from typing import Any, Dict, List, Optional

import numpy as np

from repro.data.federated import FederatedData
from repro.fl.client import Client
from repro.utils.rng import RngStream

__all__ = [
    "ClientDirectory",
    "FlatStateArena",
    "Population",
    "PopulationSampler",
]


class Population:
    """A virtual client id space of ``size`` ids over ``n_shards`` data shards.

    Ids are ``[0, size)``; id ``i`` reads data shard ``i % n_shards``.
    The population carries no per-id storage — it is pure arithmetic, which
    is what makes ``size = 10**6`` free.
    """

    def __init__(self, size: int, n_shards: int) -> None:
        size = int(size)
        n_shards = int(n_shards)
        if size < 1:
            raise ValueError(f"population size must be >= 1, got {size}")
        if not 1 <= n_shards <= size:
            raise ValueError(
                f"need 1 <= n_shards <= population size, got n_shards={n_shards} "
                f"for size={size}"
            )
        self.size = size
        self.n_shards = n_shards

    def shard_of(self, client_id: int) -> int:
        """The concrete data shard behind a virtual client id."""
        if not 0 <= client_id < self.size:
            raise ValueError(
                f"client id {client_id} outside population [0, {self.size})"
            )
        return int(client_id) % self.n_shards

    def describe(self) -> Dict[str, int]:
        return {"size": self.size, "n_shards": self.n_shards}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Population(size={self.size}, n_shards={self.n_shards})"


class PopulationSampler:
    """K distinct ids per round from a :class:`Population`, in O(K).

    Rejection sampling: draw K ids uniformly with replacement, keep the
    distinct ones in draw order, redraw for the shortfall.  Expected extra
    draws are ~K²/N, i.e. negligible in the K ≪ N regime this sampler
    exists for.  Dense populations (K more than half of N) fall back to
    ``choice`` — rejection would thrash exactly where the permutation is
    cheap anyway.  Selection is seeded per round and independent of any
    engine state, so every executor sees the same cohorts.
    """

    def __init__(self, population: Population, clients_per_round: int, seed: int = 0) -> None:
        if not 1 <= clients_per_round <= population.size:
            raise ValueError(
                f"need 1 <= clients_per_round <= population size, got "
                f"{clients_per_round} of {population.size}"
            )
        self.population = population
        self.n_clients = population.size
        self.clients_per_round = int(clients_per_round)
        self._root = RngStream(seed).child("population-sampler")

    def select(self, round_idx: int) -> List[int]:
        rng = self._root.child(round_idx).generator
        n, k = self.n_clients, self.clients_per_round
        if k * 2 >= n:
            picks = rng.choice(n, size=k, replace=False)
            return sorted(int(p) for p in picks)
        chosen: set = set()
        while len(chosen) < k:
            for v in rng.integers(0, n, size=k - len(chosen)):
                chosen.add(int(v))
        return sorted(chosen)

    @property
    def participation_rate(self) -> float:
        """p = K/N over the *population*, the quantity driving E[xi]."""
        return self.clients_per_round / self.n_clients


class FlatStateArena:
    """Interning store for per-client flat strategy state.

    ``intern`` accepts any value; 1-D arrays of at least
    ``min_intern_elems`` elements are *interned*: counted against the heap
    budget while total interned bytes stay below ``threshold_bytes``, and
    copied into bump-allocated ``np.memmap`` temp-file chunks above it.
    Everything else passes through untouched.  ``threshold_bytes=0`` maps
    from the first intern (tests force the mmap path this way); ``None``
    never maps.

    Chunk files are unlinked immediately after mapping — the pages live as
    long as the mapping does, and nothing is left behind if the process
    dies.  Returned slots are ``np.ndarray`` views of the mapping (not
    ``np.memmap`` instances), writable in place and pickled by value.
    """

    #: flats below this many elements are not worth a slot
    DEFAULT_MIN_ELEMS = 256

    def __init__(
        self,
        threshold_bytes: Optional[int] = 64 << 20,
        chunk_bytes: int = 8 << 20,
        min_intern_elems: int = DEFAULT_MIN_ELEMS,
        dir: Optional[str] = None,
    ) -> None:
        if threshold_bytes is not None and threshold_bytes < 0:
            raise ValueError("threshold_bytes must be >= 0 or None")
        if chunk_bytes < 1:
            raise ValueError("chunk_bytes must be >= 1")
        self._threshold = threshold_bytes
        self._chunk_bytes = int(chunk_bytes)
        self._min_elems = int(min_intern_elems)
        self._dir = dir
        self._chunks: List[np.memmap] = []
        self._offset = 0  # bump pointer into the newest chunk
        self._heap_bytes = 0
        self._mapped_bytes = 0
        self._n_slots = 0

    # -- allocation ----------------------------------------------------
    def _alloc(self, nbytes: int, dtype: np.dtype) -> np.ndarray:
        # 64-byte slot alignment: keeps every dtype's natural alignment and
        # cache-line-aligns the folds that read these slots.
        offset = (self._offset + 63) & ~63
        if not self._chunks or offset + nbytes > self._chunks[-1].shape[0]:
            size = max(self._chunk_bytes, nbytes)
            fd, path = tempfile.mkstemp(prefix="repro-state-arena-", suffix=".bin",
                                        dir=self._dir)
            os.close(fd)
            chunk = np.memmap(path, dtype=np.uint8, mode="w+", shape=(size,))
            os.unlink(path)
            self._chunks.append(chunk)
            self._mapped_bytes += size
            offset = 0
        raw = self._chunks[-1][offset : offset + nbytes]
        self._offset = offset + nbytes
        return raw.view(dtype=dtype, type=np.ndarray)

    # -- public API ----------------------------------------------------
    def intern(self, value: Any) -> Any:
        """Adopt ``value`` into the arena; returns the stored (or original)
        object.  Only 1-D ndarrays of >= ``min_intern_elems`` elements are
        interned; the returned array always holds the same bytes as the
        input."""
        if not isinstance(value, np.ndarray) or value.ndim != 1:
            return value
        if value.size < self._min_elems:
            return value
        if self._threshold is None or self._heap_bytes + value.nbytes <= self._threshold:
            self._heap_bytes += value.nbytes
            self._n_slots += 1
            return np.ascontiguousarray(value)
        slot = self._alloc(value.nbytes, value.dtype)
        slot[:] = value
        self._n_slots += 1
        return slot

    def stats(self) -> Dict[str, int]:
        return {
            "heap_bytes": self._heap_bytes,
            "mapped_bytes": self._mapped_bytes,
            "n_slots": self._n_slots,
            "n_chunks": len(self._chunks),
        }

    def close(self) -> None:
        """Drop every mapping (the unlinked backing files disappear with
        them) and reset the accounting."""
        self._chunks.clear()
        self._offset = 0
        self._heap_bytes = 0
        self._mapped_bytes = 0
        self._n_slots = 0


class ClientDirectory:
    """Lazy client roster over a :class:`Population` — a drop-in for the
    engine's client list that only supports what the round loop uses:
    ``directory[client_id]`` and per-client state adoption.

    Clients materialize on first index, under a lock (a library caller may
    touch the roster from its own threads); each data shard is built once
    and shared by every virtual client mapped onto it.  Strategy state
    comes from ``state_factory(client_id)`` at materialization and is
    routed through the :class:`FlatStateArena`; :meth:`adopt_state` is the
    write path the engine uses after each round — it copies new values into
    the client's existing per-key slots, so state memory is stable across
    rounds and identical across executors (worker processes return value
    copies; copying them into the slot preserves the bytes).
    """

    def __init__(
        self,
        population: Population,
        data: FederatedData,
        seed: int = 0,
        state_factory=None,
        arena: Optional[FlatStateArena] = None,
    ) -> None:
        if population.n_shards != data.n_clients:
            raise ValueError(
                f"population maps onto {population.n_shards} shards but data "
                f"has {data.n_clients}"
            )
        self.population = population
        self.data = data
        self.seed = seed
        self.arena = arena if arena is not None else FlatStateArena()
        self._state_factory = state_factory
        self._clients: Dict[int, Client] = {}
        self._shards: Dict[int, Any] = {}
        self._slots: Dict[tuple, np.ndarray] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.population.size

    def __getitem__(self, client_id: int) -> Client:
        client = self._clients.get(client_id)
        if client is not None:
            return client
        with self._lock:
            client = self._clients.get(client_id)
            if client is not None:  # pragma: no cover - double-checked race
                return client
            shard_id = self.population.shard_of(client_id)
            shard = self._shards.get(shard_id)
            if shard is None:
                shard = self._shards[shard_id] = self.data.client_dataset(shard_id)
            client = Client(client_id, shard, seed=self.seed)
            if self._state_factory is not None:
                client.state = {
                    key: self._adopt_value(client_id, key, value)
                    for key, value in self._state_factory(client_id).items()
                }
            self._clients[client_id] = client
            return client

    def _adopt_value(self, client_id: int, key: str, value: Any) -> Any:
        if not isinstance(value, np.ndarray):
            return value
        slot = self._slots.get((client_id, key))
        if slot is not None and slot.shape == value.shape and slot.dtype == value.dtype:
            if slot is not value:
                slot[...] = value
            return slot
        stored = self.arena.intern(value)
        if isinstance(stored, np.ndarray):
            self._slots[(client_id, key)] = stored
        return stored

    def adopt_state(self, client_id: int, state: Dict[str, Any]) -> None:
        """Adopt a post-round state dict for ``client_id``, reusing the
        client's existing arena slots wherever shapes/dtypes match."""
        client = self[client_id]
        with self._lock:
            client.state = {
                key: self._adopt_value(client_id, key, value)
                for key, value in state.items()
            }

    @property
    def materialized(self) -> int:
        """How many clients have actually been built — the number the
        memory ceiling scales with (O(touched), never O(population))."""
        return len(self._clients)

    def state_snapshot(self) -> Dict[int, Dict[str, Any]]:
        """Deep copies of every materialized client's state dict, keyed by
        client id — the directory's contribution to an engine snapshot.
        Untouched clients have no state yet (their factory state is
        deterministic), so O(touched) is also the full resume payload."""
        with self._lock:
            return {
                cid: copy.deepcopy(client.state)
                for cid, client in sorted(self._clients.items())
            }

    def close(self) -> None:
        self._clients.clear()
        self._shards.clear()
        self._slots.clear()
        self.arena.close()
