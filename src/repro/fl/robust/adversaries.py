"""Deterministic Byzantine adversary models for accuracy-under-attack runs.

An :class:`Adversary` owns a *roster* — the subset of clients that behave
maliciously, drawn once from the experiment seed — and two hooks:

* :meth:`Adversary.poison_clients` corrupts a client's *data* before
  training starts (``label_flip``).
* :meth:`Adversary.corrupt_update` rewrites a client's *update* at upload
  time.  It is called from :func:`repro.fl.executor.execute_task`, the one
  code path every backend shares, so the same corruption lands whether the
  round ran on the serial executor or the worker-process fleet and whether
  the server is sync, semisync or async — a precondition for the
  byte-identity contract.

Determinism: the roster and every noise draw come from named
:class:`~repro.utils.rng.RngStream` children of ``(seed, "adversary", ...)``
keyed by client id and round index — never from call order — so results are
identical across executors, and an adversary object crossing the process
boundary (inside ``WorkerSpec``) only carries plain ints/floats.

Built-in models (``w`` = the honest local model, ``g`` = the global model
the round started from, ``d = w - g`` the honest delta):

================  ==========================================================
``sign_flip``     submit ``g - gamma * d`` — walk *against* the honest
                  direction, ``gamma`` scaling the reversed step
``scale``         submit ``g + gamma * d`` — the honest direction amplified
                  (a model-replacement / boosting attack)
``gauss_noise``   submit ``w + sigma * z``, fresh ``z ~ N(0, I)`` per
                  client per round
``label_flip``    train honestly on a poisoned shard with labels mapped to
                  ``num_classes - 1 - y`` (data poisoning; the update
                  itself is untouched)
``collude``       all adversaries submit one *identical* crafted vector
                  ``g + gamma * z / ||z||`` (fresh ``z`` per round) —
                  defeats distance-based rules that assume outliers are
                  isolated, the stress case for Krum's ``f`` bound
================  ==========================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.fl.types import ClientUpdate
from repro.utils.rng import RngStream

__all__ = [
    "Adversary",
    "SignFlip",
    "Scale",
    "GaussNoise",
    "LabelFlip",
    "Collude",
    "available_adversaries",
    "build_adversary",
    "register_adversary",
]


def adversary_roster(n_clients: int, fraction: float, seed: int) -> Tuple[int, ...]:
    """The sorted client ids acting maliciously for ``(n_clients, fraction,
    seed)`` — a deterministic function of exactly those three values."""
    count = int(fraction * n_clients + 1e-9)
    if count == 0:
        return ()
    rng = RngStream(seed).child("adversary", "roster").generator
    ids = rng.choice(n_clients, size=count, replace=False)
    return tuple(sorted(int(i) for i in ids))


class Adversary:
    """Base adversary: roster bookkeeping plus identity hooks.

    Instances are shipped inside ``WorkerSpec`` and must stay
    picklable: hold plain numbers, derive generators fresh per call.
    """

    name: str = "base"

    def __init__(self, *, n_clients: int, fraction: float, seed: int) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"adversary fraction must be in (0, 1], got {fraction}")
        self.n_clients = int(n_clients)
        self.fraction = float(fraction)
        self.seed = int(seed)
        self.ids: Tuple[int, ...] = adversary_roster(n_clients, fraction, seed)

    def is_adversary(self, client_id: int) -> bool:
        return client_id in self.ids

    def _rng(self, *path) -> np.random.Generator:
        """Fresh generator keyed by ``(seed, "adversary", name, *path)``."""
        return RngStream(self.seed).child("adversary", self.name, *path).generator

    def poison_clients(self, clients: Sequence, num_classes: int) -> None:
        """Corrupt adversarial clients' datasets in place (default: no-op).

        Called once at engine construction *and* once per worker process
        (``build_worker_half`` rebuilds clients from the dataset), so it must be
        a pure function of the client's shard — not of call count.
        """

    def corrupt_update(
        self,
        update: ClientUpdate,
        round_idx: int,
        global_flat: np.ndarray,
        global_weights: Sequence[np.ndarray],
    ) -> ClientUpdate:
        """Rewrite an adversarial client's update at upload time.

        Only called for clients in the roster.  Default: identity (data
        poisoners train honestly on poisoned shards).
        """
        return update

    # -- shared machinery for update-rewriting attacks ---------------------

    def _rewrite(
        self,
        update: ClientUpdate,
        global_flat: np.ndarray,
        fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> ClientUpdate:
        """Apply ``fn(w_f64, g_f64) -> crafted_f64`` and rebuild the update.

        Computes in float64, casts back to the model dtype, and preserves
        all metadata (sample count, loss, extras, cost counters) so the
        crafted update is indistinguishable from an honest one everywhere
        except its parameter values.
        """
        flat = update.flat_vector()
        crafted = fn(flat.astype(np.float64), global_flat.astype(np.float64))
        return ClientUpdate.from_flat(
            crafted.astype(flat.dtype),
            [tuple(np.shape(a)) for a in update.weights],
            client_id=update.client_id,
            num_samples=update.num_samples,
            train_loss=update.train_loss,
            extras=update.extras,
            flops=update.flops,
            comm_bytes=update.comm_bytes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(n_clients={self.n_clients}, "
            f"fraction={self.fraction}, seed={self.seed}, ids={self.ids})"
        )


class SignFlip(Adversary):
    """Submit ``g - gamma * (w - g)``: the honest delta reversed (and, for
    ``gamma > 1``, amplified).  At ``gamma = 1`` the plain mean still creeps
    forward when adversaries are a minority; larger ``gamma`` lets a small
    roster stall or reverse FedAvg outright."""

    name = "sign_flip"

    def __init__(self, *, n_clients: int, fraction: float, seed: int, gamma: float = 1.0) -> None:
        super().__init__(n_clients=n_clients, fraction=fraction, seed=seed)
        if gamma <= 0:
            raise ValueError("sign_flip gamma must be positive")
        self.gamma = float(gamma)

    def corrupt_update(self, update, round_idx, global_flat, global_weights):
        return self._rewrite(update, global_flat, lambda w, g: g - self.gamma * (w - g))


class Scale(Adversary):
    """Submit ``g + gamma * (w - g)``: the honest delta boosted by ``gamma``
    (model replacement).  Norm-based defences (clip/screen) are the natural
    counter; coordinate-wise rules also resist it."""

    name = "scale"

    def __init__(self, *, n_clients: int, fraction: float, seed: int, gamma: float = 10.0) -> None:
        super().__init__(n_clients=n_clients, fraction=fraction, seed=seed)
        if gamma <= 0:
            raise ValueError("scale gamma must be positive")
        self.gamma = float(gamma)

    def corrupt_update(self, update, round_idx, global_flat, global_weights):
        return self._rewrite(update, global_flat, lambda w, g: g + self.gamma * (w - g))


class GaussNoise(Adversary):
    """Submit ``w + sigma * z`` with a fresh standard-normal ``z`` per
    client per round, keyed by ``(client_id, round_idx)`` so the draw is
    independent of executor scheduling."""

    name = "gauss_noise"

    def __init__(self, *, n_clients: int, fraction: float, seed: int, sigma: float = 1.0) -> None:
        super().__init__(n_clients=n_clients, fraction=fraction, seed=seed)
        if sigma <= 0:
            raise ValueError("gauss_noise sigma must be positive")
        self.sigma = float(sigma)

    def corrupt_update(self, update, round_idx, global_flat, global_weights):
        rng = self._rng(update.client_id, round_idx)
        return self._rewrite(
            update, global_flat, lambda w, g: w + self.sigma * rng.standard_normal(w.shape)
        )


class LabelFlip(Adversary):
    """Data poisoning: adversarial clients train honestly on shards whose
    labels are remapped to ``num_classes - 1 - y``.  The update itself is
    untouched — this is the attack that norm screening *cannot* see and
    coordinate-wise rules merely outvote."""

    name = "label_flip"

    def poison_clients(self, clients, num_classes):
        from repro.data.dataset import ArrayDataset

        for client in clients:
            if self.is_adversary(client.id):
                ds = client.dataset
                client.dataset = ArrayDataset(ds.x, (num_classes - 1 - ds.y).astype(ds.y.dtype))


class Collude(Adversary):
    """All adversaries submit one *identical* crafted vector per round:
    ``g + gamma * z / ||z||`` with ``z`` drawn once per round.  A colluding
    cluster of ``f`` identical vectors has zero mutual distance, so
    Krum-style rules stay safe only while ``f`` is within their assumed
    bound — the canonical stress test for ``multi_krum(f)``."""

    name = "collude"

    def __init__(self, *, n_clients: int, fraction: float, seed: int, gamma: float = 1.0) -> None:
        super().__init__(n_clients=n_clients, fraction=fraction, seed=seed)
        if gamma <= 0:
            raise ValueError("collude gamma must be positive")
        self.gamma = float(gamma)

    def corrupt_update(self, update, round_idx, global_flat, global_weights):
        def craft(w: np.ndarray, g: np.ndarray) -> np.ndarray:
            # Keyed by round only: every colluder computes the same vector.
            z = self._rng(round_idx).standard_normal(g.shape)
            norm = float(np.sqrt((z * z).sum()))
            return g + self.gamma * z / max(norm, np.finfo(np.float64).tiny)

        return self._rewrite(update, global_flat, craft)


# ---------------------------------------------------------------------------
# Registry (mirrors the aggregator/sampler/executor/mode registries).
# ---------------------------------------------------------------------------

#: factory(n_clients=..., fraction=..., seed=..., **kwargs) -> Adversary
AdversaryFactory = Callable[..., Adversary]

_ADVERSARIES: Dict[str, AdversaryFactory] = {}


def register_adversary(name: str, factory: AdversaryFactory) -> None:
    """Register (or replace) an adversary factory under ``name``."""
    _ADVERSARIES[name.lower()] = factory


def available_adversaries() -> List[str]:
    return sorted(_ADVERSARIES)


def build_adversary(
    name: str, *, n_clients: int, fraction: float, seed: int, **kwargs: Any
) -> Adversary:
    """Instantiate the adversary model registered under ``name``.

    ``kwargs`` are model-specific (``gamma=``, ``sigma=``); an unknown name
    or an argument the model does not accept raises ``ValueError``.
    """
    try:
        factory = _ADVERSARIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown adversary {name!r}; available: {available_adversaries()}"
        ) from None
    try:
        return factory(n_clients=n_clients, fraction=fraction, seed=seed, **kwargs)
    except TypeError as exc:
        raise ValueError(f"bad arguments for adversary {name!r}: {exc}") from None


register_adversary("sign_flip", SignFlip)
register_adversary("scale", Scale)
register_adversary("gauss_noise", GaussNoise)
register_adversary("label_flip", LabelFlip)
register_adversary("collude", Collude)
