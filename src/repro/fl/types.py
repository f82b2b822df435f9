"""Shared FL value types: configuration, client updates, round records."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.params import as_flat

__all__ = ["FLConfig", "ClientUpdate", "RoundRecord"]


@dataclass
class FLConfig:
    """Experiment configuration (defaults follow Sec. V-A of the paper).

    The paper's defaults: 100 rounds, batch size 50, 1 local epoch, SGD with
    momentum 0.9 at lr 0.01, 4 clients sampled from 10 each round.
    """

    rounds: int = 100
    n_clients: int = 10
    clients_per_round: int = 4
    batch_size: int = 50
    local_epochs: int = 1
    lr: float = 0.01
    momentum: float = 0.9
    optimizer: str = "sgdm"          # "sgdm" | "sgd" | "adam"
    eval_every: int = 1              # evaluate global model every N rounds
    eval_batch_size: int = 256
    seed: int = 0
    #: stop training once the evaluated test accuracy reaches this value
    #: (percent); enforced by the engine's EarlyStopping callback, which
    #: records the reason on History.stop_reason.  None = run all rounds.
    target_accuracy: Optional[float] = None
    track_costs: bool = True
    #: optional global L2 gradient clipping applied after each strategy's
    #: gradient modification — a stability lever for aggressive mu/xi/lr
    #: combinations (see the Fig. 7 degradation regime); None disables it.
    max_grad_norm: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if not 1 <= self.clients_per_round <= self.n_clients:
            raise ValueError("need 1 <= clients_per_round <= n_clients")
        if self.batch_size <= 0 or self.local_epochs <= 0:
            raise ValueError("batch_size and local_epochs must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.optimizer not in ("sgdm", "sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive when set")


@dataclass
class ClientUpdate:
    """What one client sends back to the server after local training.

    ``weights`` (the per-layer tree) remains the compatibility surface every
    strategy reads.  The server-side hot path additionally works on ``flat``
    — one contiguous vector of the same values — which updates built via
    :meth:`from_flat` carry natively (``weights`` are then reshaped *views*
    into it, no copies) and any other update derives lazily through
    :meth:`flat_vector`.  Updates with a flat vector also pickle it instead
    of the per-layer arrays, halving the worker-process result payload.
    """

    client_id: int
    weights: List[np.ndarray]
    num_samples: int
    train_loss: float
    # Extra payloads (e.g. SCAFFOLD control-variate deltas, MimeLite full
    # gradients).  Counted against communication in the cost model.
    extras: Dict[str, Any] = field(default_factory=dict)
    # Local cost bookkeeping for Table V.
    flops: float = 0.0
    comm_bytes: float = 0.0
    #: cached flat view of ``weights``; value-identical by construction and
    #: treated as stale if ``weights`` is mutated in place (nothing in the
    #: round loop does — updates are replaced, never edited).
    flat: Optional[np.ndarray] = field(default=None, repr=False)

    @classmethod
    def from_flat(
        cls,
        flat: np.ndarray,
        shapes: Sequence[Tuple[int, ...]],
        *,
        client_id: int,
        num_samples: int,
        train_loss: float,
        extras: Optional[Dict[str, Any]] = None,
        flops: float = 0.0,
        comm_bytes: float = 0.0,
    ) -> "ClientUpdate":
        """Build an update whose tree is a zero-copy view of ``flat``."""
        return cls(
            client_id=client_id,
            weights=_tree_views(flat, shapes),
            num_samples=num_samples,
            train_loss=train_loss,
            extras=extras if extras is not None else {},
            flops=flops,
            comm_bytes=comm_bytes,
            flat=flat,
        )

    def flat_vector(self) -> np.ndarray:
        """The update as one flat vector (cached; ``ValueError`` on a
        mixed-dtype tree)."""
        if self.flat is None:
            self.flat = as_flat(self.weights)
        return self.flat

    # -- pickling: ship the flat buffer once, not flat + L layer copies ----
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        if self.flat is not None:
            state["weights"] = [tuple(np.shape(w)) for w in self.weights]
            state["_flat_shapes"] = True
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        if state.pop("_flat_shapes", False):
            state = dict(state)
            state["weights"] = _tree_views(state["flat"], state["weights"])
        self.__dict__.update(state)


def _tree_views(flat: np.ndarray, shapes: Sequence[Tuple[int, ...]]) -> List[np.ndarray]:
    """Reshaped per-layer views of one flat vector (no copies)."""
    out: List[np.ndarray] = []
    cursor = 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(flat[cursor : cursor + size].reshape(shape))
        cursor += size
    if cursor != flat.size:
        raise ValueError(f"shapes cover {cursor} elements, flat has {flat.size}")
    return out


@dataclass
class RoundRecord:
    """Per-round metrics captured by the simulation.

    ``wall_seconds`` is the *host* time the round took to simulate;
    ``virtual_time_s`` is the *simulated* clock when the round's
    aggregation landed, under the experiment's device/network model
    (``None`` when no model is attached).  ``update_staleness`` holds the
    measured per-aggregated-update staleness — server versions elapsed
    between each update's dispatch and its arrival; always all-zero in the
    synchronous mode, and the quantity the async modes' decayed mixing and
    FedTrip's xi consume.

    Aggregation-health fields: ``dropped_clients`` are the ids the server's
    finite-check shed this round (previously log-only, so a run summary
    could not tell a clean run from one that silently lost clients);
    ``round_skipped`` marks a round where *every* update was bad and the
    global model was kept.  With the robust subsystem active,
    ``screened_clients`` are the ids the robust aggregation rule excluded
    and ``adversary_clients`` labels which of this round's participants sat
    on the adversary roster (``None`` when no adversary is attached —
    distinct from "an adversary attacked but none were sampled", which is
    ``[]``).

    Fault-tolerance fields: ``failed_clients`` are the ids whose task
    failed *terminally* this round (crash/corrupt/timeout/worker-death
    after the retry budget, non-retryable failures immediately);
    ``retried_clients`` records one id per retry dispatch, so a client
    retried twice appears twice.  ``skip_reason`` says why a skipped round
    was skipped (``"quorum"``, ``"no_updates"``, ``"non_finite"``); always
    ``None`` on aggregated rounds.

    ``phase_seconds`` breaks ``wall_seconds`` down by engine phase
    (``sample``/``broadcast``/``preamble``/``local_train``/``aggregate``/
    ``evaluate`` in sync mode; the event-driven modes record the phases
    they have).  Like ``wall_seconds`` it is host time — excluded from
    byte-identity comparisons — and always recorded; the opt-in
    :mod:`repro.obs` tracer adds spans and metrics on top of it.
    """

    round_idx: int
    selected: List[int]
    test_accuracy: Optional[float]
    test_loss: Optional[float]
    mean_train_loss: float
    cumulative_flops: float
    cumulative_comm_bytes: float
    wall_seconds: float
    virtual_time_s: Optional[float] = None
    update_staleness: Optional[List[int]] = None
    dropped_clients: List[int] = field(default_factory=list)
    screened_clients: List[int] = field(default_factory=list)
    adversary_clients: Optional[List[int]] = None
    round_skipped: bool = False
    phase_seconds: Optional[Dict[str, float]] = None
    failed_clients: List[int] = field(default_factory=list)
    retried_clients: List[int] = field(default_factory=list)
    skip_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round_idx,
            "selected": list(self.selected),
            "test_accuracy": self.test_accuracy,
            "test_loss": self.test_loss,
            "mean_train_loss": self.mean_train_loss,
            "cumulative_flops": self.cumulative_flops,
            "cumulative_comm_bytes": self.cumulative_comm_bytes,
            "wall_seconds": self.wall_seconds,
            "virtual_time_s": self.virtual_time_s,
            "update_staleness": (
                list(self.update_staleness)
                if self.update_staleness is not None else None
            ),
            "dropped_clients": list(self.dropped_clients),
            "screened_clients": list(self.screened_clients),
            "adversary_clients": (
                list(self.adversary_clients)
                if self.adversary_clients is not None else None
            ),
            "round_skipped": self.round_skipped,
            "phase_seconds": (
                dict(self.phase_seconds)
                if self.phase_seconds is not None else None
            ),
            "failed_clients": list(self.failed_clients),
            "retried_clients": list(self.retried_clients),
            "skip_reason": self.skip_reason,
        }
