"""The Strategy API: how an FL algorithm plugs into the simulation.

One :class:`Strategy` instance serves a whole experiment.  Server-side state
lives in the dict returned by :meth:`Strategy.server_init`; per-client state
lives in dicts the simulation owns and hands back on every participation
(this is what lets FedTrip find the *historical* local model and its
last-participation round).

The default :meth:`Strategy.local_step` implements Algorithm 1's structure:

1. forward, cross-entropy loss;
2. backward to populate gradient buffers;
3. :meth:`modify_gradients` — the algorithm's "attaching operation", e.g.
   FedTrip's ``mu*((w - w_glob) + xi*(w_hist - w))`` (line 7);
4. one optimizer step ``w -= alpha * U(h)`` (line 8).

Representation-based methods (MOON, FedGKD) override ``local_step`` entirely
because they need extra forward passes through frozen reference models.

Cost accounting: every hook adds the FLOPs of its attaching operations to
``ctx.extra_flops`` (in exact multiples of ``|w|`` or of forward-pass cost),
and communication beyond the baseline down+up model exchange is declared via
:meth:`extra_comm_units`.  These feed Tables IV/V/VIII.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.fl.aggregation import fedavg_aggregate
from repro.fl.types import ClientUpdate, FLConfig
from repro.models.fedmodel import FedModel
from repro.nn.losses import CrossEntropyLoss
from repro.optim.base import Optimizer

__all__ = ["ClientRoundContext", "Strategy"]


@dataclass
class ClientRoundContext:
    """Everything a strategy can touch while one client trains one round."""

    client_id: int
    round_idx: int
    global_weights: List[np.ndarray]
    model: FedModel                      # trainable; starts at global weights
    frozen: FedModel                     # scratch copy for reference forwards
    optimizer: Optimizer
    criterion: CrossEntropyLoss
    config: FLConfig
    state: Dict[str, Any]                # persistent per-client strategy state
    n_samples: int                       # client's local dataset size
    fp_flops_per_sample: float           # forward cost of one sample
    #: this client's round generator (see the :attr:`rng` property); when
    #: not given, derived from ``rng_source`` on first access.
    rng: InitVar[Optional[np.random.Generator]] = None
    rng_source: Optional[Callable[[], np.random.Generator]] = field(default=None, repr=False)
    server_broadcast: Dict[str, Any] = field(default_factory=dict)
    upload_extras: Dict[str, Any] = field(default_factory=dict)
    extra_flops: float = 0.0             # attach-op + extra-forward FLOPs
    scratch: Dict[str, Any] = field(default_factory=dict)  # round-local temp
    #: scheduler-measured staleness (server versions since this client's
    #: last dispatch) under the async/semi-sync modes; None in sync mode,
    #: where strategies fall back to round arithmetic.
    xi_measured: Optional[float] = None
    #: the broadcast global weights as one ``(P,)`` vector (aliasing
    #: ``global_weights``); every executor sets it.
    global_flat: Optional[np.ndarray] = None
    #: the worker's scratch arrays, kept across the tasks it runs; a
    #: context built without one gets a private dict.
    workspace: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _rng: Optional[np.random.Generator] = field(default=None, init=False, repr=False)

    def __post_init__(self, rng: Optional[np.random.Generator]) -> None:
        self._rng = rng

    def _get_rng(self) -> Optional[np.random.Generator]:
        if self._rng is None and self.rng_source is not None:
            self._rng = self.rng_source()
        return self._rng

    @property
    def n_params(self) -> int:
        return self.model.num_parameters()

    @property
    def flat_weights(self) -> np.ndarray:
        """The worker model's live weight plane."""
        return self.model.flat_weights

    @property
    def flat_grads(self) -> np.ndarray:
        """The worker model's live gradient plane."""
        return self.model.flat_grads


# Assigned after the decorator ran: in the class body the property would
# become the ``rng`` InitVar's default.  Deriving a generator costs a
# SeedSequence per task, and most strategies never draw from it.
ClientRoundContext.rng = property(
    ClientRoundContext._get_rng,
    doc="The client's generator for this round (batch order etc.), derived "
        "on first access unless one was passed to the constructor.",
)


class Strategy:
    """Base class = FedAvg behaviour; subclasses override hooks."""

    #: registry name, e.g. "fedtrip"
    name: str = "base"
    #: force a specific local optimizer ("sgd"/"sgdm"/"adam"), or None to use
    #: the config's choice.  The paper runs SlowMo/FedDyn on plain SGD.
    local_optimizer: Optional[str] = None
    #: whether the simulation must run the client/server preamble phase
    #: (FedDANE, MimeLite — they need full-batch gradients at the global model)
    needs_preamble: bool = False

    # ---------------- server side ----------------
    # Every server hook speaks the server plane's ``(P,)`` vector, in the
    # plane's dtype: the global model arrives as ``global_flat`` (the live
    # plane, which hooks must not write into), ``aggregate`` and
    # ``post_aggregate`` return one flat vector, and server state and
    # preamble payloads hold flat vectors too.
    def server_init(self, global_flat: np.ndarray, config: FLConfig) -> Dict[str, Any]:
        """Create server-side state (e.g. SCAFFOLD's control variate)."""
        return {}

    def server_broadcast(
        self, server_state: Dict[str, Any], round_idx: int
    ) -> Dict[str, Any]:
        """Extra payload shipped to every selected client with the model."""
        return {}

    def server_preamble(
        self,
        server_state: Dict[str, Any],
        preambles: Dict[int, Dict[str, Any]],
        global_flat: np.ndarray,
        round_idx: int,
    ) -> None:
        """Combine per-client preamble payloads (only if ``needs_preamble``)."""

    def aggregate(
        self,
        updates: Sequence[ClientUpdate],
        global_flat: np.ndarray,
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> np.ndarray:
        """Combine client models into the next global model (Eq. 2)."""
        return fedavg_aggregate(updates)

    def post_aggregate(
        self,
        new_flat: np.ndarray,
        old_flat: np.ndarray,
        updates: Sequence[ClientUpdate],
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> np.ndarray:
        """Adjust the aggregated model (SlowMo momentum, FedDyn h-shift)."""
        return new_flat

    # ---------------- client side ----------------
    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return {}

    def client_preamble(self, ctx: ClientRoundContext, full_grad: np.ndarray) -> Dict[str, Any]:
        """Payload computed at the global model before training starts.

        ``full_grad`` is the client's full-batch gradient at the global
        weights as one ``(P,)`` vector (the simulation computes it once and
        shares it, since both preamble users need exactly that).
        """
        return {}

    def on_round_start(self, ctx: ClientRoundContext) -> None:
        """Load historical state, reset round-local scratch."""

    def local_step(self, ctx: ClientRoundContext, xb: np.ndarray, yb: np.ndarray) -> float:
        """One mini-batch step; returns the (base) loss value."""
        logits = ctx.model(xb)
        loss, dlogits = ctx.criterion(logits, yb)
        ctx.model.zero_grad()
        ctx.model.backward(dlogits, input_grad=False)
        self.modify_gradients(ctx)
        self.maybe_clip(ctx)
        ctx.optimizer.step()
        return loss

    @staticmethod
    def maybe_clip(ctx: ClientRoundContext) -> None:
        """Apply the config's optional global gradient clipping — one norm
        over the grad plane."""
        if ctx.config.max_grad_norm is None:
            return
        from repro.nn.utils import clip_grad_norm_flat

        clip_grad_norm_flat(ctx.flat_grads, ctx.config.max_grad_norm)

    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        """Inject the algorithm's regularization into the gradient buffers."""

    def on_round_end(self, ctx: ClientRoundContext) -> None:
        """Persist client state (historical model, control variates...)."""

    # ---------------- cost model ----------------
    def extra_comm_units(self) -> float:
        """Per-round per-client communication beyond the 2|w| baseline,
        in units of |w| (Appendix A Table VIII)."""
        return 0.0

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        """Analytic attach-op FLOPs per local iteration (Table VIII row).

        Concrete strategies keep this consistent with what their hooks add to
        ``ctx.extra_flops``; a test cross-checks the two.
        """
        return 0.0

    # ---------------- metadata ----------------
    def describe(self) -> Dict[str, Any]:
        """Qualitative row for Table I."""
        return {
            "name": self.name,
            "family": "baseline",
            "information_utilization": "insufficient",
            "resource_cost": "low",
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
