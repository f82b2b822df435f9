"""Server abstraction: global weights + strategy server state."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.fl.params import ParamPlane
from repro.fl.robust.aggregators import RobustAggregator, robust_aggregate
from repro.fl.types import ClientUpdate, FLConfig
from repro.utils.logging import get_logger

__all__ = ["Server"]

_log = get_logger("fl.server")


class Server:
    """Holds the global model weights and runs strategy server hooks.

    The server never owns a live model object — only the weight state —
    which keeps aggregation independent of layer implementations and mirrors
    the paper's "transmit the global model / aggregate uploaded models"
    protocol.

    The weight state is one contiguous single-dtype buffer
    (:class:`~repro.fl.params.ParamPlane`): :attr:`flat_weights` is its
    ``(P,)`` vector, :attr:`weights` exposes stable per-layer views into it
    for callbacks and evaluation, and each aggregation writes the buffer in
    place with one ``copy_from_flat`` — broadcast consumers (executors,
    evaluation) alias the same memory round after round.  A mixed-dtype
    initial model is rejected here, with a ``ValueError`` naming its dtypes.

    That ``(P,)`` vector, in the plane's dtype, is the only server-side
    representation: every strategy server hook (``server_init``,
    ``server_preamble``, ``aggregate``, ``post_aggregate``) receives the
    live plane vector and returns flat vectors, and strategy server state
    holds flat vectors too.  Hooks must not write into the plane vector
    they are handed; anything needing a snapshot across rounds copies it.
    """

    def __init__(
        self,
        initial_weights: List[np.ndarray],
        strategy,
        config: FLConfig,
        aggregator: Optional[RobustAggregator] = None,
    ) -> None:
        if aggregator is not None:
            from repro.algorithms.base import Strategy

            if type(strategy).aggregate is not Strategy.aggregate:
                raise ValueError(
                    f"robust aggregator {aggregator.name!r} would silently "
                    f"override {type(strategy).__name__}.aggregate; robust "
                    "aggregation composes only with strategies that use the "
                    "default weighted mean"
                )
        self.plane = ParamPlane.from_tree(initial_weights)
        self.strategy = strategy
        self.config = config
        self.aggregator = aggregator
        self.state: Dict[str, Any] = strategy.server_init(self.plane.flat, config)
        self.round_idx = 0
        self.skipped_rounds = 0
        # Per-round report, reset at the top of every aggregation attempt
        # and read by the engines' _phase_record: which clients the
        # finite-check dropped, which the robust rule screened, and whether
        # the round was skipped outright.
        self.last_dropped: List[int] = []
        self.last_screened: List[int] = []
        self.last_skipped = False
        self.last_skip_reason: Optional[str] = None

    @property
    def weights(self) -> List[np.ndarray]:
        """Per-layer views into the flat global buffer (stable identity)."""
        return self.plane.tree

    @property
    def flat_weights(self) -> np.ndarray:
        """The global model as one flat vector (aliases :attr:`weights`)."""
        return self.plane.flat

    @property
    def n_params(self) -> int:
        return self.plane.n_params

    def broadcast_payload(self) -> Dict[str, Any]:
        """Extra state shipped alongside the model (e.g. SCAFFOLD's c)."""
        return self.strategy.server_broadcast(self.state, self.round_idx)

    def run_preamble(self, preambles: Dict[int, Dict[str, Any]]) -> None:
        self.strategy.server_preamble(self.state, preambles, self.plane.flat, self.round_idx)

    @staticmethod
    def _finite(update: ClientUpdate) -> bool:
        return bool(np.isfinite(update.flat_vector()).all())

    def reset_report(self) -> None:
        """Clear the per-round report fields before an aggregation attempt."""
        self.last_dropped = []
        self.last_screened = []
        self.last_skipped = False
        self.last_skip_reason = None

    def partition_finite(self, updates: Sequence[ClientUpdate]) -> List[ClientUpdate]:
        """The non-finite drop policy, shared by every aggregation path
        (synchronous rounds and the async engine's mixing): return the
        healthy updates, recording dropped client ids on
        :attr:`last_dropped` (surfaced in the round's History record) and
        logging them.  Each update's verdict is computed exactly once."""
        verdicts = [self._finite(u) for u in updates]
        healthy = [u for u, ok in zip(updates, verdicts) if ok]
        if len(healthy) < len(updates):
            bad = sorted(u.client_id for u, ok in zip(updates, verdicts) if not ok)
            self.last_dropped.extend(bad)
            _log.warning("round %d: dropping %d non-finite client update(s): %s",
                         self.round_idx, len(updates) - len(healthy), bad)
        return healthy

    def skip_round(self, reason: str = "non_finite") -> None:
        """Abandon the current aggregation: keep the global model, count the
        event, record why (``"non_finite"`` — every surviving update was
        bad; ``"quorum"`` — too few clients reported under the failure
        policy; ``"no_updates"`` — nobody reported at all), and advance the
        version."""
        _log.error("round %d: skipping aggregation (%s); "
                   "keeping previous global model", self.round_idx, reason)
        self.skipped_rounds += 1
        self.last_skipped = True
        self.last_skip_reason = reason
        self.round_idx += 1

    def apply_updates(self, updates: Sequence[ClientUpdate]) -> None:
        """Aggregate (Eq. 2) then let the strategy post-process, in place.

        Non-finite client updates (NaN/inf from a diverged or faulty
        client) are dropped before aggregation — one bad client must not
        poison the global model.  If *every* update is bad the round is
        skipped entirely (the global model is kept), mirroring production
        FL servers that abandon a failed round rather than crash the job;
        :attr:`skipped_rounds` counts these events.

        With a robust :class:`~repro.fl.robust.aggregators.RobustAggregator`
        attached, the strategy's ``aggregate`` hook is replaced by the
        robust reduction over the stacked ``(K, P)`` matrix; clients the
        rule screens out are recorded on :attr:`last_screened` and excluded
        from the ``post_aggregate`` hook's update list.
        """
        if not updates:
            raise ValueError("cannot aggregate an empty update set")
        self.reset_report()
        healthy = self.partition_finite(updates)
        if not healthy:
            self.skip_round()
            return
        old = self.plane.flat
        if self.aggregator is not None:
            new, screened = robust_aggregate(self.aggregator, healthy, old)
            if screened:
                self.last_screened = screened
                _log.info("round %d: %s screened client(s): %s",
                          self.round_idx, self.aggregator.name, screened)
                accepted = [u for u in healthy if u.client_id not in set(screened)]
            else:
                accepted = healthy
            new = self.strategy.post_aggregate(new, old, accepted, self.state, self.config)
        else:
            new = self.strategy.aggregate(healthy, old, self.state, self.config)
            new = self.strategy.post_aggregate(new, old, healthy, self.state, self.config)
        # One in-place write of the plane; the views every consumer holds
        # update with it.  (``new`` is a fresh vector or the plane's own,
        # and copyto handles the latter as a no-op.)
        self.plane.copy_from_flat(new)
        self.round_idx += 1
