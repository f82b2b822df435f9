"""Server abstraction: global weights + strategy server state."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.fl.aggregation import aggregation_block
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
    ``(P,)`` vector, :attr:`weights` exposes stable per-layer views into it,
    and each aggregation writes the buffer in place — broadcast consumers
    (executors, evaluation) alias the same memory round after round instead
    of chasing freshly allocated trees.  A mixed-dtype initial model is
    rejected here, with a ``ValueError`` naming its dtypes.
    Strategy hooks keep receiving/returning plain lists of arrays; anything
    needing a snapshot across rounds copies explicitly (as they all did
    already, since the old code also rebound ``weights`` every round).
    """

    def __init__(
        self,
        initial_weights: List[np.ndarray],
        strategy,
        config: FLConfig,
        aggregator: Optional[RobustAggregator] = None,
        agg_block_size: Optional[int] = None,
    ) -> None:
        if agg_block_size is not None and int(agg_block_size) < 1:
            raise ValueError(
                f"agg_block_size must be >= 1, got {agg_block_size}")
        if (
            agg_block_size is not None
            and aggregator is not None
            and aggregator.requires_full_matrix
        ):
            # Decided once at build time (the spec funnels every construction
            # through here): rules reducing over coordinate order statistics
            # or pairwise geometry have no streaming formulation, so the
            # block size would be silently ignored — per the spec-validation
            # philosophy, a knob that does nothing is an error.
            raise ValueError(
                f"aggregator {aggregator.name!r} requires the full stacked "
                "(K, P) matrix and cannot stream in blocks; drop "
                "agg_block_size or use a streaming-capable rule ('mean')"
            )
        self.agg_block_size = None if agg_block_size is None else int(agg_block_size)
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
        self.state: Dict[str, Any] = strategy.server_init(self.weights, config)
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

    @weights.setter
    def weights(self, tree: Sequence[np.ndarray]) -> None:
        self.plane.copy_from_tree(tree)

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
        self.strategy.server_preamble(self.state, preambles, self.weights, self.round_idx)

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
        old = self.weights
        if self.aggregator is not None:
            new, screened = robust_aggregate(
                self.aggregator, healthy, old, global_flat=self.plane.flat
            )
            if screened:
                self.last_screened = screened
                _log.info("round %d: %s screened client(s): %s",
                          self.round_idx, self.aggregator.name, screened)
                accepted = [u for u in healthy if u.client_id not in set(screened)]
            else:
                accepted = healthy
            new = self.strategy.post_aggregate(new, old, accepted, self.state, self.config)
        else:
            # Pin the configured streaming block size for the strategy's
            # whole reduction (aggregate + post-process) — the thread-local
            # context reaches every weighted_average_trees call underneath,
            # whichever strategy is running.  None is transparent, deferring
            # to any ambient default (e.g. the test suite's
            # --agg-block-size); the result is byte-identical either way.
            with aggregation_block(self.agg_block_size):
                new = self.strategy.aggregate(healthy, old, self.state, self.config)
                new = self.strategy.post_aggregate(new, old, healthy, self.state, self.config)
        # One in-place write of the flat buffer; the views every consumer
        # holds update with it.  (``new`` never partially aliases the plane:
        # strategies return either fresh arrays or the plane's own views,
        # and copyto handles the latter as a no-op.)
        self.plane.copy_from_tree(new)
        self.round_idx += 1
