"""Adaptive-mu FedTrip — the paper's future-work direction, implemented.

The conclusion of the paper defers "the influence of xi" and mu tuning to
future work; Fig. 7 shows the accuracy/convergence trade-off is sensitive
to mu.  This extension applies the adaptive-penalty heuristic from the
FedProx paper (increase the penalty when the aggregate objective worsens,
relax it when training is progressing) to FedTrip's mu:

* after each round, compare the mean client training loss to the previous
  round's;
* loss went up (training destabilising) -> ``mu *= growth`` (clamped to
  ``mu_max``), strengthening the consistency pull;
* loss went down for ``patience`` consecutive rounds -> ``mu /= growth``
  (clamped to ``mu_min``), freeing clients to explore.

The adapted mu is broadcast with the round payload, so it costs nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.algorithms.base import ClientRoundContext
from repro.algorithms.fedtrip import FedTrip
from repro.fl.types import ClientUpdate, FLConfig

__all__ = ["AdaptiveFedTrip"]


class AdaptiveFedTrip(FedTrip):
    name = "fedtrip_adaptive"

    def __init__(
        self,
        mu: float = 0.4,
        mu_min: float = 0.01,
        mu_max: float = 2.5,
        growth: float = 1.5,
        patience: int = 2,
        **kwargs,
    ) -> None:
        super().__init__(mu=mu, **kwargs)
        if not 0 < mu_min <= mu <= mu_max:
            raise ValueError("need 0 < mu_min <= mu <= mu_max")
        if growth <= 1.0:
            raise ValueError("growth must exceed 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.mu_min = float(mu_min)
        self.mu_max = float(mu_max)
        self.growth = float(growth)
        self.patience = int(patience)

    # ---------------- server ----------------
    def server_init(self, global_weights, config: FLConfig) -> Dict[str, Any]:
        return {"mu": self.mu, "prev_loss": None, "good_streak": 0}

    def server_broadcast(self, server_state: Dict[str, Any], round_idx: int) -> Dict[str, Any]:
        return {"mu": server_state["mu"]}

    def post_aggregate(
        self,
        new_weights: List[np.ndarray],
        old_weights: List[np.ndarray],
        updates: Sequence[ClientUpdate],
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> List[np.ndarray]:
        loss = float(np.mean([u.train_loss for u in updates]))
        prev = server_state["prev_loss"]
        if prev is not None:
            if loss > prev * 1.001:  # objective worsened -> tighten
                server_state["mu"] = min(server_state["mu"] * self.growth, self.mu_max)
                server_state["good_streak"] = 0
            else:
                server_state["good_streak"] += 1
                if server_state["good_streak"] >= self.patience:
                    server_state["mu"] = max(server_state["mu"] / self.growth, self.mu_min)
                    server_state["good_streak"] = 0
        server_state["prev_loss"] = loss
        return new_weights

    # ---------------- client ----------------
    def on_round_start(self, ctx: ClientRoundContext) -> None:
        # Use the server-adapted mu for this round (fall back to static).
        # FedTrip binds its attach op, mu included, in on_round_start, so
        # the adapted mu is set first.
        ctx.scratch["mu"] = float(ctx.server_broadcast.get("mu", self.mu))
        super().on_round_start(ctx)

    def describe(self) -> Dict[str, Any]:
        base = super().describe()
        base["name"] = self.name
        base["family"] = "model regularization + historical information (adaptive mu)"
        return base
