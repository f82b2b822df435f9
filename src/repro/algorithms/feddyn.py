"""FedDyn — federated learning with dynamic regularization (Acar et al., ICLR 2021).

Each client maintains a linear correction ``h_k`` (its accumulated gradient
residual).  The local objective is

``F_k(w) - <h_k, w> + (alpha/2)||w - w_glob||^2``

so the local gradient is ``g - h_k + alpha (w - w_glob)``.  After training,
``h_k <- h_k - alpha (w_k - w_glob)``.  The server keeps the running mean
``h`` of all clients' corrections and sets the next global model to
``mean(w_k) - h/alpha``, which makes local optima asymptotically consistent
with the global optimum.  Runs on plain SGD per the paper's setup.  Both
``h`` and each ``h_k`` are one ``(P,)`` vector; the server rebinds ``h``
on every update.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.fl.aggregation import fedavg_aggregate
from repro.fl.types import ClientUpdate, FLConfig

__all__ = ["FedDyn"]


class FedDyn(Strategy):
    name = "feddyn"
    local_optimizer = "sgd"

    def __init__(self, alpha: float = 0.1) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = float(alpha)

    # ---------------- server ----------------
    def server_init(self, global_flat: np.ndarray, config: FLConfig) -> Dict[str, Any]:
        return {"h": np.zeros_like(global_flat)}

    def aggregate(self, updates, global_flat, server_state, config) -> np.ndarray:
        # The base mean, declared here so that a robust aggregator (which
        # replaces only the default aggregate) is refused at construction.
        return fedavg_aggregate(updates)

    def post_aggregate(
        self,
        new_flat: np.ndarray,
        old_flat: np.ndarray,
        updates: Sequence[ClientUpdate],
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> np.ndarray:
        scale = self.alpha * len(updates) / config.n_clients
        h = server_state["h"] - scale * (new_flat - old_flat)
        server_state["h"] = h
        return new_flat - h / self.alpha

    # ---------------- client ----------------
    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return {"h_k": None}

    def on_round_start(self, ctx: ClientRoundContext) -> None:
        # The correction is one (P,) vector, created on first participation.
        if ctx.state["h_k"] is None:
            ctx.state["h_k"] = np.zeros_like(ctx.global_flat)

    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        grads = ctx.flat_grads
        grads += self.alpha * (ctx.flat_weights - ctx.global_flat) - ctx.state["h_k"]
        ctx.extra_flops += 4.0 * ctx.n_params

    def on_round_end(self, ctx: ClientRoundContext) -> None:
        h_k = ctx.state["h_k"]
        h_k -= self.alpha * (ctx.flat_weights - ctx.global_flat)

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return 4.0 * n_params  # Table VIII: 4K|w|

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "model regularization",
            "information_utilization": "insufficient",
            "resource_cost": "low",
        }
