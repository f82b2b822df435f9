"""SlowMo — slow momentum at the server (Wang et al., 2019).

Clients run plain SGD (the paper pairs SlowMo with SGD); the server treats
the average client displacement as a pseudo-gradient and applies heavy-ball
momentum to it::

    d_t = (w_glob - mean(w_k)) / lr          # pseudo-gradient
    u_t = beta * u_{t-1} + d_t
    w_glob <- w_glob - slow_lr * lr * u_t

With ``beta=0, slow_lr=1`` this reduces exactly to FedAvg (a property the
tests pin down).  The momentum ``u`` is one ``(P,)`` vector, rebound (never
written in place) on every update.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from repro.algorithms.base import Strategy
from repro.fl.types import ClientUpdate, FLConfig

__all__ = ["SlowMo"]


class SlowMo(Strategy):
    name = "slowmo"
    local_optimizer = "sgd"

    def __init__(self, beta: float = 0.5, slow_lr: float = 1.0) -> None:
        if not 0 <= beta < 1:
            raise ValueError("beta must be in [0, 1)")
        if slow_lr <= 0:
            raise ValueError("slow_lr must be positive")
        self.beta = float(beta)
        self.slow_lr = float(slow_lr)

    def server_init(self, global_flat: np.ndarray, config: FLConfig) -> Dict[str, Any]:
        return {"u": np.zeros_like(global_flat)}

    def post_aggregate(
        self,
        new_flat: np.ndarray,
        old_flat: np.ndarray,
        updates: Sequence[ClientUpdate],
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> np.ndarray:
        lr = config.lr
        u = self.beta * server_state["u"] + (old_flat - new_flat) / lr
        server_state["u"] = u
        return old_flat - self.slow_lr * lr * u

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "server momentum",
            "information_utilization": "insufficient",
            "resource_cost": "low",
        }
