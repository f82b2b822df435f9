"""FedProx (Li et al., MLSys 2020).

Adds a proximal term ``(mu/2)||w - w_glob||^2`` to the local objective, i.e.
``mu (w - w_glob)`` to every local gradient.  The paper's baseline uses
``mu = 0.1``.  FedProx is the "positive-pair only" half of FedTrip: it keeps
updates consistent but, as Sec. IV argues, the proximal pull partially
cancels progress toward the local optimum and ignores historical models.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.algorithms.base import ClientRoundContext, Strategy

__all__ = ["FedProx"]


class FedProx(Strategy):
    name = "fedprox"

    def __init__(self, mu: float = 0.1) -> None:
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.mu = float(mu)

    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        if self.mu == 0.0:
            return
        grads = ctx.flat_grads
        grads += self.mu * (ctx.flat_weights - ctx.global_flat)
        ctx.extra_flops += 2.0 * ctx.n_params

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return 2.0 * n_params  # Table VIII: 2K|w|

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "model regularization",
            "information_utilization": "insufficient",
            "resource_cost": "low",
        }
