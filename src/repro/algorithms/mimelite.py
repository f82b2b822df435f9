"""MimeLite (Karimireddy et al., 2020) — mimicking centralized momentum.

The server maintains a momentum buffer ``s`` updated with *full-batch*
client gradients at the global model; clients apply that fixed server
momentum during local steps instead of building their own::

    local update:  w <- w - lr ((1 - beta) g + beta s)
    server:        s <- (1 - beta) mean_k grad F_k(w_glob) + beta s

Clients therefore run plain SGD with a blended gradient.  The full-batch
gradient collection reuses the simulation's preamble phase (cost
``n(FP+BP)``, Appendix A Table VIII) and adds ``2|w|`` communication
(s down, gradient up).
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.fl.params import as_flat

__all__ = ["MimeLite"]


class MimeLite(Strategy):
    name = "mimelite"
    local_optimizer = "sgd"
    needs_preamble = True

    def __init__(self, beta: float = 0.9) -> None:
        if not 0 <= beta < 1:
            raise ValueError("beta must be in [0, 1)")
        self.beta = float(beta)

    # ---------------- preamble / server ----------------
    def client_preamble(self, ctx: ClientRoundContext, full_grad: List[np.ndarray]) -> Dict[str, Any]:
        return {"full_grad": full_grad}

    def server_preamble(self, server_state, preambles, global_weights, round_idx) -> None:
        grads = [p["full_grad"] for p in preambles.values()]
        mean_grad = [np.zeros_like(w) for w in global_weights]
        for g in grads:
            for i in range(len(mean_grad)):
                mean_grad[i] += g[i] / len(grads)
        s = server_state.get("s")
        if s is None:
            server_state["s"] = mean_grad
        else:
            server_state["s"] = [
                (1 - self.beta) * mg + self.beta * sk for mg, sk in zip(mean_grad, s)
            ]

    def server_broadcast(self, server_state: Dict[str, Any], round_idx: int) -> Dict[str, Any]:
        if "s" not in server_state:
            return {}
        # The momentum ships as one flat vector, staged once per round here;
        # each local step's blend is then two vector ops on the grad plane.
        return {"s_flat": as_flat(server_state["s"])}

    # ---------------- client ----------------
    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        s_flat = ctx.server_broadcast.get("s_flat")
        if s_flat is None:
            return
        b = self.beta
        grads = ctx.flat_grads
        grads *= 1 - b
        grads += b * s_flat
        ctx.extra_flops += 2.0 * ctx.n_params

    # ---------------- cost model ----------------
    def extra_comm_units(self) -> float:
        return 2.0  # s down + full gradient up

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return 2.0 * n_params

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "server statistics mimicry",
            "information_utilization": "sufficient",
            "resource_cost": "high (computation + communication)",
        }
