"""SCAFFOLD — stochastic controlled averaging (Karimireddy et al., ICML 2020).

Control variates correct client drift: the server keeps ``c`` (mean of all
client variates), each client keeps ``c_k``; every local gradient becomes
``g - c_k + c``.  After K local steps the client refreshes its variate with
option II of the paper::

    c_k_new = c_k - c + (w_glob - w_k) / (K * lr)

and uploads ``delta_k = c_k_new - c_k`` alongside the model; the server
applies ``c += (K_selected / N) * mean(delta_k)``.  Communication is
``2|w|`` extra per round (c down, delta up) — Appendix A Table VIII's
``2(K+1)|w| + ...`` computation row and ``2|w|`` communication row.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.fl.params import as_flat
from repro.fl.types import ClientUpdate, FLConfig
from repro.utils.vectorize import unflatten_like

__all__ = ["SCAFFOLD"]


class SCAFFOLD(Strategy):
    name = "scaffold"
    local_optimizer = "sgd"

    # ---------------- server ----------------
    def server_init(self, global_weights, config: FLConfig) -> Dict[str, Any]:
        return {"c": [np.zeros_like(w) for w in global_weights]}

    def server_broadcast(self, server_state: Dict[str, Any], round_idx: int) -> Dict[str, Any]:
        # Ship the variate as one flat vector, staged once per round here so
        # clients never flatten it per client.
        return {"c_flat": as_flat(server_state["c"])}

    def post_aggregate(
        self,
        new_weights: List[np.ndarray],
        old_weights: List[np.ndarray],
        updates: Sequence[ClientUpdate],
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> List[np.ndarray]:
        c = server_state["c"]
        scale = len(updates) / config.n_clients
        for upd in updates:
            # Clients upload one (P,) vector; apply it through zero-copy
            # per-layer views so c keeps its tree layout.
            delta = unflatten_like(upd.extras["c_delta"], c)
            for i in range(len(c)):
                c[i] = c[i] + (scale / len(updates)) * delta[i]
        return new_weights

    # ---------------- client ----------------
    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return {"c_k": None}

    def on_round_start(self, ctx: ClientRoundContext) -> None:
        if ctx.state["c_k"] is None:
            ctx.state["c_k"] = np.zeros_like(ctx.global_flat)
        ctx.scratch["steps"] = 0

    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        grads = ctx.flat_grads
        grads += ctx.server_broadcast["c_flat"] - ctx.state["c_k"]
        ctx.scratch["steps"] += 1
        ctx.extra_flops += 2.0 * ctx.n_params

    def on_round_end(self, ctx: ClientRoundContext) -> None:
        c_k = ctx.state["c_k"]
        steps = max(ctx.scratch["steps"], 1)
        inv = 1.0 / (steps * ctx.config.lr)
        c = ctx.server_broadcast["c_flat"]
        c_k_new = c_k - c + inv * (ctx.global_flat - ctx.flat_weights)
        ctx.state["c_k"] = c_k_new
        ctx.upload_extras["c_delta"] = c_k_new - c_k

    # ---------------- cost model ----------------
    def extra_comm_units(self) -> float:
        return 2.0  # c down + delta up

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return 2.0 * n_params

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "control variates",
            "information_utilization": "sufficient",
            "resource_cost": "high (communication)",
        }
