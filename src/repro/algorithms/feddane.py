"""FedDANE — a federated Newton-type method (Li et al., ACSSC 2019).

DANE's gradient-corrected local objective, adapted to sampled participation:

``F_k(w) - <grad F_k(w_glob) - g_agg, w> + (mu/2)||w - w_glob||^2``

so every local gradient becomes ``g - g_k(w_glob) + g_agg + mu (w - w_glob)``
where ``g_agg`` is the average of the selected clients' full-batch gradients
at the global model — collected in an extra communication half-round before
local training (the preamble phase of the simulation).  The paper's related
work notes FedDANE "consistently underperforms FedProx" despite the stronger
theory; reproducing that behaviour is part of the baseline suite.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.fl.params import as_flat

__all__ = ["FedDANE"]


class FedDANE(Strategy):
    name = "feddane"
    needs_preamble = True

    def __init__(self, mu: float = 0.1) -> None:
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.mu = float(mu)

    # ---------------- preamble ----------------
    def client_preamble(self, ctx: ClientRoundContext, full_grad: List[np.ndarray]) -> Dict[str, Any]:
        # Stash the local full gradient (flat) for the correction term and
        # upload it for aggregation.
        ctx.state["grad_at_global"] = as_flat(full_grad)
        return {"full_grad": full_grad}

    def server_preamble(self, server_state, preambles, global_weights, round_idx) -> None:
        grads = [p["full_grad"] for p in preambles.values()]
        agg = [np.zeros_like(w) for w in global_weights]
        for g in grads:
            for i in range(len(agg)):
                agg[i] += g[i] / len(grads)
        server_state["g_agg"] = agg

    def server_broadcast(self, server_state: Dict[str, Any], round_idx: int) -> Dict[str, Any]:
        if "g_agg" not in server_state:
            return {}
        # The aggregated gradient ships as one flat vector, staged once per
        # round here so clients never flatten it per client.
        return {"g_agg_flat": as_flat(server_state["g_agg"])}

    # ---------------- client ----------------
    def on_round_start(self, ctx: ClientRoundContext) -> None:
        # Combine the round's correction pair once; every local step's
        # gradient surgery is then a single vector expression.  The client's
        # own preamble gradient was stored flat by client_preamble.
        agg_flat = ctx.server_broadcast.get("g_agg_flat")
        g_loc = ctx.state.get("grad_at_global")
        if agg_flat is not None and g_loc is not None:
            ctx.scratch["correction_flat"] = agg_flat - g_loc

    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        grads = ctx.flat_grads
        correction = ctx.scratch.get("correction_flat")
        if correction is not None:
            grads += correction + self.mu * (ctx.flat_weights - ctx.global_flat)
            ctx.extra_flops += 4.0 * ctx.n_params
        else:  # fall back to FedProx behaviour if the preamble was skipped
            grads += self.mu * (ctx.flat_weights - ctx.global_flat)
            ctx.extra_flops += 2.0 * ctx.n_params

    # ---------------- cost model ----------------
    def extra_comm_units(self) -> float:
        return 2.0  # grad up (preamble) + aggregated grad down

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        # Per-iteration attach ops only; the n(FP+BP) full-gradient preamble
        # is charged separately by the simulation (Table VIII's n(FP+BP)).
        return 4.0 * n_params

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "gradient correction",
            "information_utilization": "sufficient",
            "resource_cost": "high (computation + communication)",
        }
