"""FedNova — normalized averaging (Wang et al., NeurIPS 2020).

Cited in the paper's related work ([22], "tackling the objective
inconsistency problem").  When clients run different numbers of local steps
(heterogeneous shard sizes or epochs), naive FedAvg implicitly weights
fast-stepping clients more.  FedNova normalizes each client's cumulative
update by its *effective* step count before averaging:

``d_k = (w_glob - w_k) / tau_k``            (normalized update direction)
``w_glob <- w_glob - tau_eff * sum_k p_k d_k``

with ``tau_eff = sum_k p_k tau_k`` (the paper's momentum-corrected tau is
used when clients run SGDm: ``tau_k' = (tau_k - m(1-m^tau_k)/(1-m))/(1-m)``).

The server step expands to ``(1 - sum_k s_k) w_glob + sum_k s_k w_k`` with
``s_k = tau_eff p_k / tau_k``, which runs through the pinned row fold of
:func:`repro.fl.aggregation.fold_rows`: the client rows in cohort order
with their raw ``s_k``, then the one ``(1 - sum_k s_k) w_glob`` row, in
float64 and O(P) memory — no stacked matrix and no BLAS, so the result
does not depend on the BLAS build or its thread count.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.fl.aggregation import fold_rows
from repro.fl.types import ClientUpdate, FLConfig

__all__ = ["FedNova"]


def _effective_tau(steps: int, momentum: float) -> float:
    """Effective step count of SGD(m): sum of the geometric step weights.

    For plain SGD this is just ``steps``; with heavy-ball momentum m each
    gradient's total influence is amplified, giving
    ``(steps - m(1-m^steps)/(1-m)) / (1-m)``.
    """
    if momentum == 0.0:
        return float(steps)
    m = momentum
    return (steps - m * (1 - m**steps) / (1 - m)) / (1 - m)


class FedNova(Strategy):
    name = "fednova"

    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return {}

    def on_round_start(self, ctx: ClientRoundContext) -> None:
        ctx.scratch["steps"] = 0

    def local_step(self, ctx: ClientRoundContext, xb, yb) -> float:
        loss = super().local_step(ctx, xb, yb)
        ctx.scratch["steps"] += 1
        return loss

    def on_round_end(self, ctx: ClientRoundContext) -> None:
        momentum = getattr(ctx.optimizer, "momentum", 0.0)
        ctx.upload_extras["tau_eff"] = _effective_tau(ctx.scratch["steps"], momentum)

    def aggregate(
        self,
        updates: Sequence[ClientUpdate],
        global_flat: np.ndarray,
        server_state: Dict[str, Any],
        config: FLConfig,
    ) -> np.ndarray:
        total = sum(u.num_samples for u in updates)
        ps = [u.num_samples / total for u in updates]
        taus = [float(u.extras["tau_eff"]) for u in updates]
        tau_eff = sum(p * t for p, t in zip(ps, taus))
        scales = np.array(
            [tau_eff * p / max(tau, 1e-12) for p, tau in zip(ps, taus)],
            dtype=np.float64,
        )
        # w <- w - sum_k scale_k (w - w_k) = sum_k scale_k w_k + (1 - sum scale) w
        rows = [u.flat_vector() for u in updates] + [global_flat]
        coefs = np.append(scales, 1.0 - scales.sum())
        return fold_rows(rows, coefs, global_flat.size).astype(global_flat.dtype)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "normalized averaging",
            "information_utilization": "insufficient",
            "resource_cost": "low",
        }
