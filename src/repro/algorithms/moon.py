"""MOON — model-contrastive federated learning (Li, He & Song, CVPR 2021).

The representation-based competitor the paper positions FedTrip against.
Each local step adds ``mu * l_con`` where ``l_con`` contrasts the current
model's representation ``z`` with the global model's ``z_glob`` (positive)
and the client's previous local model's ``z_prev`` (negative):

``l_con = -log exp(sim(z, z_glob)/tau) / (exp(sim(z, z_glob)/tau) +
exp(sim(z, z_prev)/tau))``

This needs (1 + p) extra *forward passes per batch* (p = number of history
models, 1 here): one through the frozen global model and one through the
frozen previous model — the "tremendous computation cost" motivating
FedTrip.  Our cost hooks charge exactly those forwards, which is how Table V
reproduces MOON's order-of-magnitude overhead.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.nn.losses import ModelContrastiveLoss
from repro.utils.vectorize import tree_copy

__all__ = ["MOON"]


class MOON(Strategy):
    name = "moon"

    def __init__(self, mu: float = 1.0, temperature: float = 0.5, history_depth: int = 1) -> None:
        if mu < 0:
            raise ValueError("mu must be non-negative")
        if history_depth != 1:
            raise NotImplementedError("this reproduction keeps one previous model, as in the paper")
        self.mu = float(mu)
        self.contrastive = ModelContrastiveLoss(temperature)
        self.history_depth = history_depth

    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return {"previous": None}

    def on_round_start(self, ctx: ClientRoundContext) -> None:
        # First participation: MOON falls back to the global model as the
        # "previous" network (standard implementation behaviour).
        prev = ctx.state.get("previous")
        ctx.scratch["prev_weights"] = prev if prev is not None else tree_copy(ctx.global_weights)

    def local_step(self, ctx: ClientRoundContext, xb, yb) -> float:
        model, frozen = ctx.model, ctx.frozen
        logits, z = model.forward_with_features(xb)
        loss_ce, dlogits = ctx.criterion(logits, yb)

        # Reference representations from the frozen global & previous models.
        frozen.eval()
        frozen.set_weights(ctx.global_weights)
        _, z_glob = frozen.forward_with_features(xb)
        frozen.set_weights(ctx.scratch["prev_weights"])
        _, z_prev = frozen.forward_with_features(xb)

        loss_con, dz = self.contrastive(z, z_glob, z_prev)
        model.zero_grad()
        model.backward(dlogits, dfeatures=self.mu * dz, input_grad=False)
        self.maybe_clip(ctx)
        ctx.optimizer.step()
        # Cost: (1 + p) extra forward passes for the whole batch.
        ctx.extra_flops += (1 + self.history_depth) * xb.shape[0] * ctx.fp_flops_per_sample
        return loss_ce + self.mu * loss_con

    def on_round_end(self, ctx: ClientRoundContext) -> None:
        ctx.state["previous"] = tree_copy(ctx.model.weight_refs())

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return (1 + self.history_depth) * batch_size * fp_flops  # Table VIII: K M (1+p) FP

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "model representation",
            "information_utilization": "sufficient",
            "resource_cost": "high",
        }
