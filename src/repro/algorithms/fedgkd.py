"""FedGKD — global knowledge distillation (Yao et al., 2021).

The related-work representation method that aligns local and global
*representations* without using historical models: each local step distils
the frozen global model's logits into the local model,

``L = CE(w; batch) + gamma * KL(softmax(glob/T) || softmax(local/T))``

One extra forward pass through the frozen global model per batch — cheaper
than MOON's two, still far above FedTrip's 4|w| parameter ops.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.nn.losses import KLDivLoss

__all__ = ["FedGKD"]


class FedGKD(Strategy):
    name = "fedgkd"

    def __init__(self, gamma: float = 0.2, temperature: float = 2.0) -> None:
        if gamma < 0:
            raise ValueError("gamma must be non-negative")
        self.gamma = float(gamma)
        self.kl = KLDivLoss(temperature)

    def local_step(self, ctx: ClientRoundContext, xb, yb) -> float:
        model, frozen = ctx.model, ctx.frozen
        logits = model(xb)
        loss_ce, dlogits = ctx.criterion(logits, yb)

        frozen.eval()
        frozen.set_weights(ctx.global_weights)
        teacher_logits = frozen(xb)
        loss_kd, dkd = self.kl(logits, teacher_logits)

        model.zero_grad()
        model.backward(dlogits + self.gamma * dkd, input_grad=False)
        self.maybe_clip(ctx)
        ctx.optimizer.step()
        ctx.extra_flops += xb.shape[0] * ctx.fp_flops_per_sample
        return loss_ce + self.gamma * loss_kd

    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return batch_size * fp_flops

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "model representation",
            "information_utilization": "partial (no historical models)",
            "resource_cost": "medium",
        }
