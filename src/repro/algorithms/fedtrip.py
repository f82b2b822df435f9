"""FedTrip — the paper's contribution (Sec. IV, Algorithm 1).

The local loss is augmented with a *triplet regularization term*::

    L = F(w) + (mu/2) [ ||w - w_glob||^2 - xi ||w - w_hist||^2 ]

whose gradient-level form, applied at every local iteration (Algorithm 1
line 7), is::

    h = grad F(w) + mu ( (w - w_glob) + xi (w_hist - w) )

* the anchor/positive pair ``(w, w_glob)`` keeps local updates consistent
  (FedProx's effect);
* the anchor/negative pair ``(w, w_hist)`` pushes the current model away
  from the client's *historical* local model, recovering the exploration /
  diversity information MOON obtains from expensive representation
  contrasts — at parameter-space cost (4|w| FLOPs per iteration, Table VIII)
  and zero extra communication.

``xi`` is the client's participation staleness: the number of rounds since
it last trained (Sec. IV-B: "the value of xi is set as the interval between
the current round and the last round of participating in training").  Under
low participation rates clients are stale, xi grows, and the push from the
old model strengthens — exactly the E[xi] = p ln p / (p-1) scaling analysed
in Theorem 1.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy

__all__ = ["FedTrip"]


class FedTrip(Strategy):
    """Triplet parameter-space regularization with staleness-scaled push.

    Parameters
    ----------
    mu:
        Regularization strength; the paper uses 1.0 for MLP experiments and
        0.4 elsewhere (Sec. V-A).
    xi_mode:
        ``"staleness"`` (paper): xi = rounds since last participation;
        ``"constant"``: xi = ``xi_value`` (ablation);
        ``"normalized"``: staleness divided by its expectation 1/p so the
        mean push strength is participation-invariant (extension/ablation).
    xi_value:
        The constant used by ``xi_mode="constant"``.
    historical_source:
        ``"last-local"`` (paper): the negative anchor is the client's own
        trained model from its previous participation;
        ``"last-global"``: ablation that pushes away from the global model
        the client received at its previous participation instead —
        isolates how much of FedTrip's gain comes from *client-specific*
        history.
    """

    name = "fedtrip"

    def __init__(
        self,
        mu: float = 0.4,
        xi_mode: str = "staleness",
        xi_value: float = 1.0,
        participation_rate: Optional[float] = None,
        historical_source: str = "last-local",
    ) -> None:
        if mu < 0:
            raise ValueError("mu must be non-negative")
        if xi_mode not in ("staleness", "constant", "normalized"):
            raise ValueError(f"unknown xi_mode {xi_mode!r}")
        if xi_mode == "normalized" and not participation_rate:
            raise ValueError("normalized xi needs participation_rate")
        if historical_source not in ("last-local", "last-global"):
            raise ValueError(f"unknown historical_source {historical_source!r}")
        self.mu = float(mu)
        self.xi_mode = xi_mode
        self.xi_value = float(xi_value)
        # A Python float keeps xi a weak scalar, so the attach op's
        # temporaries stay in the model's dtype (see modify_gradients).
        self.participation_rate = (
            float(participation_rate) if participation_rate is not None else None
        )
        self.historical_source = historical_source

    # ---------------- client ----------------
    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return {"historical": None, "last_round": None}

    def _xi(self, ctx: ClientRoundContext) -> float:
        last = ctx.state.get("last_round")
        if ctx.state.get("historical") is None or last is None:
            return 0.0
        if ctx.xi_measured is not None:
            # An event-driven mode measured this client's staleness on the
            # scheduler (server versions since its last dispatch); prefer
            # the physical quantity over round arithmetic.  In the sync
            # case the two coincide (a unit test pins the equivalence).
            staleness = max(float(ctx.xi_measured), 1.0)
        else:
            staleness = float(max(ctx.round_idx - last, 1))
        if self.xi_mode == "constant":
            return self.xi_value
        if self.xi_mode == "normalized":
            return staleness * self.participation_rate
        return float(staleness)

    def on_round_start(self, ctx: ClientRoundContext) -> None:
        ctx.scratch["xi"] = xi = self._xi(ctx)
        ctx.scratch["fedtrip.op"] = self._bind(ctx, xi, ctx.state.get("historical"))

    def _bind(self, ctx: ClientRoundContext, xi: float, hist):
        """Resolve everything the attach op reads into one tuple, once per
        round: ``(grads, w, gw, hist, pull, push, xi, mu, flops)``.  ``hist``
        is None when the push term is off; the whole binding is None when mu
        is zero.  The round's mu is read here, so a subclass setting
        ``scratch["mu"]`` must do so before this runs."""
        mu = ctx.scratch.get("mu", self.mu)
        if mu == 0.0:
            return None
        if not (xi > 0.0 and hist is not None):
            hist = None
        flops = (4.0 if hist is not None else 2.0) * ctx.n_params
        ws = ctx.workspace  # one worker serves one model: shapes never change
        w = ctx.flat_weights
        if "fedtrip.pull" not in ws:
            ws["fedtrip.pull"], ws["fedtrip.push"] = np.empty_like(w), np.empty_like(w)
        return (ctx.flat_grads, w, ctx.global_flat, hist,
                ws["fedtrip.pull"], ws["fedtrip.push"], xi, mu, flops)

    def modify_gradients(self, ctx: ClientRoundContext) -> None:
        """Algorithm 1 line 7: h += mu((w - w_glob) + xi(w_hist - w))."""
        op = ctx.scratch["fedtrip.op"]
        if op is None:
            return
        grads, w, gw, hist, pull, push, xi, mu, flops = op
        ctx.extra_flops += flops
        # grads += mu * ((w - gw) + xi * (hist - w)), operation for
        # operation, through two worker-resident buffers instead of five
        # fresh (P,) temporaries.  Exact because every operand shares the
        # plane dtype and mu, xi are Python floats (weak scalars): each
        # temporary of the expression has that dtype too.
        np.subtract(w, gw, out=pull)
        if hist is not None:
            np.subtract(hist, w, out=push)
            np.multiply(xi, push, out=push)
            np.add(pull, push, out=pull)
        np.multiply(mu, pull, out=pull)
        np.add(grads, pull, out=grads)

    def on_round_end(self, ctx: ClientRoundContext) -> None:
        # The freshly trained local model (paper) — or, under the ablation,
        # the received global model — becomes the historical anchor for this
        # client's next participation.  The whole model is snapshot with one
        # flat copy, written over the previous anchor when that is a
        # writeable vector of the same layout: the client's state-arena slot
        # then already holds the new bytes when the engine adopts the state,
        # so nothing is copied a second time.
        source = ctx.flat_weights if self.historical_source == "last-local" else ctx.global_flat
        held = ctx.state.get("historical")
        if (isinstance(held, np.ndarray) and held.shape == source.shape
                and held.dtype == source.dtype and held.flags.writeable):
            np.copyto(held, source)
        else:
            ctx.state["historical"] = source.copy()
        ctx.state["last_round"] = ctx.round_idx

    # ---------------- cost model ----------------
    def attach_flops_per_iteration(self, n_params: int, batch_size: int, fp_flops: float) -> float:
        return 4.0 * n_params  # Table VIII: 4K|w| per round with K iterations

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "family": "model regularization + historical information",
            "information_utilization": "sufficient",
            "resource_cost": "low",
        }
