"""Client-level differential privacy for federated updates (extension).

DP-FedAvg-style (McMahan et al., ICLR 2018): each client's model *update*
``w_k - w_g`` is L2-clipped to ``clip_norm`` and Gaussian noise is added
before (or, equivalently under secure aggregation, after) averaging:

``update' = update * min(1, C / ||update||) + N(0, (sigma C)^2 / K)``

* :class:`GaussianMechanism` — clip + noise on a weight tree;
* :class:`PrivacyAccountant` — (epsilon, delta) tracking under basic and
  advanced composition (no moments accountant; documented as the coarser
  bound it is);
* :class:`PrivateAggregationWrapper` — wraps any Strategy so its aggregate
  sees privatized updates, composing with FedAvg/FedProx/FedTrip etc.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

import numpy as np

from repro.algorithms.base import Strategy
from repro.fl.params import as_flat
from repro.fl.types import ClientUpdate, FLConfig
from repro.utils.rng import RngStream
from repro.utils.vectorize import unflatten_like

__all__ = ["GaussianMechanism", "PrivacyAccountant", "PrivateAggregationWrapper"]


class GaussianMechanism:
    """Clip an update to ``clip_norm`` and add Gaussian noise.

    ``noise_multiplier`` is sigma in units of the clip norm (the standard
    parameterization): per-coordinate noise std = ``noise_multiplier *
    clip_norm``.  Noise is drawn from a dedicated stream keyed by
    ``(round, client)`` for reproducibility.

    The mechanism natively operates on one flat vector
    (:meth:`clip_flat` / :meth:`privatize_flat` — two vectorized
    expressions, no per-layer loops); the tree API wraps the flat path.
    """

    def __init__(self, clip_norm: float, noise_multiplier: float, seed: int = 0) -> None:
        if clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if noise_multiplier < 0:
            raise ValueError("noise_multiplier must be non-negative")
        self.clip_norm = float(clip_norm)
        self.noise_multiplier = float(noise_multiplier)
        self._root = RngStream(seed).child("dp")

    # ---- flat fast path --------------------------------------------------
    def clip_flat(self, update: np.ndarray, copy: bool = True) -> np.ndarray:
        """Scale a flat update so its L2 norm is at most ``clip_norm``.

        ``copy=False`` clips in place — for callers that own the vector
        (a fresh flatten or a delta temporary) and want to skip the
        defensive allocation.
        """
        v64 = update.astype(np.float64, copy=False)
        norm = math.sqrt(float(np.dot(v64, v64)))
        out = update.copy() if copy else update
        if norm > self.clip_norm:
            out *= self.clip_norm / norm
        return out

    def privatize_flat(
        self, update: np.ndarray, round_idx: int, client_id: int, copy: bool = True
    ) -> np.ndarray:
        """Clip then add N(0, (sigma C)^2) per coordinate, on the vector."""
        out = self.clip_flat(update, copy=copy)
        if self.noise_multiplier > 0:
            rng = self._root.child(round_idx, client_id).generator
            std = self.noise_multiplier * self.clip_norm
            out += std * rng.standard_normal(out.size).astype(out.dtype)
        return out

    # ---- tree compatibility API ------------------------------------------
    def clip(self, update: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Scale the tree so its global L2 norm is at most ``clip_norm``."""
        # as_flat returns fresh memory: clip it in place
        return unflatten_like(self.clip_flat(as_flat(update), copy=False), update)

    def privatize(
        self, update: Sequence[np.ndarray], round_idx: int, client_id: int
    ) -> List[np.ndarray]:
        """Clip then add N(0, (sigma C)^2) per coordinate."""
        return unflatten_like(
            self.privatize_flat(as_flat(update), round_idx, client_id, copy=False), update)


class PrivacyAccountant:
    """(epsilon, delta) budget tracking for the Gaussian mechanism.

    Uses the classical single-release bound
    ``epsilon_step = sqrt(2 ln(1.25/delta)) / sigma`` (valid for sigma >=
    ~1) and composes it across rounds with either basic (linear) or
    advanced (Kairouz et al.) composition.  This is intentionally the
    textbook accountant — coarser than RDP/moments — and the docstring is
    the contract: bounds are *upper* bounds.
    """

    def __init__(self, noise_multiplier: float, delta: float = 1e-5) -> None:
        if noise_multiplier <= 0:
            raise ValueError("accounting requires positive noise")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self.noise_multiplier = float(noise_multiplier)
        self.delta = float(delta)
        self.steps = 0

    @property
    def epsilon_per_step(self) -> float:
        return math.sqrt(2.0 * math.log(1.25 / self.delta)) / self.noise_multiplier

    def record_round(self, n_rounds: int = 1) -> None:
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        self.steps += n_rounds

    def epsilon(self, advanced: bool = True) -> float:
        """Total epsilon after the recorded rounds (delta' = delta overall)."""
        k = self.steps
        if k == 0:
            return 0.0
        eps = self.epsilon_per_step
        if not advanced:
            return k * eps
        # Advanced composition with delta_slack = delta:
        # eps_total = eps sqrt(2k ln(1/delta)) + k eps (e^eps - 1)
        return eps * math.sqrt(2.0 * k * math.log(1.0 / self.delta)) + k * eps * (
            math.expm1(eps)
        )


class PrivateAggregationWrapper(Strategy):
    """Decorate a base strategy with update clipping + noising.

    Client updates arriving at ``aggregate`` are replaced by privatized
    versions ``w_g + privatize(w_k - w_g)``; everything else (client hooks,
    broadcasts, post-aggregation) is forwarded to the base strategy.  The
    per-round privacy cost is tracked in :attr:`accountant`.
    """

    def __init__(
        self,
        base: Strategy,
        clip_norm: float = 1.0,
        noise_multiplier: float = 1.0,
        delta: float = 1e-5,
        seed: int = 0,
    ) -> None:
        self.base = base
        self.name = f"dp({base.name})"
        self.local_optimizer = base.local_optimizer
        self.needs_preamble = base.needs_preamble
        self.mechanism = GaussianMechanism(clip_norm, noise_multiplier, seed=seed)
        self.accountant = (
            PrivacyAccountant(noise_multiplier, delta) if noise_multiplier > 0 else None
        )

    # ---- forwarded hooks -------------------------------------------------
    def server_init(self, global_weights, config: FLConfig) -> Dict[str, Any]:
        return self.base.server_init(global_weights, config)

    def server_broadcast(self, server_state, round_idx):
        return self.base.server_broadcast(server_state, round_idx)

    def server_preamble(self, server_state, preambles, global_weights, round_idx):
        return self.base.server_preamble(server_state, preambles, global_weights, round_idx)

    def client_preamble(self, ctx, full_grad):
        return self.base.client_preamble(ctx, full_grad)

    def init_client_state(self, client_id: int) -> Dict[str, Any]:
        return self.base.init_client_state(client_id)

    def on_round_start(self, ctx) -> None:
        self.base.on_round_start(ctx)

    def local_step(self, ctx, xb, yb) -> float:
        return self.base.local_step(ctx, xb, yb)

    def modify_gradients(self, ctx) -> None:
        self.base.modify_gradients(ctx)

    def on_round_end(self, ctx) -> None:
        self.base.on_round_end(ctx)

    def extra_comm_units(self) -> float:
        return self.base.extra_comm_units()

    def attach_flops_per_iteration(self, n_params, batch_size, fp_flops) -> float:
        return self.base.attach_flops_per_iteration(n_params, batch_size, fp_flops)

    # ---- the privacy boundary ---------------------------------------------
    def aggregate(self, updates: Sequence[ClientUpdate], global_weights, server_state, config):
        round_idx = server_state.get("_dp_round", 0)
        # Flatten the global model once per round; each update is then three
        # vector expressions (delta, privatize, reassemble) instead of
        # 3 x L per-layer loops.
        g_flat = as_flat(global_weights)
        shapes = [np.shape(g) for g in global_weights]
        private_updates = []
        for u in updates:
            # the delta is a fresh temporary; privatize it in place
            noised = self.mechanism.privatize_flat(
                u.flat_vector() - g_flat, round_idx, u.client_id, copy=False
            )
            noised += g_flat
            private_updates.append(
                ClientUpdate.from_flat(
                    noised,
                    shapes,
                    client_id=u.client_id,
                    num_samples=u.num_samples,
                    train_loss=u.train_loss,
                    extras=u.extras,
                    flops=u.flops,
                    comm_bytes=u.comm_bytes,
                )
            )
        server_state["_dp_round"] = round_idx + 1
        if self.accountant is not None:
            self.accountant.record_round()
        return self.base.aggregate(private_updates, global_weights, server_state, config)

    def post_aggregate(self, new_weights, old_weights, updates, server_state, config):
        return self.base.post_aggregate(new_weights, old_weights, updates, server_state, config)

    def describe(self) -> Dict[str, Any]:
        d = self.base.describe()
        d["name"] = self.name
        d["privacy"] = (
            f"clip={self.mechanism.clip_norm}, sigma={self.mechanism.noise_multiplier}"
        )
        return d
