"""Update compression: quantization and sparsification (extension).

The paper's introduction motivates FL partly by communication overhead;
a natural companion to FedTrip's round-count reduction is per-round payload
reduction.  This module provides the two standard lossy compressors used
in the FL literature, applied to the *update* (w_k - w_glob) rather than
the raw weights (updates are near-zero-centred, which both schemes need):

* :class:`QuantizationCompressor` — uniform stochastic quantization to
  ``bits`` bits per element (QSGD-style), unbiased;
* :class:`TopKCompressor` — keep the largest-|.|.| fraction of entries,
  biased but very sparse.

Compressors transform a weight tree into a (payload, bytes) pair and back.
They compose with any Strategy by wrapping aggregation at the simulation
boundary; see ``CompressedExchange``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.utils.vectorize import flatten_arrays, unflatten_like

__all__ = ["QuantizationCompressor", "TopKCompressor", "CompressedExchange"]


class QuantizationCompressor:
    """Unbiased uniform stochastic quantization of a flat update vector.

    Each entry is scaled into ``[0, 2^bits - 1]`` levels of its tree-wide
    max-abs range and rounded stochastically so E[decode(encode(x))] = x.
    """

    def __init__(self, bits: int = 8, seed: int = 0) -> None:
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        self.bits = int(bits)
        self._rng = np.random.default_rng(seed)

    @property
    def levels(self) -> int:
        return (1 << self.bits) - 1

    def encode_flat(self, flat: np.ndarray) -> Tuple[dict, float]:
        """Quantize one flat update vector (the native entry point)."""
        flat = np.asarray(flat, dtype=np.float64)
        scale = float(np.max(np.abs(flat))) if flat.size else 0.0
        if scale == 0.0:
            q = np.zeros(flat.size, dtype=np.uint16)
        else:
            norm = (flat / scale + 1.0) / 2.0 * self.levels  # [0, levels]
            lo = np.floor(norm)
            q = (lo + (self._rng.random(flat.size) < (norm - lo))).astype(np.uint16)
        payload = {"q": q, "scale": scale, "bits": self.bits}
        nbytes = flat.size * self.bits / 8.0 + 8
        return payload, nbytes

    def decode_flat(self, payload: dict) -> np.ndarray:
        """Dequantize back to one float32 flat vector."""
        q = payload["q"].astype(np.float64)
        flat = (q / self.levels * 2.0 - 1.0) * payload["scale"]
        return flat.astype(np.float32)

    def encode(self, tree: Sequence[np.ndarray]) -> Tuple[dict, float]:
        return self.encode_flat(flatten_arrays(tree))

    def decode(self, payload: dict, template: Sequence[np.ndarray]) -> List[np.ndarray]:
        return [a.astype(np.float32) for a in unflatten_like(self.decode_flat(payload), template)]


class TopKCompressor:
    """Magnitude top-k sparsification of a flat update vector."""

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = float(fraction)

    def encode_flat(self, flat: np.ndarray) -> Tuple[dict, float]:
        """Sparsify one flat update vector (the native entry point)."""
        k = max(1, int(round(self.fraction * flat.size)))
        idx = np.argpartition(np.abs(flat), -k)[-k:]
        payload = {"idx": idx.astype(np.int64), "val": flat[idx], "size": flat.size}
        nbytes = k * (4 + 4)  # 4-byte index + float32 value per entry
        return payload, float(nbytes)

    def decode_flat(self, payload: dict) -> np.ndarray:
        """Scatter the kept entries back into a dense float32 flat vector."""
        flat = np.zeros(payload["size"], dtype=np.float32)
        flat[payload["idx"]] = payload["val"]
        return flat

    def encode(self, tree: Sequence[np.ndarray]) -> Tuple[dict, float]:
        return self.encode_flat(flatten_arrays(tree))

    def decode(self, payload: dict, template: Sequence[np.ndarray]) -> List[np.ndarray]:
        return unflatten_like(self.decode_flat(payload), template)


@dataclass
class CompressedExchange:
    """Round-trip an update tree through a compressor.

    ``apply(update_tree) -> (reconstructed_tree, bytes_on_wire)``.  Used by
    benches/examples to quantify the accuracy/bytes trade-off; integrating
    lossy exchange into the main engine is intentionally explicit (the
    paper's methods are all full-precision).
    """

    compressor: object

    def apply(self, tree: Sequence[np.ndarray]) -> Tuple[List[np.ndarray], float]:
        payload, nbytes = self.compressor.encode(tree)
        return self.compressor.decode(payload, tree), nbytes


class CompressedUploadWrapper:
    """Decorate any Strategy so client *uploads* go through a compressor.

    The server reconstructs ``w_g + decode(encode(w_k - w_g))`` before the
    base strategy's aggregation, and each update's ``comm_bytes`` is
    re-charged as downlink(full model) + uplink(compressed payload) — the
    standard FL compression deployment (downlink broadcast stays full
    precision).  Composes with FedAvg/FedProx/FedTrip/...

    Import-cycle note: Strategy lives in ``repro.algorithms.base``, which
    imports ``repro.fl.aggregation``; this class therefore duck-types the
    Strategy interface instead of subclassing it.
    """

    def __init__(self, base, compressor) -> None:
        self.base = base
        self.compressor = compressor
        self.name = f"compressed({base.name})"
        self.local_optimizer = base.local_optimizer
        self.needs_preamble = base.needs_preamble

    # Forwarded hooks ------------------------------------------------------
    def server_init(self, global_flat, config):
        return self.base.server_init(global_flat, config)

    def server_broadcast(self, server_state, round_idx):
        return self.base.server_broadcast(server_state, round_idx)

    def server_preamble(self, server_state, preambles, global_flat, round_idx):
        return self.base.server_preamble(server_state, preambles, global_flat, round_idx)

    def client_preamble(self, ctx, full_grad):
        return self.base.client_preamble(ctx, full_grad)

    def init_client_state(self, client_id):
        return self.base.init_client_state(client_id)

    def on_round_start(self, ctx):
        self.base.on_round_start(ctx)

    def local_step(self, ctx, xb, yb):
        return self.base.local_step(ctx, xb, yb)

    def modify_gradients(self, ctx):
        self.base.modify_gradients(ctx)

    def on_round_end(self, ctx):
        self.base.on_round_end(ctx)

    def extra_comm_units(self):
        return self.base.extra_comm_units()

    def attach_flops_per_iteration(self, n_params, batch_size, fp_flops):
        return self.base.attach_flops_per_iteration(n_params, batch_size, fp_flops)

    def post_aggregate(self, new_flat, old_flat, updates, server_state, config):
        return self.base.post_aggregate(new_flat, old_flat, updates, server_state, config)

    def describe(self):
        d = self.base.describe()
        d["name"] = self.name
        d["compression"] = type(self.compressor).__name__
        return d

    # The compression boundary ----------------------------------------------
    def aggregate(self, updates, global_flat, server_state, config):
        from repro.fl.types import ClientUpdate  # local import, no cycle

        # The round-trip (delta -> encode -> decode -> reconstruct) is four
        # vector expressions per update.
        reconstructed = []
        for u in updates:
            payload, nbytes = self.compressor.encode_flat(u.flat_vector() - global_flat)
            back = self.compressor.decode_flat(payload).astype(global_flat.dtype)
            back += global_flat
            # Re-charge the original update's communication so the history's
            # cost tracking reflects the compressed uplink (the simulation
            # reads these same objects for bookkeeping after aggregation).
            u.comm_bytes = global_flat.size * 4.0 + float(nbytes)
            reconstructed.append(
                ClientUpdate.from_flat(
                    back,
                    [np.shape(w) for w in u.weights],
                    client_id=u.client_id,
                    num_samples=u.num_samples,
                    train_loss=u.train_loss,
                    extras=u.extras,
                    flops=u.flops,
                    comm_bytes=u.comm_bytes,
                )
            )
        return self.base.aggregate(reconstructed, global_flat, server_state, config)
