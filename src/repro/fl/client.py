"""Client abstraction and the local-training round routine."""

from __future__ import annotations

import math
from typing import Any, Dict

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.fl.types import ClientUpdate, FLConfig
from repro.models.fedmodel import FedModel
from repro.nn.losses import CrossEntropyLoss
from repro.optim.base import Optimizer
from repro.utils.rng import RngStream

__all__ = ["Client", "run_client_round"]


class Client:
    """One participant: a data shard plus persistent per-strategy state.

    The client object itself is lightweight; models/optimizers are owned by
    the simulation's worker contexts so that shards can be trained in
    parallel without duplicating weights per client.
    """

    def __init__(self, client_id: int, dataset: ArrayDataset, seed: int = 0) -> None:
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty shard")
        self.id = int(client_id)
        self.dataset = dataset
        self.state: Dict[str, Any] = {}
        self._rng_root = RngStream(seed).child("client", client_id)

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def round_rng(self, round_idx: int) -> np.random.Generator:
        """Independent generator for this client's round (batch order etc.)."""
        return self._rng_root.child_generator("round", round_idx)

    def loader(self, batch_size: int, round_idx: int) -> DataLoader:
        return DataLoader(
            self.dataset,
            batch_size=batch_size,
            rng=self._rng_root.child_generator("batches", round_idx),
            shuffle=True,
        )

    def iterations_per_round(self, config: FLConfig) -> int:
        per_epoch = math.ceil(self.num_samples / config.batch_size)
        return per_epoch * config.local_epochs


def run_client_round(
    client: Client,
    strategy,
    ctx,
) -> ClientUpdate:
    """Execute one client's local training (Algorithm 1 lines 4-9).

    ``ctx`` is a fully prepared :class:`~repro.algorithms.base.ClientRoundContext`
    whose model already holds the global weights.  Returns the client update
    with measured FLOPs and communication charged per the cost model.
    """
    config: FLConfig = ctx.config
    model: FedModel = ctx.model
    model.train()
    ctx.optimizer.reset_state()
    strategy.on_round_start(ctx)

    # Running (count, sum) instead of a per-step list: long local epochs
    # must not accumulate unbounded Python floats just to take a mean.
    loss_sum = 0.0
    n_steps = 0
    for _ in range(config.local_epochs):
        loader = client.loader(config.batch_size, ctx.round_idx)
        for xb, yb in loader:
            loss_sum += strategy.local_step(ctx, xb, yb)
            n_steps += 1
    strategy.on_round_end(ctx)

    n_params = ctx.n_params
    # Base local computation: forward + backward (~2x forward) per sample
    # per epoch — the same convention as the paper's GFLOPs accounting.
    samples_processed = client.num_samples * config.local_epochs
    base_flops = samples_processed * 3.0 * ctx.fp_flops_per_sample
    # Optimizer arithmetic on |w| is negligible but we charge SGDm's 2|w|
    # per iteration for exactness.
    iterations = client.iterations_per_round(config)
    opt_flops = 2.0 * n_params * iterations
    total_flops = base_flops + opt_flops + ctx.extra_flops

    bytes_per_w = 4.0  # float32
    comm = (2.0 + strategy.extra_comm_units()) * n_params * bytes_per_w

    # Snapshot the trained model as one flat vector: on plane-backed
    # workers this is a single memcpy of the weight plane (no concatenate,
    # no per-layer ravel), the update's tree becomes zero-copy views of it,
    # and the server-side hot path (finite check, GEMM aggregation,
    # privacy/compression wrappers) consumes the vector directly.
    flat, shapes = model.get_weights_flat()
    return ClientUpdate.from_flat(
        flat,
        shapes,
        client_id=client.id,
        num_samples=client.num_samples,
        train_loss=loss_sum / n_steps if n_steps else float("nan"),
        extras=dict(ctx.upload_extras),
        flops=total_flops,
        comm_bytes=comm,
    )
