"""Global-model evaluation on the server-side test set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.fedmodel import FedModel
from repro.nn.losses import CrossEntropyLoss

__all__ = [
    "EvalShard",
    "evaluate_model",
    "fold_scores",
    "full_batch_gradient",
    "score_batches",
    "shard_batches",
]

#: one test batch's score: ``(mean loss, n samples, n correct)``.
BatchScore = Tuple[float, int, int]


@dataclass(frozen=True)
class EvalShard:
    """A run of whole test batches ``[start, stop)`` (batch indices, not
    sample indices), scored on a worker's installed broadcast."""

    start: int
    stop: int
    batch_size: int


def score_batches(
    model: FedModel,
    dataset: ArrayDataset,
    batch_size: int = 256,
    start: int = 0,
    stop: Optional[int] = None,
) -> List[BatchScore]:
    """Score test batches ``start..stop`` in eval mode, one
    :data:`BatchScore` per batch.

    Iterates sequential slices (no shuffle needed for evaluation) so memory
    stays bounded even for the paper-scale test splits.
    """
    criterion = CrossEntropyLoss()
    was_training = model.training
    model.eval()
    n = len(dataset)
    stop = -(-n // batch_size) if stop is None else stop
    scores: List[BatchScore] = []
    try:
        for lo in range(start * batch_size, min(stop * batch_size, n), batch_size):
            xb = dataset.x[lo : lo + batch_size]
            yb = dataset.y[lo : lo + batch_size]
            logits = model(xb)
            loss, _ = criterion(logits, yb)
            scores.append((loss, xb.shape[0], int((np.argmax(logits, axis=1) == yb).sum())))
    finally:
        model.train(was_training)
    return scores


def fold_scores(scores: Sequence[BatchScore], n: int) -> Tuple[float, float]:
    """``(accuracy_percent, mean_loss)`` of batch scores in batch order.

    The loss is a float fold, so the order is part of the result: scores
    gathered from shards must be concatenated by batch index first.
    """
    correct = 0
    loss_sum = 0.0
    for loss, size, hits in scores:
        loss_sum += loss * size
        correct += hits
    return 100.0 * correct / n, loss_sum / n


def shard_batches(n: int, batch_size: int, n_shards: int) -> List[EvalShard]:
    """Split the ``ceil(n / batch_size)`` test batches into at most
    ``n_shards`` contiguous runs of near-equal length, in batch order."""
    n_batches = -(-n // batch_size)
    n_shards = max(1, min(n_shards, n_batches))
    cuts = [n_batches * i // n_shards for i in range(n_shards + 1)]
    return [EvalShard(lo, hi, batch_size) for lo, hi in zip(cuts, cuts[1:])]


def evaluate_model(
    model: FedModel,
    dataset: ArrayDataset,
    batch_size: int = 256,
) -> Tuple[float, float]:
    """Return ``(accuracy_percent, mean_loss)`` in eval mode."""
    return fold_scores(score_batches(model, dataset, batch_size), len(dataset))


def full_batch_gradient(
    model: FedModel,
    dataset: ArrayDataset,
    batch_size: int = 256,
):
    """Gradient of the mean loss over the whole local dataset.

    Needed by FedDANE's gradient correction and MimeLite's server momentum.
    The model's weights are left untouched; its gradient buffers hold the
    result, which is returned as a detached copy.
    """
    criterion = CrossEntropyLoss()
    model.train()
    model.zero_grad()
    n = len(dataset)
    for start in range(0, n, batch_size):
        xb = dataset.x[start : start + batch_size]
        yb = dataset.y[start : start + batch_size]
        logits = model(xb)
        _, dlogits = criterion(logits, yb)
        # criterion grad is mean over the batch; rescale so the accumulated
        # sum equals the mean over the full dataset.
        model.backward(dlogits * (xb.shape[0] / n), input_grad=False)
    return [np.array(p.grad, copy=True) for p in model.parameters()]
