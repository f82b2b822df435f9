"""Global-model evaluation on the server-side test set."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.models.fedmodel import FedModel
from repro.nn.losses import CrossEntropyLoss

__all__ = ["evaluate_model", "full_batch_gradient"]


def evaluate_model(
    model: FedModel,
    dataset: ArrayDataset,
    batch_size: int = 256,
) -> Tuple[float, float]:
    """Return ``(accuracy_percent, mean_loss)`` in eval mode.

    Iterates sequential slices (no shuffle needed for evaluation) so memory
    stays bounded even for the paper-scale test splits.
    """
    criterion = CrossEntropyLoss()
    was_training = model.training
    model.eval()
    correct = 0
    loss_sum = 0.0
    n = len(dataset)
    try:
        for start in range(0, n, batch_size):
            xb = dataset.x[start : start + batch_size]
            yb = dataset.y[start : start + batch_size]
            logits = model(xb)
            loss, _ = criterion(logits, yb)
            loss_sum += loss * xb.shape[0]
            correct += int((np.argmax(logits, axis=1) == yb).sum())
    finally:
        model.train(was_training)
    return 100.0 * correct / n, loss_sum / n


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
