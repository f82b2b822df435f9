"""Centralized training baseline: the upper bound FL papers quote.

Pools every client's data and trains one model with plain mini-batch SGD —
no communication, no heterogeneity.  FL accuracy curves are read against
this ceiling; the gap FedTrip closes is the heterogeneity-induced part.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.federated import FederatedData
from repro.fl.evaluation import evaluate_model
from repro.models.fedmodel import FedModel
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD
from repro.utils.rng import RngStream

__all__ = ["CentralizedResult", "train_centralized"]


@dataclass
class CentralizedResult:
    """Per-epoch accuracy/loss of the pooled-data baseline."""

    accuracies: List[float]
    losses: List[float]
    model: FedModel

    @property
    def best_accuracy(self) -> float:
        return max(self.accuracies)

    def epochs_to_accuracy(self, target: float) -> Optional[int]:
        for i, acc in enumerate(self.accuracies):
            if acc >= target:
                return i + 1
        return None


def train_centralized(
    data: FederatedData,
    model: FedModel,
    epochs: int = 10,
    batch_size: int = 50,
    lr: float = 0.01,
    momentum: float = 0.9,
    seed: int = 0,
    eval_batch_size: int = 256,
) -> CentralizedResult:
    """Train ``model`` on the union of all client shards.

    Only the partitioned samples are pooled (not the full train split), so
    the comparison against the federated run uses exactly the same data.
    """
    if epochs <= 0 or batch_size <= 0 or lr <= 0:
        raise ValueError("epochs, batch_size and lr must be positive")
    pooled_idx = np.concatenate(data.client_shards)
    pooled = data.train.subset(pooled_idx)
    rng = RngStream(seed).child("centralized").generator
    loader = DataLoader(pooled, batch_size=batch_size, rng=rng, shuffle=True)
    criterion = CrossEntropyLoss()
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)

    accuracies: List[float] = []
    losses: List[float] = []
    for _ in range(epochs):
        model.train()
        epoch_losses = []
        for xb, yb in loader:
            logits = model(xb)
            loss, dlogits = criterion(logits, yb)
            model.zero_grad()
            model.backward(dlogits, input_grad=False)
            optimizer.step()
            epoch_losses.append(loss)
        acc, _ = evaluate_model(model, data.test, eval_batch_size)
        accuracies.append(acc)
        losses.append(float(np.mean(epoch_losses)))
    return CentralizedResult(accuracies=accuracies, losses=losses, model=model)
