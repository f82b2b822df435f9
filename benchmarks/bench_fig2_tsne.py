"""Fig. 2: t-SNE of feature representations — global vs local vs historical.

The paper trains FedAvg's CNN on MNIST and embeds test-set features of (a)
the global model at round 50, (b) client 1's local model at round 50, and
(c) client 1's local model at round 30.  The figure supports two orderings
that motivate FedTrip's triplet term:

* the global model separates classes better than a client's local model
  (so pull the local model toward the global one);
* a newer local model beats an older one (so push away from the historical
  local model, not toward it).

At mini scale we use rounds 24 vs 12, give the local models 5 local epochs
on client 1's skewed shard (as drift accumulates over many paper-scale
iterations), and report both the t-SNE class-separation ratio (the visual
quantity) and global test accuracy (the assertable proxy).
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from harness import get_data, print_table, save_json
from repro import FLConfig, Engine
from repro.algorithms import FedAvg
from repro.analysis import tsne
from repro.fl.evaluation import evaluate_model
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD

ROUNDS = 24
MID_ROUND = 12
LOCAL_EPOCHS = 5
N_EMBED = 200


def _class_separation(embedding: np.ndarray, labels: np.ndarray) -> float:
    """Mean between-class centroid distance / mean within-class spread."""
    classes = np.unique(labels)
    centroids = np.stack([embedding[labels == c].mean(axis=0) for c in classes])
    within = np.mean(
        [np.linalg.norm(embedding[labels == c] - centroids[i], axis=1).mean()
         for i, c in enumerate(classes)]
    )
    diffs = centroids[:, None, :] - centroids[None, :, :]
    between = np.linalg.norm(diffs, axis=-1)[np.triu_indices(len(classes), k=1)].mean()
    return float(between / max(within, 1e-9))


def _train_local(model, dataset, lr: float, epochs: int) -> None:
    """Plain local SGDm training, as a FedAvg client would run."""
    crit = CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=lr, momentum=0.9)
    model.train()
    for _ in range(epochs):
        for start in range(0, len(dataset), 50):
            xb = dataset.x[start : start + 50]
            yb = dataset.y[start : start + 50]
            logits = model(xb)
            _, d = crit(logits, yb)
            model.zero_grad()
            model.backward(d)
            opt.step()


def _run():
    data = get_data("mini_mnist", 10, "dirichlet", alpha=0.5)
    config = FLConfig(rounds=ROUNDS, n_clients=10, clients_per_round=4,
                      batch_size=50, lr=0.02, seed=0)
    sim = Engine(data, FedAvg(), config, model_name="cnn")
    snapshots = {}
    for t in range(ROUNDS):
        sim.run_round()
        if t + 1 in (MID_ROUND, ROUNDS):
            snapshots[t + 1] = [w.copy() for w in sim.server.weights]

    x = data.test.x[:N_EMBED]
    y = data.test.y[:N_EMBED]
    shard = data.client_dataset(1)
    model = sim.global_model()

    panels = {}
    # (a) global model at the final round.
    model.set_weights(snapshots[ROUNDS])
    panels[f"global_r{ROUNDS}"] = model.get_weights()
    # (b, c) client 1's local models from the final and mid checkpoints.
    for r in (ROUNDS, MID_ROUND):
        model.set_weights(snapshots[r])
        _train_local(model, shard, config.lr, LOCAL_EPOCHS)
        panels[f"local1_r{r}"] = model.get_weights()

    out = {}
    for name, weights in panels.items():
        model.set_weights(weights)
        model.eval()
        _, z = model.forward_with_features(x)
        emb = tsne(z, perplexity=25, iterations=250, seed=0)
        acc, _ = evaluate_model(model, data.test)
        out[name] = {
            "tsne_separation": _class_separation(emb, y),
            "test_accuracy": acc,
        }
    sim.close()
    return out


def test_fig2_tsne(benchmark):
    out = run_once(benchmark, _run)
    print_table(
        "Fig. 2: feature quality of global vs local vs historical models",
        ["panel", "t-SNE separation", "test accuracy %"],
        [[k, f"{v['tsne_separation']:.3f}", f"{v['test_accuracy']:.2f}"]
         for k, v in out.items()],
    )
    save_json("fig2", out)

    g = out[f"global_r{ROUNDS}"]
    l_new = out[f"local1_r{ROUNDS}"]
    l_old = out[f"local1_r{MID_ROUND}"]
    # Ordering 1: the global model generalizes better than the drifted local.
    assert g["test_accuracy"] > l_new["test_accuracy"], (g, l_new)
    # Ordering 2: the newer local model beats the older (historical) one.
    assert l_new["test_accuracy"] > l_old["test_accuracy"] - 1.0, (l_new, l_old)
    assert g["test_accuracy"] > l_old["test_accuracy"], (g, l_old)
