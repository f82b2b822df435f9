#!/usr/bin/env python
"""Study FedTrip under the paper's four heterogeneity types (Fig. 4 + Fig. 6).

Partitions the same dataset with Dir-0.1, Dir-0.5, Orthogonal-5 and
Orthogonal-10, shows each partition's client label distribution (the data
behind Fig. 4), then trains FedTrip and FedAvg on every partition and
reports final accuracies (the Fig. 6 comparison at mini scale).

Run:  python examples/heterogeneity_study.py [--rounds N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.data import heterogeneity_summary


PARTITIONS = [
    ("Dir-0.1", "dirichlet", {"alpha": 0.1}),
    ("Dir-0.5", "dirichlet", {"alpha": 0.5}),
    ("Orthogonal-5", "orthogonal", {"n_clusters": 5}),
    ("Orthogonal-10", "orthogonal", {"n_clusters": 10}),
]


def print_label_matrix(name: str, counts: np.ndarray) -> None:
    """Fig. 4 as text: one row per client, one column per class."""
    print(f"\n{name}: client x class label counts")
    header = "        " + " ".join(f"c{c:<4d}" for c in range(counts.shape[1]))
    print(header)
    for k, row in enumerate(counts):
        cells = " ".join(f"{v:<5d}" for v in row)
        print(f"  cl{k:<3d} {cells}")
    summary = heterogeneity_summary(counts)
    print(f"  mean classes/client = {summary['mean_classes_per_client']:.1f}, "
          f"normalized entropy = {summary['mean_normalized_entropy']:.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--dataset", default="mini_mnist")
    args = parser.parse_args()

    config = FLConfig(
        rounds=args.rounds, n_clients=10, clients_per_round=4,
        batch_size=50, lr=0.05, seed=0,
    )

    results = {}
    for label, kind, kwargs in PARTITIONS:
        data = build_federated_data(
            args.dataset, n_clients=10, partition=kind, seed=0, **kwargs
        )
        print_label_matrix(label, data.label_counts())
        row = {}
        for method in ("fedtrip", "fedavg"):
            strategy = build_strategy(method, model="mlp", dataset=args.dataset)
            sim = Engine(data, strategy, config, model_name="mlp")
            hist = sim.run()
            row[method] = hist.final_accuracy_stats(last_k=5)
            sim.close()
        results[label] = row

    print("\n=== final accuracy under each heterogeneity type (Fig. 6 style) ===")
    print(f"{'partition':>14} {'fedtrip':>10} {'fedavg':>10} {'advantage':>10}")
    for label, row in results.items():
        t, a = row["fedtrip"]["mean"], row["fedavg"]["mean"]
        print(f"{label:>14} {t:>10.2f} {a:>10.2f} {t - a:>+10.2f}")


if __name__ == "__main__":
    main()
