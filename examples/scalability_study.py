#!/usr/bin/env python
"""Low-participation scalability: 4-of-10 vs 4-of-50 clients (Table VI).

In the 4-of-50 regime a client participates on average once every 12.5
rounds, so FedTrip's staleness-scaled xi grows large and the historical
push matters more.  This example also prints the Theorem 1 quantity
E[xi] = p ln p / (p - 1) for both regimes.

Run:  python examples/scalability_study.py [--rounds N]
"""

from __future__ import annotations

import argparse

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.analysis import expected_xi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--dataset", default="mini_mnist")
    parser.add_argument("--target", type=float, default=70.0)
    args = parser.parse_args()

    regimes = [("4-of-10", 10, 200), ("4-of-50", 50, 80)]
    methods = ("fedtrip", "fedavg", "fedprox", "moon")

    for label, n_clients, per_client in regimes:
        p = 4 / n_clients
        print(f"\n=== {label}: participation p={p:.2f}, "
              f"E[xi]={expected_xi(p):.3f} (Theorem 1 coefficient) ===")
        data = build_federated_data(
            args.dataset, n_clients=n_clients, partition="dirichlet",
            alpha=0.5, seed=0, samples_per_client=per_client,
        )
        config = FLConfig(
            rounds=args.rounds, n_clients=n_clients, clients_per_round=4,
            batch_size=40, lr=0.05, seed=0,
        )
        print(f"{'method':>9} {'best acc %':>11} {'rounds to ' + str(args.target) + '%':>15}")
        for method in methods:
            strategy = build_strategy(method, model="mlp", dataset=args.dataset)
            sim = Engine(data, strategy, config, model_name="mlp")
            hist = sim.run()
            r = hist.rounds_to_accuracy(args.target)
            print(f"{method:>9} {hist.best_accuracy():>11.2f} "
                  f"{str(r) if r is not None else '>' + str(args.rounds):>15}")
            sim.close()


if __name__ == "__main__":
    main()
