#!/usr/bin/env python
"""Sweep FedTrip's regularization strength mu (the paper's Fig. 7).

For each mu in a grid spanning the paper's [0.1, 2.5] range, trains FedTrip
and reports the final/best accuracy and the rounds needed to reach a target
accuracy.  The paper's finding to look for: accuracy peaks at moderate mu
(~0.4), convergence keeps accelerating a bit past that, and large mu trades
accuracy away — so resource-constrained deployments pick a larger mu,
accuracy-critical ones a smaller mu.

Run:  python examples/mu_sensitivity.py [--rounds N]
"""

from __future__ import annotations

import argparse

from repro import FLConfig, FedTrip, Engine, build_federated_data


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--dataset", default="mini_mnist")
    parser.add_argument("--target", type=float, default=75.0)
    parser.add_argument("--mus", type=float, nargs="+",
                        default=[0.1, 0.2, 0.4, 0.8, 1.5, 2.5])
    args = parser.parse_args()

    data = build_federated_data(
        args.dataset, n_clients=10, partition="dirichlet", alpha=0.5, seed=0
    )
    config = FLConfig(
        rounds=args.rounds, n_clients=10, clients_per_round=4,
        batch_size=50, lr=0.05, seed=0,
    )

    print(f"{'mu':>6} {'best acc %':>11} {'final acc %':>12} "
          f"{'rounds to ' + str(args.target) + '%':>15}")
    for mu in args.mus:
        sim = Engine(data, FedTrip(mu=mu), config, model_name="mlp")
        hist = sim.run()
        final = hist.final_accuracy_stats(last_k=5)["mean"]
        r = hist.rounds_to_accuracy(args.target)
        print(f"{mu:>6.2f} {hist.best_accuracy():>11.2f} {final:>12.2f} "
              f"{str(r) if r is not None else '>' + str(args.rounds):>15}")
        sim.close()


if __name__ == "__main__":
    main()
