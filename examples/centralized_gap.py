#!/usr/bin/env python
"""How much of the centralized ceiling does each FL method recover?

Trains (a) a centralized model on the pooled client data — the upper bound
no FL method can beat — and (b) FedTrip / FedAvg under Dirichlet skew, then
renders the three accuracy curves side by side in the terminal and reports
the fraction of the centralized-vs-FedAvg gap that FedTrip closes.

Run:  python examples/centralized_gap.py [--rounds N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.analysis import line_plot
from repro.fl import train_centralized
from repro.models import build_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--dataset", default="mini_mnist")
    parser.add_argument("--alpha", type=float, default=0.5)
    args = parser.parse_args()

    data = build_federated_data(
        args.dataset, n_clients=10, partition="dirichlet", alpha=args.alpha, seed=0
    )
    config = FLConfig(rounds=args.rounds, n_clients=10, clients_per_round=4,
                      batch_size=50, lr=0.05, seed=0)

    # Centralized ceiling: one epoch of pooled training per FL round keeps
    # the gradient-step budget comparable (4/10 of the data per round vs
    # the full pool per epoch — the ceiling sees *more* data per unit x).
    model = build_model("mlp", data.spec.input_shape, data.spec.num_classes,
                        rng=np.random.default_rng(0))
    central = train_centralized(data, model, epochs=args.rounds,
                                batch_size=50, lr=config.lr)

    curves = {"centralized": central.accuracies}
    finals = {}
    for method in ("fedtrip", "fedavg"):
        strategy = build_strategy(method, model="mlp", dataset=args.dataset)
        sim = Engine(data, strategy, config, model_name="mlp")
        hist = sim.run()
        curves[method] = [a for a in hist.accuracies()]
        finals[method] = hist.final_accuracy_stats(last_k=5)["mean"]
        sim.close()

    print(line_plot(curves, width=70, height=16,
                    title=f"accuracy vs round — {args.dataset}, Dir-{args.alpha}",
                    y_label=" accuracy %"))

    ceiling = max(central.accuracies)
    gap_avg = ceiling - finals["fedavg"]
    gap_trip = ceiling - finals["fedtrip"]
    print(f"\ncentralized ceiling : {ceiling:.2f}%")
    print(f"fedavg final        : {finals['fedavg']:.2f}%  (gap {gap_avg:.2f})")
    print(f"fedtrip final       : {finals['fedtrip']:.2f}%  (gap {gap_trip:.2f})")
    if gap_avg > 0:
        closed = 100.0 * (gap_avg - gap_trip) / gap_avg
        print(f"FedTrip closes {closed:.0f}% of the heterogeneity gap")


if __name__ == "__main__":
    main()
