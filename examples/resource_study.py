#!/usr/bin/env python
"""Deployment-facing resource study: simulated wall-clock time to accuracy.

The paper argues FedTrip is "resource-efficient" in rounds and GFLOPs; this
example converts those into simulated *hours* under three device/network
profiles (wifi workstation, 4G phone, constrained IoT node) with a 3x
compute-speed spread across clients (stragglers).  It also demonstrates the
update-compression extension: how many bytes 8-bit quantization or top-10%
sparsification would save per round, and the reconstruction error each
introduces.

Run:  python examples/resource_study.py [--rounds N]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.fl import (
    NETWORK_PRESETS,
    QuantizationCompressor,
    SystemModel,
    TopKCompressor,
)
from repro.utils.vectorize import flatten_arrays


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--dataset", default="mini_mnist")
    parser.add_argument("--target", type=float, default=80.0)
    args = parser.parse_args()

    data = build_federated_data(
        args.dataset, n_clients=10, partition="dirichlet", alpha=0.5, seed=0
    )
    config = FLConfig(rounds=args.rounds, n_clients=10, clients_per_round=4,
                      batch_size=50, lr=0.05, seed=0)

    print(f"=== simulated time to {args.target:.0f}% accuracy "
          f"(straggler spread 3x) ===")
    print(f"{'method':>9} " + " ".join(f"{p:>12}" for p in NETWORK_PRESETS))
    for method in ("fedtrip", "fedavg", "moon", "scaffold"):
        cells = []
        for preset in NETWORK_PRESETS:
            strategy = build_strategy(method, model="mlp", dataset=args.dataset)
            sim = Engine(data, strategy, config, model_name="mlp")
            sysmodel = SystemModel(preset, n_clients=10, heterogeneity=3.0).attach(sim)
            hist = sim.run()
            t = sysmodel.time_to_accuracy(hist, args.target)
            cells.append(f"{t:>11.1f}s" if t is not None else f"{'miss':>12}")
            sim.close()
        print(f"{method:>9} " + " ".join(cells))

    # Compression extension: per-round payload if updates were compressed.
    print("\n=== update compression (one FedTrip client update) ===")
    strategy = build_strategy("fedtrip", model="mlp", dataset=args.dataset)
    sim = Engine(data, strategy, config, model_name="mlp")
    before = [w.copy() for w in sim.server.weights]
    sim.run_round()
    update = [w - b for w, b in zip(sim.server.weights, before)]
    raw_bytes = flatten_arrays(update).nbytes
    print(f"{'scheme':>16} {'bytes':>10} {'ratio':>7} {'max err':>10}")
    print(f"{'float32 (raw)':>16} {raw_bytes:>10} {'1.0x':>7} {'-':>10}")
    for name, comp in [("int8 quantized", QuantizationCompressor(bits=8)),
                       ("top-10% sparse", TopKCompressor(fraction=0.1))]:
        payload, nbytes = comp.encode(update)
        back = comp.decode(payload, update)
        err = max(float(np.abs(b - u).max()) for b, u in zip(back, update))
        print(f"{name:>16} {int(nbytes):>10} {raw_bytes / nbytes:>6.1f}x {err:>10.2e}")
    sim.close()


if __name__ == "__main__":
    main()
