"""Supplementary analyses beyond the paper's tables.

1. **Drift diagnostics** (quantitative Fig. 1): update divergence and
   cosine consistency of client updates, IID vs Dir-0.5 vs Orthogonal-5,
   and the effect of FedTrip/FedProx regularization on drift.
2. **Simulated time-to-accuracy** (the deployment-facing reading of
   "resource-efficient"): per-method simulated wall-clock to target under
   wifi / 4g / iot device profiles, combining the measured FLOPs and bytes
   with the systems model.
"""

from __future__ import annotations

import numpy as np

from conftest import run_once
from harness import get_data, print_table, save_json
from repro import FLConfig, Engine, build_strategy
from repro.analysis import DriftTracker
from repro.fl import SystemModel

ROUNDS = 15
TARGET = 80.0


def _drift_for(partition_kwargs, method):
    data = get_data("mini_mnist", 10, **partition_kwargs)
    config = FLConfig(rounds=ROUNDS, n_clients=10, clients_per_round=4,
                      batch_size=50, lr=0.02, seed=0)
    strategy = build_strategy(method, model="mlp", dataset="mini_mnist")
    sim = Engine(data, strategy, config, model_name="mlp")
    tracker = DriftTracker().attach(sim)
    sim.run()
    out = tracker.summary()
    sim.close()
    return out


def _time_for(method, preset):
    data = get_data("mini_mnist", 10, "dirichlet", alpha=0.5)
    config = FLConfig(rounds=ROUNDS, n_clients=10, clients_per_round=4,
                      batch_size=50, lr=0.05, seed=0)
    strategy = build_strategy(method, model="mlp", dataset="mini_mnist")
    sim = Engine(data, strategy, config, model_name="mlp")
    sysmodel = SystemModel(preset, n_clients=10, heterogeneity=3.0).attach(sim)
    hist = sim.run()
    t = sysmodel.time_to_accuracy(hist, TARGET)
    summary = sysmodel.summary()
    sim.close()
    return {"time_to_target_s": t, **summary}


def _run():
    out = {"drift": {}, "time": {}}
    partitions = {
        "iid": {"partition": "iid"},
        "dir-0.5": {"partition": "dirichlet", "alpha": 0.5},
        "orth-5": {"partition": "orthogonal", "n_clusters": 5},
    }
    for plabel, pkw in partitions.items():
        for method in ("fedavg", "fedprox", "fedtrip"):
            out["drift"][f"{plabel}/{method}"] = _drift_for(pkw, method)
    for preset in ("wifi", "4g", "iot"):
        for method in ("fedtrip", "fedavg", "moon", "scaffold"):
            out["time"][f"{preset}/{method}"] = _time_for(method, preset)
    return out


def test_supplementary_drift_and_time(benchmark):
    out = run_once(benchmark, _run)

    print_table(
        "Drift diagnostics (quantitative Fig. 1)",
        ["partition/method", "divergence", "cosine consistency", "mean drift"],
        [[k, f"{v['mean_divergence']:.4f}", f"{v['mean_consistency']:.4f}",
          f"{v['mean_drift']:.4f}"] for k, v in out["drift"].items()],
    )
    print_table(
        f"Simulated time to {TARGET:.0f}% accuracy",
        ["preset/method", "seconds to target", "comm fraction"],
        [[k, f"{v['time_to_target_s']:.1f}" if v["time_to_target_s"] else "miss",
          f"{v['comm_fraction']:.3f}"] for k, v in out["time"].items()],
    )
    save_json("supplementary_drift_time", out)

    d = out["drift"]
    # Fig. 1 quantified: heterogeneity lowers update consistency.
    assert d["iid/fedavg"]["mean_consistency"] > d["dir-0.5/fedavg"]["mean_consistency"]
    assert d["iid/fedavg"]["mean_consistency"] > d["orth-5/fedavg"]["mean_consistency"]
    # Regularization (high-mu prox pull inside FedTrip/FedProx) cannot
    # *increase* drift relative to FedAvg by much.
    assert d["dir-0.5/fedprox"]["mean_drift"] <= 1.2 * d["dir-0.5/fedavg"]["mean_drift"]

    t = out["time"]
    for preset in ("wifi", "4g", "iot"):
        # SCAFFOLD ships 2x the bytes: its comm share must exceed FedTrip's.
        assert t[f"{preset}/scaffold"]["comm_fraction"] > t[f"{preset}/fedtrip"]["comm_fraction"]
        # The MLP is tiny (0.01 MFLOP/sample): every preset is
        # communication-bound, which is exactly why reducing *rounds*
        # (FedTrip's goal) beats reducing per-round compute here.
        assert t[f"{preset}/fedtrip"]["comm_fraction"] > 0.5
    # Slower networks stretch absolute wall-clock time per round.
    assert (
        t["iot/fedtrip"]["mean_round_seconds"]
        > t["4g/fedtrip"]["mean_round_seconds"]
        > t["wifi/fedtrip"]["mean_round_seconds"]
    )
