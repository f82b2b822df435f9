"""Executor scaling: rounds/sec vs worker count across execution backends.

The workload is the paper's 10-client synthetic setup (mini_mnist / MLP)
with **all 10 clients selected every round** and an emulated per-client
device latency (``Engine(client_latency_s=...)``, see
:mod:`repro.fl.systems` for why wall latency, not FLOPs, dominates real FL
rounds).  Each client task therefore costs ``latency + compute``; a backend
earns throughput exactly by *overlapping* client tasks, which is the
quantity a scheduler benchmark should isolate — it is also the only
scaling dimension measurable on a single-core CI host.  On a multi-core
host the process backend additionally overlaps the compute portion, which
the serial backend runs one client at a time.

Measured per backend: wall time of ``TIMED_ROUNDS`` engine rounds after one
warmup round (pool startup and data building excluded), reported as
rounds/sec.  A determinism cross-check also trains a short run on every
backend and asserts the round records are identical — the byte-identical
contract the executor layer guarantees.

Output: ``benchmarks/out/executor_scaling.json``.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import print_table, save_json  # noqa: E402

from repro.api import ExperimentSpec  # noqa: E402
from repro.api.engine import Engine  # noqa: E402

#: 10-client synthetic workload, every client participating every round.
WORKLOAD = dict(
    dataset="mini_mnist", model="mlp", method="fedavg",
    n_clients=10, clients_per_round=10, batch_size=50, lr=0.03,
    rounds=1000, eval_every=1000, seed=0,
)
#: Emulated per-client device/network latency (seconds).
CLIENT_LATENCY_S = 0.04
WARMUP_ROUNDS = 1
TIMED_ROUNDS = 5

#: (backend, n_workers) grid.
CONFIGS = [
    ("serial", 1),
    ("process", 2),
    ("process", 4),
]


def _build_engine(data, executor: str, n_workers: int, latency: float) -> Engine:
    spec = ExperimentSpec(**WORKLOAD)
    return Engine(
        data, spec.build_strategy(), spec.build_config(),
        model_name=spec.model, sampler=spec.build_sampler(),
        executor=executor, n_workers=n_workers, client_latency_s=latency,
    )


def _measure(data, executor: str, n_workers: int) -> float:
    """Rounds/sec over TIMED_ROUNDS after warmup; pool startup excluded."""
    engine = _build_engine(data, executor, n_workers, CLIENT_LATENCY_S)
    try:
        for _ in range(WARMUP_ROUNDS):
            engine.run_round()
        t0 = time.perf_counter()
        for _ in range(TIMED_ROUNDS):
            engine.run_round()
        elapsed = time.perf_counter() - t0
    finally:
        engine.close()
    return TIMED_ROUNDS / elapsed


def _determinism_check(data) -> bool:
    """Fixed seed => identical round records on every backend."""
    reference = None
    for executor, n_workers in [("serial", 1), ("process", 4)]:
        engine = _build_engine(data, executor, n_workers, latency=0.0)
        try:
            records = [engine.run_round() for _ in range(3)]
        finally:
            engine.close()
        signature = [
            (r.round_idx, tuple(r.selected), r.mean_train_loss,
             r.cumulative_flops, r.cumulative_comm_bytes)
            for r in records
        ]
        if reference is None:
            reference = signature
        elif signature != reference:
            return False
    return True


def _run():
    spec = ExperimentSpec(**WORKLOAD)
    data = spec.build_data()

    results = []
    for executor, n_workers in CONFIGS:
        rps = _measure(data, executor, n_workers)
        results.append(
            {"backend": executor, "n_workers": n_workers,
             "rounds_per_sec": round(rps, 4)}
        )

    by_key = {(r["backend"], r["n_workers"]): r["rounds_per_sec"] for r in results}
    serial = by_key[("serial", 1)]
    deterministic = _determinism_check(data)

    payload = {
        "workload": {**WORKLOAD, "client_latency_ms": CLIENT_LATENCY_S * 1e3,
                     "warmup_rounds": WARMUP_ROUNDS, "timed_rounds": TIMED_ROUNDS},
        "host": {"cpus": os.cpu_count()},
        "results": results,
        "speedup_vs_serial": {
            f"{backend}-{n}": round(by_key[(backend, n)] / serial, 3)
            for backend, n in CONFIGS
        },
        "deterministic_across_backends": deterministic,
    }
    save_json("executor_scaling", payload)

    rows = [
        [r["backend"], r["n_workers"], f"{r['rounds_per_sec']:.2f}",
         f"{r['rounds_per_sec'] / serial:.2f}x"]
        for r in results
    ]
    print_table("Executor scaling (rounds/sec, 10 clients/round, 40ms client latency)",
                ["backend", "workers", "rounds/sec", "vs serial"], rows)

    assert deterministic, "round records diverged across backends"
    assert by_key[("process", 4)] >= 1.5 * serial, (
        f"process@4 must be >=1.5x serial: {by_key[('process', 4)]:.2f} "
        f"vs {serial:.2f} rounds/sec"
    )
    return payload


def test_executor_scaling(benchmark):
    from conftest import run_once

    run_once(benchmark, _run)


if __name__ == "__main__":
    _run()
