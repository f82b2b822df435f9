"""Fault-tolerance overhead: clean rounds/sec vs an active failure policy.

Both legs run the identical tiny serial sync workload end to end through
:func:`repro.api.run_experiment`; only the fault policy differs:

* ``clean``   — no injector, no retries: the trivial policy, where the
  engine only screens losses and counts reports.
* ``faulted`` — the CI configuration: ``crash`` injector at rate 0.2
  with ``task_retries=2``.  Every fired coin costs a synthesized failure,
  a screening pass, and a retry wave re-dispatching the failed clients.

Reported: rounds/sec per leg and the retention ratio (faulted / clean);
the acceptance bar is >= 70% retention — the policy may not tax a
moderately faulty deployment by more than ~1.4x.  Crash faults skip
local training, so the dominant cost is the retry waves' re-training
plus the per-round screening/bookkeeping, which is exactly what the bar
pins.  Output: ``benchmarks/out/fault_tolerance.json`` and (from the
repo checkout) the root ``BENCH_faults.json`` baseline consumed by CI.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import get_data, print_table, save_json  # noqa: E402

from repro.api import ExperimentSpec, run_experiment  # noqa: E402

FAULT = "crash"
FAULT_RATE = 0.2
TASK_RETRIES = 2
MIN_RETENTION = 0.70
ROUNDS = 30
QUICK_ROUNDS = 10
REPEATS = 5
QUICK_REPEATS = 3


def _spec(rounds: int, *, faulted: bool) -> ExperimentSpec:
    kwargs = {}
    if faulted:
        kwargs = dict(fault=FAULT, fault_rate=FAULT_RATE, task_retries=TASK_RETRIES)
    return ExperimentSpec(
        dataset="tiny", model="mlp", method="fedavg",
        partition="dirichlet", alpha=0.5,
        rounds=rounds, n_clients=8, clients_per_round=4,
        batch_size=20, local_epochs=1, lr=0.05, seed=0,
        executor="serial", mode="sync", **kwargs,
    )


def _time_leg(spec: ExperimentSpec, data, repeats: int):
    """Median wall rounds/sec over ``repeats`` full runs of ``spec``."""
    secs = []
    history = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        history = run_experiment(spec, data=data)
        secs.append(time.perf_counter() - t0)
    return spec.rounds / statistics.median(secs), history


def _run(rounds: int = ROUNDS, repeats: int = REPEATS):
    clean_spec = _spec(rounds, faulted=False)
    fault_spec = _spec(rounds, faulted=True)
    data = get_data("tiny", clean_spec.n_clients, "dirichlet", alpha=0.5, seed=0)

    # One warmup run per leg (caches, first-touch allocations), then the
    # timed repeats; the workload is deterministic so every repeat trains
    # the identical rounds.
    run_experiment(clean_spec, data=data)
    run_experiment(fault_spec, data=data)
    clean_rps, _ = _time_leg(clean_spec, data, repeats)
    fault_rps, fault_hist = _time_leg(fault_spec, data, repeats)

    retention = fault_rps / clean_rps
    n_failed = sum(len(r.failed_clients) for r in fault_hist.records)
    n_retried = sum(len(r.retried_clients) for r in fault_hist.records)
    payload = {
        "workload": {
            "dataset": "tiny", "model": "mlp", "method": "fedavg",
            "n_clients": clean_spec.n_clients,
            "clients_per_round": clean_spec.clients_per_round,
            "rounds": rounds, "repeats": repeats,
            "executor": "serial", "mode": "sync",
        },
        "fault_policy": {
            "fault": FAULT, "fault_rate": FAULT_RATE,
            "task_retries": TASK_RETRIES,
            "terminal_failures": n_failed,
            "retry_dispatches": n_retried,
        },
        "host": {"cpus": os.cpu_count()},
        "rounds_per_sec": {
            "clean": round(clean_rps, 2),
            "faulted": round(fault_rps, 2),
        },
        "retention": round(retention, 4),
        "min_retention": MIN_RETENTION,
    }
    save_json("fault_tolerance", payload)

    # The root-level baseline: the per-PR trajectory CI publishes.
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    if os.path.isfile(os.path.join(root, "ROADMAP.md")):
        with open(os.path.join(root, "BENCH_faults.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    print_table(
        f"Fault-tolerance overhead ({FAULT} rate {FAULT_RATE}, "
        f"retries {TASK_RETRIES}, {rounds} rounds)",
        ["leg", "rounds/sec", "retention"],
        [["clean (policy gated off)", f"{clean_rps:.1f}", "-"],
         ["faulted (crash 0.2, 2 retries)", f"{fault_rps:.1f}",
          f"{100.0 * retention:.1f}%"]],
    )

    assert n_retried > 0, "faulted leg never retried: injector did not fire"
    assert retention >= MIN_RETENTION, (
        f"failure policy must retain >= {100 * MIN_RETENTION:.0f}% of clean "
        f"throughput: measured {100 * retention:.1f}% "
        f"({fault_rps:.1f} vs {clean_rps:.1f} rounds/sec)")
    return payload


def test_fault_tolerance(benchmark):
    from conftest import run_once

    run_once(benchmark, lambda: _run(rounds=QUICK_ROUNDS, repeats=QUICK_REPEATS))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"time {QUICK_ROUNDS} rounds x {QUICK_REPEATS} "
                             f"repeats instead of {ROUNDS} x {REPEATS}")
    args = parser.parse_args()
    if args.quick:
        _run(rounds=QUICK_ROUNDS, repeats=QUICK_REPEATS)
    else:
        _run()
