"""Server hot-path throughput: flat-parameter path vs the pre-PR loop path.

The workload isolates the server's per-round overhead — the part of an FL
round that does not parallelize across clients: finite-screening K client
updates, aggregating them (Eq. 2), adopting the new global model, and
copying it out for the executor's broadcast.  With many clients and a
tiny model this is exactly the regime where the historical list-of-arrays
representation drowned in per-layer Python loops (K x L axpys to
aggregate, L copies to adopt, L copies to broadcast).

Two legs run the identical workload (same K updates, same values):

* ``legacy`` — a faithful inline reimplementation of the pre-PR server
  round: per-layer finite checks, ``weighted_average_trees_loop``
  (the K x L axpy reduction), per-layer dtype adoption, per-layer
  broadcast copies.
* ``flat`` — the shipped path: :class:`repro.fl.Server` backed by a
  :class:`~repro.fl.params.ParamPlane`, flat finite checks, the
  ``(K, P)`` GEMM aggregation, one in-place plane write, and a
  single-memcpy broadcast (the process executor's segment protocol).

Reported: rounds/sec per leg and the speedup; the acceptance bar is the
flat path at >= 2x legacy.  Output: ``benchmarks/out/hot_path.json`` and
(when run from the repo root or benchmarks/) the root ``BENCH_hotpath.json``
baseline consumed by CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.dirname(__file__))

from harness import print_table, save_json  # noqa: E402

from repro.algorithms.registry import build_strategy  # noqa: E402
from repro.fl.aggregation import weighted_average_trees_loop  # noqa: E402
from repro.fl.params import ParamPlane, WeightLayout  # noqa: E402
from repro.fl.server import Server  # noqa: E402
from repro.fl.types import ClientUpdate, FLConfig  # noqa: E402

#: A tiny-MLP-like parameter tree (P = 8,874 parameters, 6 arrays) — small
#: enough that per-layer interpreter overhead, not arithmetic, dominates.
SHAPES = [(64, 100), (64,), (32, 64), (32,), (10, 32), (10,)]
N_CLIENTS = 64
WARMUP = 5
TIMED_ROUNDS = 300
QUICK_ROUNDS = 60


def _make_updates(n_clients: int, rng: np.random.Generator, with_flat: bool):
    """K healthy client updates over SHAPES; ``with_flat`` selects the
    flat-native construction (post-PR) vs plain weight lists (pre-PR)."""
    sizes = [int(np.prod(s)) for s in SHAPES]
    total = sum(sizes)
    updates = []
    for cid in range(n_clients):
        flat = rng.standard_normal(total).astype(np.float32)
        if with_flat:
            updates.append(ClientUpdate.from_flat(
                flat, SHAPES, client_id=cid, num_samples=10 + cid, train_loss=0.1))
        else:
            tree, cursor = [], 0
            for shape, size in zip(SHAPES, sizes):
                tree.append(flat[cursor:cursor + size].reshape(shape).copy())
                cursor += size
            updates.append(ClientUpdate(cid, tree, 10 + cid, 0.1))
    return updates


def _legacy_round(weights, updates, segment_views):
    """One pre-PR server round: per-layer screen, loop aggregate, per-layer
    adopt + broadcast.  Mirrors the seed implementation of
    ``Server.apply_updates`` + its per-layer broadcast copy."""
    healthy = [u for u in updates
               if all(np.isfinite(w).all() for w in u.weights)]
    new = weighted_average_trees_loop(
        [u.weights for u in healthy], [u.num_samples for u in healthy])
    weights = [np.asarray(w, dtype=weights[i].dtype) for i, w in enumerate(new)]
    for view, w in zip(segment_views, weights):
        np.copyto(view, w)
    return weights


def _measure_legacy(n_clients: int, rounds: int) -> float:
    rng = np.random.default_rng(0)
    updates = _make_updates(n_clients, rng, with_flat=False)
    weights = [np.zeros(s, dtype=np.float32) for s in SHAPES]
    layout = WeightLayout.from_weights(weights)
    segment = bytearray(layout.total_bytes)
    views = layout.views(segment, writeable=True)
    for _ in range(WARMUP):
        weights = _legacy_round(weights, updates, views)
    t0 = time.perf_counter()
    for _ in range(rounds):
        weights = _legacy_round(weights, updates, views)
    return rounds / (time.perf_counter() - t0)


def _measure_flat(n_clients: int, rounds: int) -> float:
    rng = np.random.default_rng(0)
    updates = _make_updates(n_clients, rng, with_flat=True)
    config = FLConfig(rounds=1, n_clients=n_clients, clients_per_round=n_clients)
    server = Server([np.zeros(s, dtype=np.float32) for s in SHAPES],
                    build_strategy("fedavg"), config)
    # The broadcast hand-off: the plane's bytes, same layout, one memcpy.
    segment = np.zeros(server.plane.layout.total_bytes, dtype=np.uint8)

    def flat_round():
        server.apply_updates(updates)
        np.copyto(segment, server.plane.bytes_view())

    for _ in range(WARMUP):
        flat_round()
    t0 = time.perf_counter()
    for _ in range(rounds):
        flat_round()
    return rounds / (time.perf_counter() - t0)


def _equivalence_check(n_clients: int) -> float:
    """Max |flat - legacy| after one aggregation of identical updates."""
    rng = np.random.default_rng(7)
    updates = _make_updates(n_clients, rng, with_flat=True)
    config = FLConfig(rounds=1, n_clients=n_clients, clients_per_round=n_clients)
    server = Server([np.zeros(s, dtype=np.float32) for s in SHAPES],
                    build_strategy("fedavg"), config)
    server.apply_updates(updates)
    reference = weighted_average_trees_loop(
        [u.weights for u in updates], [u.num_samples for u in updates])
    return max(
        float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
        for a, b in zip(server.weights, reference)
    )


def _run(rounds: int = TIMED_ROUNDS, n_clients: int = N_CLIENTS):
    # Best of three interleaved blocks per leg: rounds/sec on a shared CI
    # host is noisy, and the *best* block is the least-perturbed estimate
    # of each path's actual cost.
    legacy_rps, flat_rps = 0.0, 0.0
    for _ in range(3):
        legacy_rps = max(legacy_rps, _measure_legacy(n_clients, rounds))
        flat_rps = max(flat_rps, _measure_flat(n_clients, rounds))
    speedup = flat_rps / legacy_rps
    max_abs_diff = _equivalence_check(n_clients)

    payload = {
        "workload": {
            "n_clients": n_clients,
            "shapes": [list(s) for s in SHAPES],
            "n_params": int(sum(np.prod(s) for s in SHAPES)),
            "timed_rounds": rounds,
            "warmup_rounds": WARMUP,
            "round": "finite-screen + aggregate + adopt + broadcast",
        },
        "host": {"cpus": os.cpu_count()},
        "rounds_per_sec": {
            "legacy_loop_path": round(legacy_rps, 2),
            "flat_gemm_path": round(flat_rps, 2),
        },
        "speedup": round(speedup, 3),
        "loop_vs_gemm_max_abs_diff": max_abs_diff,
    }
    save_json("hot_path", payload)

    # The root-level baseline: the per-PR trajectory CI publishes.
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    if os.path.isfile(os.path.join(root, "ROADMAP.md")):
        with open(os.path.join(root, "BENCH_hotpath.json"), "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    print_table(
        f"Server hot path ({n_clients} clients, "
        f"{payload['workload']['n_params']} params)",
        ["path", "rounds/sec", "speedup"],
        [["legacy loop", f"{legacy_rps:.1f}", "1.00x"],
         ["flat GEMM", f"{flat_rps:.1f}", f"{speedup:.2f}x"]],
    )

    assert max_abs_diff < 1e-4, (
        f"loop vs GEMM aggregation diverged: max abs diff {max_abs_diff}")
    assert speedup >= 2.0, (
        f"flat hot path must be >=2x the loop path: got {speedup:.2f}x "
        f"({flat_rps:.1f} vs {legacy_rps:.1f} rounds/sec)")
    return payload


def test_hot_path(benchmark):
    from conftest import run_once

    run_once(benchmark, lambda: _run(rounds=QUICK_ROUNDS))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"time {QUICK_ROUNDS} rounds instead of {TIMED_ROUNDS}")
    parser.add_argument("--clients", type=int, default=N_CLIENTS)
    args = parser.parse_args()
    _run(rounds=QUICK_ROUNDS if args.quick else TIMED_ROUNDS,
         n_clients=args.clients)
