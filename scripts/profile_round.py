#!/usr/bin/env python
"""Profile one engine round with cProfile and print the hot functions.

The companion tool to ``benchmarks/bench_hot_path.py``: where the bench
answers "how fast is the server path", this answers "where does a round
actually spend its time".  It builds a small experiment, runs warmup
rounds (pool/data startup excluded), profiles ``Engine.run_round`` and
prints the top functions by cumulative time.

Usage::

    PYTHONPATH=src python scripts/profile_round.py
    PYTHONPATH=src python scripts/profile_round.py --clients 64 --rounds 5 \
        --sort tottime --top 40
    PYTHONPATH=src python scripts/profile_round.py --executor process --workers 2
    PYTHONPATH=src python scripts/profile_round.py --mode semisync
    PYTHONPATH=src python scripts/profile_round.py --aggregator trimmed_mean
    PYTHONPATH=src python scripts/profile_round.py --client
    PYTHONPATH=src python scripts/profile_round.py --workload fanout_serial --seed 3

``--workload NAME`` profiles one of the benchmark's workloads instead: the
exact ``ExperimentSpec`` that ``e2ebench/e2e_workloads.spec_kwargs`` gives
for ``--seed`` (population, strategy overrides, server mode and evaluation
cadence included), after the benchmark's own warm-up rounds.  The spec
flags are ignored then.

The profiled engine always carries a live :mod:`repro.obs` recorder, so
every run ends with a per-phase wall breakdown and the metric summary
table sourced from the metrics registry — the same numbers ``--trace`` /
``--metrics-out`` runs export.

``--client`` adds a breakdown of where *local-step* time goes — the
client-side phases (batch gather, forward, loss, backward, attach ops,
optimizer, clipping, broadcast adoption, upload), then
the per-task harness around them (RNG derivation, round-context build,
data loader, ``Module.train``, upload views), then forward and backward
per layer kind (Conv2d, MaxPool2d, ReLU, Linear) — and restricts the raw
listing to client-side code.

See docs/performance.md and docs/observability.md for how to read the
output.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import sys

E2EBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "e2ebench")

#: client-side phases reported by --client: label -> (file basename | None,
#: function) matchers.  Each matcher targets the phase's *top-level* function
#: in the local-training call tree (stats are strip_dirs()'d), so summing
#: cumulative times never double-counts across phases.
CLIENT_PHASES = [
    ("forward", [("fedmodel.py", "forward"),
                 ("fedmodel.py", "forward_with_features")]),
    # Every criterion in nn/losses.py: cross-entropy only, except under the
    # strategies that add their own (MOON's contrastive, FedGKD's KL term).
    ("loss (cross-entropy)", [("losses.py", "forward")]),
    # The loader's permutation and each step's x[idx], y[idx] gather.
    ("batch gather", [("dataset.py", "__iter__")]),
    ("backward", [("fedmodel.py", "backward")]),
    ("zero_grad", [("module.py", "zero_grad")]),
    ("attach ops (modify_gradients)", [(None, "modify_gradients")]),
    ("gradient clipping", [("base.py", "maybe_clip")]),
    ("optimizer step", [("sgd.py", "step"), ("adam.py", "step")]),
    ("broadcast adoption", [("fedmodel.py", "set_weights_flat"),
                            ("module.py", "set_weights")]),
    ("upload snapshot", [("module.py", "get_weights_flat"),
                         ("types.py", "from_flat")]),
    ("strategy round hooks", [(None, "on_round_start"), (None, "on_round_end")]),
]

#: the per-task harness around local training, reported by --client:
#: label -> (file basename, function | None for every function in the
#: file) matchers.  Rows may nest (build_round_context derives no RNG, but
#: Client.loader does), so each row is its own outermost total.
HARNESS_ROWS = [
    ("RNG derivation (rng.py)", [("rng.py", None)]),
    ("build_round_context", [("executor.py", "build_round_context")]),
    ("Client.loader", [("client.py", "loader")]),
    ("Module.train", [("module.py", "train")]),
    ("from_flat / _tree_views", [("types.py", "from_flat"), ("types.py", "_tree_views")]),
]

#: layer kinds reported by --client, forward and backward each.  A layer's
#: backward row also counts ``backward_params`` (the parameter-only pass a
#: training step runs on the model's first trainable layer).
LAYER_KINDS = ("Conv2d", "MaxPool2d", "ReLU", "Linear")


def _workloads():
    """The benchmark's workload table (``e2ebench/e2e_workloads.py``),
    imported as is."""
    sys.path.insert(0, E2EBENCH)
    import e2e_workloads

    return e2e_workloads


def _layer_rows():
    """``(label, {stats key})`` per layer kind and direction, keyed by the
    methods' code objects (file, first line, name) so classes sharing a
    file (``MaxPool2d``/``AvgPool2d``, ``ReLU``/``Tanh``) stay apart."""
    import repro.nn as nn

    rows = []
    for kind in LAYER_KINDS:
        cls = getattr(nn, kind)
        for direction, methods in (("forward", ("forward",)),
                                   ("backward", ("backward", "backward_params"))):
            keys = set()
            for name in methods:
                fn = vars(cls).get(name)
                if fn is not None:
                    code = fn.__code__
                    keys.add((os.path.basename(code.co_filename),
                              code.co_firstlineno, code.co_name))
            rows.append((f"{kind} {direction}", keys))
    return rows


def _outermost_seconds(stats: pstats.Stats, keys) -> float:
    """Cumulative seconds of the functions in ``keys``, minus time spent in
    them when called from one another (``Linear.backward`` calls
    ``backward_params``), so nothing is counted twice."""
    total = 0.0
    for key in keys:
        entry = stats.stats.get(key)
        if entry is None:
            continue
        ct, callers = entry[3], entry[4]
        total += ct - sum(c[3] for caller, c in callers.items() if caller in keys)
    return total


def _harness_rows(stats: pstats.Stats):
    """``(label, seconds)`` per :data:`HARNESS_ROWS` entry."""
    rows = []
    for label, matchers in HARNESS_ROWS:
        keys = {key for key in stats.stats
                if any(key[0] == mod and fn in (None, key[2]) for mod, fn in matchers)}
        rows.append((label, _outermost_seconds(stats, keys)))
    return rows


def _client_breakdown(stats: pstats.Stats, rounds: int) -> None:
    """Print cumulative seconds per client-side phase (per profiled run),
    then per task-harness component, then per layer kind."""
    totals = {label: 0.0 for label, _ in CLIENT_PHASES}
    for (path, _line, func), (_cc, _nc, _tt, ct, _callers) in stats.stats.items():
        if path in ("callbacks.py", "engine.py"):
            continue  # engine-side hooks share names with strategy hooks
        for label, matchers in CLIENT_PHASES:
            if any((mod is None or path == mod) and func == fn
                   for mod, fn in matchers):
                totals[label] += ct
                break
    # execute_task is the denominator: it spans broadcast adoption (in
    # build_round_context) plus run_client_round, so every phase above is
    # inside it and shares can never sum past 100%.
    total_key = next(
        (k for k in stats.stats if k[2] == "execute_task"), None)
    task_total = stats.stats[total_key][3] if total_key else None
    layers = [(label, _outermost_seconds(stats, keys)) for label, keys in _layer_rows()]
    harness = _harness_rows(stats)
    print("\n--- client-side breakdown (cumulative seconds, "
          f"{rounds} profiled rounds) ---")
    width = max(len(label) for label, _ in CLIENT_PHASES + layers + harness)

    def row(label: str, seconds: float) -> None:
        share = (f"  {100.0 * seconds / task_total:5.1f}% of client tasks"
                 if task_total else "")
        print(f"  {label.ljust(width)}  {seconds:8.4f}s{share}")

    for label, _ in CLIENT_PHASES:
        row(label, totals[label])
    if task_total is not None:
        print(f"  {'client task total'.ljust(width)}  {task_total:8.4f}s")
    print("\n--- task harness (cumulative seconds, rows may nest) ---")
    for label, seconds in harness:
        row(label, seconds)
    # Evaluation is kept out of the profiled rounds, so every layer call
    # here is inside a client task; a --workload spec that evaluates in
    # them adds its evaluation's forward passes.
    print("\n--- per layer kind (cumulative seconds, slowest first) ---")
    for label, seconds in sorted(layers, key=lambda item: -item[1]):
        row(label, seconds)


def _phase_breakdown(metrics, rounds: int) -> None:
    """Per-phase wall seconds from the registry's labeled phase counters."""
    phases = []
    for name in metrics.names():
        if name.startswith("fl_phase_seconds_total{"):
            label = name.split('phase="', 1)[1].rstrip('"}')
            phases.append((label, metrics.get(name).value))
    if not phases:
        return
    total = sum(v for _, v in phases) or 1.0
    print(f"\n--- engine phase breakdown ({rounds} profiled rounds, "
          "from the metrics registry) ---")
    width = max(len(label) for label, _ in phases)
    for label, seconds in sorted(phases, key=lambda p: -p[1]):
        print(f"  {label.ljust(width)}  {seconds:8.4f}s  {100.0 * seconds / total:5.1f}%")


def main() -> int:
    from repro.api import available_executors

    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None, choices=sorted(workloads.WORKLOADS),
                        help="profile this benchmark workload's exact spec "
                             "(the spec flags below are ignored)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default="tiny")
    parser.add_argument("--model", default="mlp")
    parser.add_argument("--method", default="fedavg")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--clients-per-round", type=int, default=None,
                        help="default: all clients every round")
    parser.add_argument("--rounds", type=int, default=3,
                        help="profiled rounds (after one warmup round)")
    parser.add_argument("--batch-size", type=int, default=20)
    parser.add_argument("--executor", default="serial",
                        choices=available_executors())
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--mode", default="sync",
                        choices=["sync", "semisync", "async"],
                        help="server mode to profile (the event-driven "
                             "modes run on the virtual-clock scheduler)")
    parser.add_argument("--aggregator", default="mean",
                        help="server aggregation rule (mean, or a robust "
                             "rule from repro.fl.robust)")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"])
    parser.add_argument("--top", type=int, default=30)
    parser.add_argument("--client", action="store_true",
                        help="summarize local-step time by client-side phase "
                             "and restrict the listing to client-side code")
    parser.add_argument("--metrics", action="store_true",
                        help="also print the full metric summary table")
    args = parser.parse_args()

    import tempfile

    from repro.api import ExperimentSpec
    from repro.api.registry import build_mode

    # A metrics_out path turns the obs recorder on end-to-end — including
    # the worker processes' shards, whose obs flag is baked into the
    # picklable worker spec at engine construction.  The exposition file
    # itself is a throwaway; the breakdown below reads the live registry.
    fd, metrics_tmp = tempfile.mkstemp(prefix="profile_round_", suffix=".prom")
    os.close(fd)
    if args.workload:
        kwargs = workloads.spec_kwargs(args.workload, args.seed)
        warmup_rounds = workloads.WARMUP_ROUNDS
    else:
        kwargs = dict(
            dataset=args.dataset, model=args.model, method=args.method,
            n_clients=args.clients,
            clients_per_round=args.clients_per_round or args.clients,
            # One warmup round plus the profiled ones; the final round,
            # which always evaluates, is never run.
            rounds=args.rounds + 2, batch_size=args.batch_size,
            eval_every=10_000,  # keep evaluation out of the profile
            executor=args.executor, n_workers=args.workers,
            mode=args.mode, aggregator=args.aggregator, seed=args.seed,
        )
        warmup_rounds = 1
    spec = ExperimentSpec(**kwargs, metrics_out=metrics_tmp)
    engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
    recorder = engine.obs
    try:
        for _ in range(warmup_rounds):  # JIT-free, but primes caches and pools
            engine.run_round()
        recorder.metrics.drain()  # keep the breakdown to profiled rounds

        profiler = cProfile.Profile()
        profiler.enable()
        for _ in range(args.rounds):
            engine.run_round()
        profiler.disable()
    finally:
        engine.close()
        os.unlink(metrics_tmp)

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort)
    if args.client:
        # Paths are strip_dirs()'d basenames here, so filter on the
        # client-side file names themselves (strategies, optimizers, nn
        # layers, the client/executor plumbing).
        stats.print_stats(
            r"client|executor|fed|scaffold|mime|moon|slowmo|losses|module"
            r"|parameter|linear|conv|pooling|functional|activations|sgd|adam"
            r"|base|utils|rng|types|dataset", args.top)
        _client_breakdown(stats, args.rounds)
    else:
        stats.print_stats(args.top)
    _phase_breakdown(recorder.metrics, args.rounds)
    if args.metrics:
        print("\n--- metric summary ---")
        print(recorder.summary_table())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
