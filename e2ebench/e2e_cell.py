"""One engine lifetime in a fresh process.

``run.py`` starts this file once per measurement (peak RSS and set-up cost
are process-lifetime quantities) with one JSON job on the command line and
reads one JSON result from the last line of stdout.  The timeline::

    spawn -> imports -> ExperimentSpec -> build_data -> build_mode
          -> WARMUP_ROUNDS x run_round      (t1: set-up ends)
          -> run_round until the clock says stop   (t2)
             (one lifetime of a traced invocation runs on until the
              workload's target accuracy or a fixed round cap)
          -> close

Everything goes through the public front door (``ExperimentSpec`` ->
``build_mode`` -> ``engine.run_round()`` -> ``History``); the program
receives only the generated spec.

With ``job["traced"]`` the benchmark wraps calls into public layer entry
points with :class:`e2e_spans.SpanRecorder` shells (instance-level on the
built engine, plus ``repro.fl.executor.execute_task`` for in-process
backends).  Worker-side busy time of the pooled backends comes from the
program's own exposition (``spec.metrics_out`` -> ``fl_client_task_seconds``).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import e2e_spans as sp
import e2e_workloads as wl

#: layer prefix of the executor spans, by ``executor.name``.
EXECUTOR_LAYER = {
    "serial": "fl.executor",
    "process": "fl.process_executor",
    "network": "fl.net",
}
TASK_SPAN = "fl.executor.execute_task"
#: spans that are client compute proper; the rest of a task is overhead.
COMPUTE_SPANS = ("models.forward", "models.backward", "algorithms.attach", "optim.step")
PHASES = ("sample", "broadcast", "preamble", "local_train", "aggregate", "evaluate")


def install_tracing(engine, rec: sp.SpanRecorder) -> None:
    """Shadow the layer entry points of one built engine with span shells."""

    def wrap(obj, attr: str, name: str) -> None:
        setattr(obj, attr, rec.wrap(name, getattr(obj, attr)))

    prefix = EXECUTOR_LAYER[engine.executor.name]
    wrap(engine.sampler, "select", "fl.sampling.select")
    wrap(engine.server, "broadcast_payload", "fl.server.broadcast_payload")
    wrap(engine.server, "apply_updates", "fl.server.apply_updates")
    wrap(engine.executor, "broadcast", prefix + ".broadcast")
    wrap(engine.executor, "run", prefix + ".run")
    wrap(engine, "evaluate_global", "fl.evaluation.evaluate")
    worker = engine.executor.borrow_worker()
    if worker is None:
        return  # client compute happens in other processes
    import repro.fl.executor as executor_module

    # SerialExecutor.run resolves execute_task through its module globals.
    wrap(executor_module, "execute_task", TASK_SPAN)
    wrap(worker.model, "set_weights_flat", "models.adopt")
    wrap(worker.model, "forward", "models.forward")
    wrap(worker.model, "backward", "models.backward")
    wrap(worker.model, "get_weights_flat", "models.upload")
    wrap(engine.strategy, "modify_gradients", "algorithms.attach")
    wrap(worker.optimizer, "step", "optim.step")


def record_digest(previous: str, record) -> str:
    """Chain one round record into the History fingerprint: sha256 over the
    record minus its two host-time fields."""
    fields = record.to_dict()
    del fields["wall_seconds"], fields["phase_seconds"]
    blob = previous + json.dumps(fields, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def worker_task_seconds(engine) -> Dict[str, float]:
    """Cumulative worker-side task time from the program's own metrics
    (zero when its recorder is off)."""
    metrics = engine.obs.metrics
    snap = metrics.to_dict().get("fl_client_task_seconds") if metrics is not None else None
    if snap is None:
        return {"sum": 0.0, "count": 0}
    return {"sum": float(snap["sum"]), "count": int(snap["count"])}


def wire_micro_ops(engine) -> Dict[str, float]:
    """Frame encode/decode of one broadcast blob and pickle of one task,
    timed in isolation through the public codec at this workload's payload
    sizes; best of 20, microseconds."""
    from repro.fl.executor import ClientTaskSpec
    from repro.fl.net import frames

    def best_us(fn) -> float:
        best = float("inf")
        for _ in range(20):
            t = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t)
        return best * 1e6

    meta = pickle.dumps({"version": 1, "payload": engine.server.broadcast_payload()})
    blob = engine.server.plane.bytes_view().tobytes()

    def encode() -> bytes:
        return frames.encode_frame(frames.BROADCAST, 1, frames.pack_blob_payload(meta, blob))

    wire = encode()
    last = engine.history.records[-1]
    task = ClientTaskSpec(
        client_id=last.selected[0], round_idx=last.round_idx + 1,
        state=engine.clients[last.selected[0]].state,
    )
    return {
        "fl.net.frames.encode_us": best_us(encode),
        "fl.net.frames.decode_us": best_us(lambda: frames.FrameDecoder().feed(wire)),
        "fl.net.task_pickle_us": best_us(lambda: pickle.dumps(task)),
    }


def reduce_spans(rec: sp.SpanRecorder, engine, timed: List[int], root_name: str) -> Dict[str, float]:
    """Per-layer metrics of the timed rounds: seconds are medians over
    rounds of the per-round total unless the name says otherwise.  Keys
    starting with ``_`` are not catalogue metrics but bases of ratios."""
    spans = rec.spans
    prefix = EXECUTOR_LAYER[engine.executor.name]

    def per_round(name: str, parent: Optional[str] = None) -> float:
        return sp.median_over_rounds(sp.totals_by_round(spans, name, parent), timed)

    layer = "fl.asyncfl" if root_name.startswith("fl.asyncfl") else "api.engine"
    out = {
        layer + ".round_s": per_round(root_name),
        layer + ".round_self_s": sp.median_over_rounds(
            sp.totals_by_round(spans, root_name, values=sp.self_times(spans)), timed),
        "fl.sampling.select_s": per_round("fl.sampling.select"),
        "fl.server.broadcast_payload_s": per_round("fl.server.broadcast_payload"),
        "fl.server.aggregate_s": per_round("fl.server.apply_updates"),
        prefix + ".broadcast_s": per_round(prefix + ".broadcast"),
        prefix + ".run_s": per_round(prefix + ".run"),
        "_run_total_s": sum(sp.durations(spans, prefix + ".run", timed)),
    }
    evals = sp.durations(spans, "fl.evaluation.evaluate", timed)
    out["fl.evaluation.evaluate_s"] = sp.median(evals)
    out["fl.evaluation.evaluations"] = float(len(evals))
    tasks = sp.durations(spans, TASK_SPAN, timed)
    if not tasks:
        return out  # pooled backend: client compute happened elsewhere
    in_task = {
        name: sp.totals_by_round(spans, name, TASK_SPAN)
        for name in COMPUTE_SPANS + ("models.adopt", "models.upload")
    }
    total = {name: sum(by_round.get(r, 0.0) for r in timed) for name, by_round in in_task.items()}
    out["fl.executor.tasks"] = float(len(tasks))
    out["fl.executor.task_s_p50"] = sp.median(tasks)
    out["_task_s_mean"] = sum(tasks) / len(tasks)
    out["fl.executor.task_overhead_share"] = (
        1.0 - sum(total[name] for name in COMPUTE_SPANS) / sum(tasks))
    out["algorithms.attach_share"] = total["algorithms.attach"] / sum(tasks)
    for name, by_round in in_task.items():
        out[name + "_s"] = sp.median_over_rounds(by_round, timed)
    return out


def history_facts(history, name: str) -> Dict[str, Any]:
    """What one lifetime's History says: the counts the output checks need,
    the fingerprint, and the always-on per-round splits of the timed rounds."""
    records = history.records
    timed = records[wl.WARMUP_ROUNDS:]
    # Every lifetime runs at least TWIN_ROUNDS rounds, so this prefix exists
    # everywhere and is comparable across lifetimes and backends.
    fingerprint = ""
    for record in records[:wl.TWIN_ROUNDS]:
        fingerprint = record_digest(fingerprint, record)
    facts: Dict[str, Any] = {
        "walls": [r.wall_seconds for r in timed],
        "fingerprint": fingerprint,
        "n_records": len(records),
        "round_indices_ok": [r.round_idx for r in records] == list(range(len(records))),
        "bad_rounds": sum(
            1 for r in records if r.round_skipped or r.dropped_clients or r.screened_clients),
        "tasks_attempted": sum(len(set(r.selected) | set(r.failed_clients)) for r in records),
        "tasks_failed": sum(len(r.failed_clients) for r in records),
        "updates_aggregated": sum(len(set(r.selected) - set(r.failed_clients)) for r in timed),
        "best_accuracy": history.best_accuracy(),
    }
    if timed:
        gaps = [r.wall_seconds - sum((r.phase_seconds or {}).values()) for r in timed]
        facts["phases"] = {
            "phase.%s_s" % p: sp.median([(r.phase_seconds or {}).get(p, 0.0) for r in timed])
            for p in PHASES
        }
        facts["phases"]["phase.unattributed_s"] = sp.median(gaps)
        facts["phases"]["phase.unattributed_pct"] = (
            100.0 * sum(gaps) / sum(r.wall_seconds for r in timed))
        base = records[wl.WARMUP_ROUNDS - 1]
        facts["gflops_per_round"] = (
            (timed[-1].cumulative_flops - base.cumulative_flops) / len(timed) / 1e9)
        if timed[-1].virtual_time_s is not None:
            facts["virtual_s_per_round"] = (
                (timed[-1].virtual_time_s - base.virtual_time_s) / len(timed))
            facts["mean_staleness"] = history.mean_staleness()
    target = wl.WORKLOADS[name].get("target_accuracy")
    hit = history.rounds_to_accuracy(target) if target is not None else None
    if hit is not None:
        facts["to_target"] = {
            "rounds_to_target": float(hit),
            "gflops_to_target": history.flops_to_accuracy(target),
            # timed rounds only: the warm-up rounds' wall time is set-up.
            "time_to_target_s": sum(r.wall_seconds for r in records[wl.WARMUP_ROUNDS:hit]),
        }
    return facts


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    from repro.api.registry import build_mode
    from repro.api.spec import ExperimentSpec

    import_s = time.time() - job["t_spawn"]
    name = job["workload"]
    traced = bool(job.get("traced"))
    kwargs = wl.spec_kwargs(name, job["seed"], serial_twin=bool(job.get("serial_twin")))
    if traced and kwargs["executor"] != "serial":
        # Turns the program's recorder on, in the workers too.
        kwargs["metrics_out"] = job["artifact_stem"] + ".metrics.prom"

    c0 = time.perf_counter()
    spec = ExperimentSpec(**kwargs)
    c1 = time.perf_counter()
    data = spec.build_data()
    c2 = time.perf_counter()
    engine = build_mode(spec.mode, spec=spec, data=data)
    c3 = time.perf_counter()
    try:
        rec = sp.SpanRecorder() if traced else None
        root_name = "fl.asyncfl.run_round" if spec.mode != "sync" else "api.engine.run_round"
        if rec is not None:
            install_tracing(engine, rec)
        install_s = time.perf_counter() - c3

        def one_round() -> None:
            if rec is None:
                engine.run_round()
            else:
                with rec.root(root_name, engine.server.round_idx):
                    engine.run_round()

        for _ in range(wl.WARMUP_ROUNDS):
            one_round()
        c4 = time.perf_counter()
        # Set-up as a user pays it: interpreter start and imports included,
        # the benchmark's own wrapper installation excluded.
        setup_s = time.time() - job["t_spawn"] - install_s
        busy0 = worker_task_seconds(engine)
        wire_stats = getattr(engine.executor, "wire_stats", None)
        wire0 = wire_stats() if wire_stats is not None else None

        history = engine.history
        target = wl.WORKLOADS[name].get("target_accuracy")
        chase_rounds = job.get("chase_target_rounds", 0) if target is not None else 0

        def keep_going(elapsed: float) -> bool:
            if n_timed < job["min_rounds"] or elapsed < job["seconds"]:
                return True
            return n_timed < chase_rounds and history.rounds_to_accuracy(target) is None

        n_timed = 0
        while keep_going(time.perf_counter() - c4):
            one_round()
            n_timed += 1
        c5 = time.perf_counter()

        busy1 = worker_task_seconds(engine)
        wire = wire_stats() if wire_stats is not None else None
        result = history_facts(history, name)
        result.update({
            "setup": {
                "repro.import_s": import_s,
                "api.spec.build_s": c1 - c0,
                "data.build_s": c2 - c1,
                "api.engine.build_s": c3 - c2,
                "api.engine.warmup_s": c4 - c3 - install_s,
                "setup_s": setup_s,
            },
            "n_timed": n_timed,
            "timed_s": c5 - c4,
            "executor_layer": EXECUTOR_LAYER[engine.executor.name],
            "n_workers": engine.executor.n_workers,
            "worker_task_s": busy1["sum"] - busy0["sum"],
            "worker_tasks": busy1["count"] - busy0["count"],
            "wire": wire,
            # Bytes of the timed rounds only: the handshake ships the whole
            # dataset once and would otherwise dominate short runs.
            "wire_timed_bytes": None if wire is None else {
                k: wire[k] - wire0[k] for k in ("bytes_sent", "bytes_recv")},
        })
        directory = engine.clients
        if hasattr(directory, "materialized"):
            stats = directory.arena.stats()
            result["population"] = {
                "fl.population.materialized_clients": float(directory.materialized),
                "fl.population.arena_mb": (stats["heap_bytes"] + stats["mapped_bytes"]) / 2 ** 20,
            }
        if rec is not None:
            timed_rounds = [r.round_idx for r in history.records[wl.WARMUP_ROUNDS:]]
            layers = reduce_spans(rec, engine, timed_rounds, root_name)
            layers["fl.server.updates_aggregated"] = float(result["updates_aggregated"])
            if engine.executor.name == "network":
                layers.update(wire_micro_ops(engine))
            result["layers"] = layers
            rec.dump(job["artifact_stem"] + ".trace.jsonl")
    finally:
        c6 = time.perf_counter()
        engine.close()
        close_s = time.perf_counter() - c6
    result["close_s"] = close_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["workers_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
