#!/usr/bin/env python3
"""The repo's end-to-end benchmark.

Driver mode (the contract in ``BENCHMARK.json``)::

    python3 e2ebench/run.py --workload cnn_serial --seed 3 --seconds 10 --trace 0

runs one workload once and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Suite mode (no ``--workload``) runs every workload ``REPEATS`` times
round-robin plus one traced pass, prints every metric by name with its
unit, the host block and the output checks, appends one line per workload
to ``e2ebench/out/e2e_history.jsonl`` and, with ``--compare``, labels each
(metric, workload) against an earlier entry.

Each measurement is a fresh ``e2e_cell.py`` subprocess, one at a time (the
host has two CPUs and the x2 workloads already bring two workers).  The
benchmark sets no thread or affinity variable: thread placement is the
program's job; what it found is recorded in the host block.  Metric names,
units, directions and bounds live in ``BENCHMARK.json`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import e2e_spans as sp  # noqa: E402
import e2e_workloads as wl  # noqa: E402

SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
HISTORY = os.path.join(OUT, "e2e_history.jsonl")
#: committed History fingerprints, ``{seed: {workload: sha256}}``.  A run at
#: a pinned seed whose History no longer matches fails its output check, so
#: an arithmetic change is visible and has to be acknowledged by re-pinning
#: (``--repin``) on purpose.
PINNED = os.path.join(HERE, "fingerprints.json")
#: wall-clock allowance of one invocation's measurement children together; a
#: child still running when it is used up is killed with its process group,
#: which keeps the invocation under the contract's 180 s even when one hangs.
INVOCATION_BUDGET_S = 165.0
#: suite mode: untraced repeats per workload.
REPEATS = 3
#: timed seconds of the serial twin in a traced invocation, where its
#: rounds/sec and task time are the base of ``speedup_vs_serial`` and
#: ``task_inflation`` (untraced invocations replay TWIN_ROUNDS only).
TWIN_SECONDS = 1.5
#: engine lifetimes per invocation (False = untraced, True = traced).  Most
#: of this host's run-to-run noise is a per-process speed level (halves of
#: one lifetime correlate at 0.9, back-to-back lifetimes do not), so the
#: measuring time is split over several lifetimes and each metric is the
#: median over them; set-up is thereby sampled once per lifetime too.
UNTRACED_LIFETIMES = (False,) * 5
TRACED_LIFETIMES = (False, True, False, True)
#: lifetimes one invocation may measure a second time.  A lifetime in which
#: the host got between the coordinator and a worker (a connection lost, a
#: heartbeat missed, a task failed for it) is a disturbed sample, not a wrong
#: output: it is discarded with a line on stderr, measured again and counted
#: in ``bench.lifetimes_rerun``.  A fault of the program's own comes back on
#: the second measurement and fails the output check as before.
RERUNS_PER_INVOCATION = 2


def load_manifest() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one measurement
# ---------------------------------------------------------------------------
def run_child(job: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one ``e2e_cell.py`` lifetime and return its result.  The child
    leads its own process group, so a fleet still up at ``deadline`` (on
    ``time.monotonic``) is killed with it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    job = dict(job, t_spawn=time.time())
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "e2e_cell.py"), json.dumps(job)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the whole group already ended
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"measurement child exited with {proc.returncode}: {job}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def read_pins() -> Dict[str, Dict[str, str]]:
    with open(PINNED) as fh:
        return json.load(fh)


def lifetime_problems(run: Dict[str, Any]) -> List[str]:
    """What one lifetime can get wrong on its own: operations that failed."""
    problems = []
    if run["n_records"] != wl.WARMUP_ROUNDS + run["n_timed"] or not run["round_indices_ok"]:
        problems.append("History length or round indices disagree with the rounds run")
    if run["bad_rounds"]:
        problems.append(f"{run['bad_rounds']} round(s) skipped or shed client updates")
    if run["tasks_failed"]:
        problems.append(f"{run['tasks_failed']} client task(s) failed")
    wire = run["wire"] or {}
    for key in ("reconnects", "heartbeat_misses", "connection_losses"):
        if wire.get(key):
            problems.append(f"wire reported {wire[key]} {key}")
    return problems


def check_outputs(name: str, seed: int, runs: List[Dict[str, Any]],
                  twin: Optional[Dict[str, Any]]) -> List[str]:
    """Everything that makes a run's numbers meaningless if it fails."""
    problems = [p for run in runs for p in lifetime_problems(run)]
    # Same seed -> same History, whichever process and backend ran it.
    if len({r["fingerprint"] for r in runs}) != 1:
        problems.append(f"History differs between lifetimes within {wl.TWIN_ROUNDS} rounds")
    elif twin is not None and twin["fingerprint"] != runs[0]["fingerprint"]:
        problems.append(f"History differs from the serial twin within {wl.TWIN_ROUNDS} rounds")
    pin = read_pins().get(str(seed), {}).get(name)
    if pin is not None and pin != runs[0]["fingerprint"]:
        problems.append(
            f"History {runs[0]['fingerprint']} differs from the one pinned for seed {seed} "
            f"({pin}): the arithmetic changed; say which case applies and --repin")
    floor = wl.WORKLOADS[name]["min_best_accuracy"]
    best = max(r["best_accuracy"] for r in runs)
    if not best >= floor:
        problems.append(f"best accuracy {best:.2f} below the floor {floor}")
    return problems


def end_to_end(life: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced engine lifetime."""
    return {
        "setup_s": life["setup"]["setup_s"],
        "rounds_per_s": life["n_timed"] / life["timed_s"],
        "round_s_p50": sp.median(life["walls"]),
        "peak_rss_mb": life["rss_mb"],
        "gflops_per_round": life["gflops_per_round"],
    }


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any],
              twin: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """One untraced + one traced lifetime as per-layer metrics: the traced
    one's span numbers, the untraced one's always-on phase split, set-up
    split and counters, and the ratios that need both (or the twin)."""
    out: Dict[str, float] = dict(plain["phases"])
    out.update({k: v for k, v in plain["setup"].items() if k != "setup_s"})
    out["api.engine.close_s"] = plain["close_s"]
    out.update({k: v for k, v in traced["layers"].items() if not k.startswith("_")})
    out.update(plain.get("population", {}))
    out.update(plain.get("to_target", {}))
    out["tasks_attempted"] = float(plain["tasks_attempted"])
    out["tasks_failed"] = float(plain["tasks_failed"])
    out["failed_task_share"] = plain["tasks_failed"] / plain["tasks_attempted"]
    plain_rps = plain["n_timed"] / plain["timed_s"]
    out["obs.trace_overhead_pct"] = 100.0 * (1.0 - traced["n_timed"] / traced["timed_s"] / plain_rps)
    if "virtual_s_per_round" in plain:
        out["fl.asyncfl.virtual_s_per_round"] = plain["virtual_s_per_round"]
        out["fl.asyncfl.mean_staleness"] = plain["mean_staleness"]
    if twin is not None:
        prefix = plain["executor_layer"]
        busy = traced["worker_task_s"]  # from the program's own task histogram
        out[prefix + ".worker_task_s"] = busy / traced["n_timed"]
        out[prefix + ".idle_share"] = 1.0 - busy / (
            traced["n_workers"] * traced["layers"]["_run_total_s"])
        out[prefix + ".task_inflation"] = (
            busy / traced["worker_tasks"] / twin["layers"]["_task_s_mean"])
        out[prefix + ".speedup_vs_serial"] = plain_rps / (twin["n_timed"] / twin["timed_s"])
        out[prefix + ".workers_peak_rss_mb"] = plain["workers_rss_mb"]
    if plain["wire"] is not None:
        sent, recv = (plain["wire_timed_bytes"][k] / plain["n_timed"]
                      for k in ("bytes_sent", "bytes_recv"))
        out["fl.net.bytes_sent_per_round"] = sent
        out["fl.net.bytes_recv_per_round"] = recv
        out["wire_bytes_per_round"] = sent + recv
        for key in ("reconnects", "heartbeat_misses", "connection_losses"):
            out["fl.net." + key] = float(plain["wire"][key])
    return out


def round_tail(walls: List[float]) -> Dict[str, float]:
    """``round_s_p90`` of round walls pooled over lifetimes (and, in suite
    mode, repeats) with the sample count beside it.  The one definition of
    that metric; it is left out while the pool has fewer than 100 samples."""
    out = {"round_s_samples": float(len(walls))}
    if sp.tail_resolved(len(walls), 90):
        out["round_s_p90"] = sp.percentile(walls, 90)
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One invocation for one workload: ``seconds`` of measuring split over
    several engine lifetimes, each metric the median over lifetimes."""
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + INVOCATION_BUDGET_S
    base = {"workload": name, "seed": seed, "artifact_stem": os.path.join(OUT, name),
            "min_rounds": wl.TWIN_ROUNDS - wl.WARMUP_ROUNDS}
    kinds = TRACED_LIFETIMES if trace else UNTRACED_LIFETIMES
    jobs = [dict(base, seconds=seconds / len(kinds), traced=traced) for traced in kinds]
    target = wl.WORKLOADS[name].get("target_accuracy") if trace else None
    if target is not None:
        jobs[0]["chase_target_rounds"] = wl.TARGET_ROUNDS
    reruns: List[str] = []

    def lifetime(job: Dict[str, Any]) -> Dict[str, Any]:
        run = run_child(job, deadline)
        while len(reruns) < RERUNS_PER_INVOCATION and lifetime_problems(run):
            reruns.append("; ".join(lifetime_problems(run)))
            print(f"{name} seed {seed}: lifetime discarded and measured again: {reruns[-1]}",
                  file=sys.stderr)
            run = run_child(job, deadline)
        return run

    runs = [lifetime(job) for job in jobs]
    twin = None
    if wl.has_twin(name):
        twin = lifetime(dict(base, serial_twin=True, traced=trace,
                             artifact_stem=base["artifact_stem"] + ".twin",
                             seconds=TWIN_SECONDS if trace else 0.0))
    problems = check_outputs(name, seed, runs, twin)
    if target is not None and "to_target" not in runs[0]:
        problems.append(f"accuracy {target} not reached within {wl.TARGET_ROUNDS} timed rounds")
    plain = [r for r, traced in zip(runs, kinds) if not traced]
    if trace:
        traced_runs = [r for r, traced in zip(runs, kinds) if traced]
        per_life = [per_layer(p, t, twin) for p, t in zip(plain, traced_runs)]
    else:
        per_life = [end_to_end(p) for p in plain]
    metrics = sp.median_of_repeats(per_life)
    walls = sp.pooled([p["walls"] for p in plain])
    if trace:
        metrics.update(round_tail(walls))
        metrics["bench.lifetimes_rerun"] = float(len(reruns))
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": sum(r["tasks_attempted"] for r in runs),
        "failed": sum(r["tasks_failed"] for r in runs),
        "walls": walls,
        "fingerprint": runs[0]["fingerprint"],
    }


def as_contract(result: Dict[str, Any], catalogue: List[Dict[str, str]]) -> Dict[str, Any]:
    """The contract's result object, which must carry every catalogue
    metric.  A per-layer metric the workload does not exercise (wire
    counters on a serial cell, client compute spans on a pooled one) reads
    0, and so does ``round_s_p90`` while ``round_s_samples`` is below 100."""
    metrics = {
        m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
        for m in catalogue
    }
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# suite mode: host block, report, trajectory
# ---------------------------------------------------------------------------
def blas_threads() -> Optional[int]:
    """BLAS thread count as the program sees it, asked of the OpenBLAS that
    numpy loaded; None when that library does not answer (unverified)."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS this process would use)

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def host_block() -> Dict[str, Any]:
    import platform

    import numpy

    blas = numpy.__config__.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": load,
        "noisy": load > nproc,
    }


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def read_history() -> List[Dict[str, Any]]:
    if not os.path.exists(HISTORY):
        return []
    with open(HISTORY) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def comparable_base(previous: List[Dict[str, Any]], wanted: str, seed: int,
                    seconds: float) -> List[Dict[str, Any]]:
    """The latest earlier suite run of commit ``wanted`` (``last``: of any
    commit) made with the same seed and run length — peak RSS, FLOPs per
    round and the fingerprints move with either, so other entries are not
    comparable.  Empty when there is none."""
    same = [e for e in previous if e["seed"] == seed and e["seconds"] == seconds
            and wanted in ("last", e["commit"])]
    return [e for e in same if e["ts"] == same[-1]["ts"]]


def compare(entries: List[Dict[str, Any]], base: List[Dict[str, Any]],
            catalogue: List[Dict[str, Any]]) -> None:
    """Each (metric, workload) as a ratio with its base: ``regressed`` when
    worse than the base by more than the metric's bound, ``unresolved`` when
    either side's repeat spread is wider than the bound."""
    by_workload = {e["workload"]: e for e in base}
    print(f"\ncompare against commit {base[0]['commit']} ({base[0]['ts']})")
    for entry in entries:
        old = by_workload.get(entry["workload"])
        if old is None:
            continue
        for m in catalogue:
            new_v, old_v = entry["metrics"].get(m["name"]), old["metrics"].get(m["name"])
            if not new_v or not old_v:
                continue
            ratio = new_v / old_v
            worse = ratio - 1.0 if m["better"] == "lower" else 1.0 - ratio
            noise = max(entry["spread"].get(m["name"], 0.0), old["spread"].get(m["name"], 0.0))
            label = "unresolved" if noise > m["bound"] else "regressed" if worse > m["bound"] else "ok"
            print(f"  {entry['workload']:16s} {m['name']:18s} {new_v:12.6g} / {old_v:12.6g} "
                  f"= {ratio:6.3f}  {label}")


def suite(args, manifest: Dict[str, Any]) -> int:
    names = [w["name"] for w in manifest["workloads"]]
    why = {w["name"]: w["why"] for w in manifest["workloads"]}
    host = host_block()
    print("host " + json.dumps(host))
    results: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
    for _ in range(REPEATS):  # round-robin, so host drift spreads evenly
        for name in names:
            results[name].append(measure(name, args.seed, args.seconds, trace=False))
    layers = {name: measure(name, args.seed, args.seconds, trace=True) for name in names}
    host["loadavg_end"] = os.getloadavg()[0]
    host["noisy"] = host["noisy"] or host["loadavg_end"] > host["nproc"]

    ok = True
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    commit = git_commit()
    entries = []
    for name in names:
        reps = results[name]
        print(f"\n== {name}: {why[name]}")
        print("   spec " + json.dumps(wl.WORKLOADS[name]["spec"], sort_keys=True))
        values = sp.median_of_repeats([r["metrics"] for r in reps])
        layer_values = dict(layers[name]["metrics"])
        # the tail of round time comes from the untraced repeats' pooled rounds
        layer_values.pop("round_s_p90", None)
        layer_values.update(round_tail(sp.pooled([r["walls"] for r in reps])))
        spreads = {m: sp.spread([r["metrics"][m] for r in reps]) for m in values}
        for m in manifest["end_to_end"]:
            print(f"   {m['name']:18s} {values[m['name']]:14.6g} {m['unit']:6s} "
                  f"({m['better']} is better, bound {m['bound']:.2f}, "
                  f"spread over {len(reps)} repeats {spreads[m['name']]:.3f})")
        for m in manifest["per_layer"]:
            value = layer_values.get(m["name"])
            if value is not None:
                print(f"   {m['name']:38s} {value:14.6g} {m['unit']}")
        if "round_s_p90" not in layer_values:
            print("   round_s_p90 refused: fewer than 100 pooled rounds")
        prints = {r["fingerprint"] for r in reps} | {layers[name]["fingerprint"]}
        print(f"   fingerprint (first {wl.TWIN_ROUNDS} rounds, seed {args.seed}) {sorted(prints)}")
        problems = sorted({p for r in reps + [layers[name]] for p in r["problems"]})
        if len(prints) != 1:
            problems.append("History fingerprints differ between repeats")
        for problem in problems:
            ok = False
            print("   CHECK FAILED: " + problem)
        entries.append({
            "ts": stamp, "commit": commit, "seed": args.seed, "seconds": args.seconds,
            "host_class": f"{host['nproc']}cpu", "noisy": host["noisy"],
            "workload": name, "metrics": values, "spread": spreads,
            "fingerprint": sorted(prints)[0],
        })
    previous = read_history()
    with open(HISTORY, "a") as fh:  # a trajectory: appended, never rewritten
        for entry in entries:
            fh.write(json.dumps(entry) + "\n")
    if args.compare:
        base = comparable_base(previous, args.compare, args.seed, args.seconds)
        if base:
            compare(entries, base, manifest["end_to_end"])
        else:
            print(f"\nnothing comparable: no entry for {args.compare!r} with seed {args.seed} "
                  f"and {args.seconds:g} s runs in {HISTORY}")
    print("\nhost " + json.dumps(host))
    return 0 if ok else 1


def repin() -> int:
    """Rewrite ``fingerprints.json`` for the seeds it lists, from untimed
    serial replays (an x2 cell must equal its serial twin anyway)."""
    os.makedirs(OUT, exist_ok=True)
    pins: Dict[str, Dict[str, str]] = {}
    for seed in read_pins():
        replayed: Dict[str, str] = {}
        for name in wl.WORKLOADS:
            spec = json.dumps(wl.spec_kwargs(name, int(seed), serial_twin=True), sort_keys=True)
            if spec not in replayed:  # the three cnn_* cells share one replay
                replayed[spec] = run_child(
                    {"workload": name, "seed": int(seed), "serial_twin": True, "traced": False,
                     "seconds": 0.0, "min_rounds": wl.TWIN_ROUNDS - wl.WARMUP_ROUNDS},
                    time.monotonic() + INVOCATION_BUDGET_S)["fingerprint"]
            pins.setdefault(seed, {})[name] = replayed[spec]
        print(f"seed {seed} pinned")
    with open(PINNED, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=0, help="maps to ExperimentSpec.seed")
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced pass, per-layer metrics")
    parser.add_argument("--compare", metavar="COMMIT|last",
                        help="suite mode: label every metric against that history entry")
    parser.add_argument("--repin", action="store_true",
                        help="recompute fingerprints.json for its seeds: the explicit "
                             "acknowledgement that the arithmetic changed")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program's source tree is missing: {SRC}", file=sys.stderr)
        return 2
    if args.repin:
        return repin()
    manifest = load_manifest()
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.workload is None:
        return suite(args, manifest)
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(wl.WORKLOADS)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"]:
        print("CHECK FAILED: " + problem)
        print(f"CHECK FAILED ({args.workload} seed {args.seed}): {problem}", file=sys.stderr)
    contract = as_contract(result, manifest["per_layer" if args.trace else "end_to_end"])
    for metric, cell in contract["metrics"].items():
        print(f"{metric:38s} {cell['value']:14.6g} {cell['unit']}")
    print(json.dumps(contract))
    return 0


if __name__ == "__main__":
    sys.exit(main())
