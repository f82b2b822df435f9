"""Unit tests of the benchmark's reducers and a smoke run of its front door.

Collected by the tier-1 run (``pytest`` from the repo root); the smoke
cells measure for a fraction of a second, so the whole file stays under
ten seconds.
"""

import argparse
import json
import os
import re

import pytest

import e2e_spans as sp
import e2e_workloads as wl
import run as bench

MANIFEST = bench.load_manifest()


# -- span reducer -----------------------------------------------------------
def test_self_time_on_a_synthetic_tree():
    #  root 0..10 | a 1..4 (a1 2..3) | b 5..9
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a1", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
    ]
    assert sp.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # children + self time close on the root span
    assert sum(sp.self_times(spans)) == 10.0


def test_parent_child_attribution_across_rounds():
    rec = sp.SpanRecorder()
    inner = rec.wrap("layer.inner", lambda: None)
    outer = rec.wrap("layer.outer", inner)
    for round_idx in (7, 8):
        with rec.root("root", round_idx):
            outer()
            inner()  # same name, different parent
    names = [s[0] for s in rec.spans]
    assert names == ["root", "layer.outer", "layer.inner", "layer.inner"] * 2
    assert [s[3] for s in rec.spans] == [-1, 0, 1, 0, -1, 4, 5, 4]
    assert [s[4] for s in rec.spans] == [7] * 4 + [8] * 4
    under_outer = sp.totals_by_round(rec.spans, "layer.inner", parent_name="layer.outer")
    assert sorted(under_outer) == [7, 8]
    everywhere = sp.totals_by_round(rec.spans, "layer.inner")
    assert all(everywhere[r] > under_outer[r] for r in (7, 8))
    # a round the layer never ran in costs nothing
    assert sp.median_over_rounds({7: 2.0}, [7, 8, 9]) == 0.0


def test_trace_file_round_trips(tmp_path):
    rec = sp.SpanRecorder()
    with rec.root("api.engine.run_round", 3):
        rec.wrap("fl.server.apply_updates", lambda: None)()
    path = tmp_path / "t.jsonl"
    rec.dump(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["layer"] for r in rows] == ["api.engine", "fl.server"]
    assert rows[1]["parent"] == 0 and rows[1]["round"] == 3


# -- statistics -------------------------------------------------------------
def test_p90_is_resolved_only_from_100_samples():
    assert not sp.tail_resolved(99, 90)
    assert sp.tail_resolved(100, 90)
    assert sp.tail_resolved(20, 50)
    assert sp.percentile(list(range(101)), 90) == 90.0
    assert sp.percentile([1.0, 3.0], 50) == 2.0
    with pytest.raises(ValueError):
        sp.percentile([], 90)


def test_median_of_repeats_and_pooling():
    repeats = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}, {"a": 2.0}]
    assert sp.median_of_repeats(repeats) == {"a": 2.0, "b": 20.0}
    # round samples are pooled, not averaged: one slow repeat moves the pool's median
    assert sp.median(sp.pooled([[1.0, 1.0], [1.0, 9.0, 9.0]])) == 1.0
    assert sp.spread([1.0]) == 0.0
    assert sp.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


# -- manifest ---------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_manifest_meets_the_contract():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in MANIFEST["workloads"]] == list(wl.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in MANIFEST[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in MANIFEST["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in MANIFEST["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in MANIFEST["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in MANIFEST["end_to_end"])
    assert os.path.isfile(os.path.join(bench.ROOT, *MANIFEST["command"][1].split("/")))


# -- round-time tail and --compare base selection ----------------------------
def test_p90_has_one_definition_and_is_refused_below_100_samples():
    assert bench.round_tail([0.1] * 99) == {"round_s_samples": 99.0}
    walls = [float(i) for i in range(101)]
    assert bench.round_tail(walls) == {"round_s_samples": 101.0, "round_s_p90": 90.0}


def _entry(commit, ts, seed=0, seconds=10.0, **metrics):
    return {"commit": commit, "ts": ts, "seed": seed, "seconds": seconds, "workload": "w",
            "metrics": metrics, "spread": {name: 0.0 for name in metrics}}


def test_compare_only_against_the_same_seed_and_run_length(capsys):
    history = [_entry("aaa", "t1", peak_rss_mb=100.0), _entry("aaa", "t2", seconds=1.0),
               _entry("bbb", "t3", seed=4), _entry("bbb", "t4", peak_rss_mb=80.0)]
    assert bench.comparable_base(history, "aaa", 0, 10.0) == history[:1]
    assert bench.comparable_base(history, "last", 0, 10.0) == history[3:]
    assert bench.comparable_base(history, "last", 0, 1.0) == history[1:2]
    assert bench.comparable_base(history, "bbb", 0, 1.0) == []
    assert bench.comparable_base([], "last", 0, 10.0) == []
    rss = [m for m in MANIFEST["end_to_end"] if m["name"] == "peak_rss_mb"]
    bench.compare([_entry("ccc", "t5", peak_rss_mb=100.0)], history[3:], rss)
    assert "regressed" in capsys.readouterr().out  # 100 / 80, bound 0.05
    bench.compare([_entry("ccc", "t5", peak_rss_mb=81.0)], history[3:], rss)
    assert "ok" in capsys.readouterr().out


# -- output checks ------------------------------------------------------------
def test_a_history_that_differs_from_its_pin_fails_the_check():
    pin = bench.read_pins()["0"]["semisync_serial"]
    run = {"n_records": 6, "n_timed": 4, "round_indices_ok": True, "bad_rounds": 0,
           "tasks_failed": 0, "wire": None, "fingerprint": pin, "best_accuracy": 99.0}
    assert bench.check_outputs("semisync_serial", 0, [run], None) == []
    changed = dict(run, fingerprint="0" * 64)
    problems = bench.check_outputs("semisync_serial", 0, [changed], None)
    assert len(problems) == 1 and "pinned for seed 0" in problems[0]
    # a seed nobody pinned has nothing to differ from
    assert bench.check_outputs("semisync_serial", 10 ** 6, [changed], None) == []


def _fake_lifetime(**over):
    pin = bench.read_pins()["0"]["semisync_serial"]
    run = {"n_records": 6, "n_timed": 4, "round_indices_ok": True, "bad_rounds": 0,
           "tasks_failed": 0, "tasks_attempted": 96, "wire": None, "fingerprint": pin,
           "best_accuracy": 99.0, "setup": {"setup_s": 0.5}, "timed_s": 0.4,
           "walls": [0.1] * 4, "rss_mb": 80.0, "gflops_per_round": 0.06}
    return dict(run, **over)


def test_a_disturbed_lifetime_is_measured_again_but_a_lasting_fault_fails(monkeypatch, capsys):
    monkeypatch.setattr(bench, "UNTRACED_LIFETIMES", (False, False))
    disturbed = _fake_lifetime(tasks_failed=1, wire={"heartbeat_misses": 1})
    served = iter([disturbed, _fake_lifetime(), _fake_lifetime()])
    monkeypatch.setattr(bench, "run_child", lambda job, deadline: next(served))
    result = bench.measure("semisync_serial", seed=0, seconds=0.2, trace=False)
    assert result["problems"] == [] and result["failed"] == 0 and result["attempted"] == 192
    assert "measured again: 1 client task(s) failed; wire reported 1 heartbeat_misses" \
        in capsys.readouterr().err
    # the same fault on every measurement is the program's: two reruns, then it fails
    monkeypatch.setattr(bench, "run_child", lambda job, deadline: disturbed)
    result = bench.measure("semisync_serial", seed=0, seconds=0.2, trace=False)
    assert "1 client task(s) failed" in result["problems"] and result["failed"] == 2
    assert capsys.readouterr().err.count("measured again") == bench.RERUNS_PER_INVOCATION


# -- smoke: every named metric appears, with a unit --------------------------
def _only_the_accuracy_floor(problems):
    # a sub-second run cannot reach the learning floor; nothing else may fail
    return all(p.startswith("best accuracy") for p in problems)


def test_smoke_suite_on_a_serial_cell(monkeypatch, tmp_path, capsys):
    """Suite mode end to end: host block, every end-to-end metric printed
    with its unit, the trajectory appended, and --compare against it."""
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "UNTRACED_LIFETIMES", (False,))
    monkeypatch.setattr(bench, "TRACED_LIFETIMES", (False, True))
    monkeypatch.setattr(bench, "HISTORY", str(tmp_path / "history.jsonl"))
    name = "semisync_serial"
    manifest = dict(MANIFEST, workloads=[w for w in MANIFEST["workloads"] if w["name"] == name])
    args = argparse.Namespace(seed=0, seconds=0.2, compare="last")
    earlier = _entry("earlier", "t0", seconds=0.2, rounds_per_s=1e-9, peak_rss_mb=1e9)
    (tmp_path / "history.jsonl").write_text(json.dumps(dict(earlier, workload=name)) + "\n")

    bench.suite(args, manifest)  # 1 only if a check failed; which ones is asserted below
    out = capsys.readouterr().out
    host = json.loads(out.split("host ", 1)[1].splitlines()[0])
    assert host["nproc"] >= 1 and "blas_threads" in host and "thread_env" in host
    failed = [line.split("CHECK FAILED: ")[1] for line in out.splitlines() if "CHECK FAILED" in line]
    assert _only_the_accuracy_floor(failed), failed
    for m in MANIFEST["end_to_end"]:
        assert re.search(rf"^   {re.escape(m['name'])} +\S+ {re.escape(m['unit'])} ", out, re.M), m["name"]
    assert "fl.asyncfl.round_self_s" in out and "round_s_p90 refused" in out
    assert re.search(r"rounds_per_s .* ok$", out, re.M) and re.search(r"peak_rss_mb .* ok$", out, re.M)
    history = bench.read_history()
    assert [e["commit"] for e in history][0] == "earlier" and len(history) == 2
    assert history[1]["workload"] == name and history[1]["seconds"] == 0.2
    contract = bench.as_contract({"metrics": history[1]["metrics"], "problems": [],
                                  "attempted": 1, "failed": 0}, MANIFEST["end_to_end"])
    for m in MANIFEST["end_to_end"]:
        cell = contract["metrics"][m["name"]]
        assert cell["unit"] == m["unit"] and cell["value"] > 0, m["name"]


def test_smoke_per_layer_metrics_on_a_network_cell(monkeypatch):
    monkeypatch.setattr(bench, "TRACED_LIFETIMES", (False, True))
    monkeypatch.setattr(bench, "TWIN_SECONDS", 0.2)
    result = bench.measure("tiny_network_x2", seed=0, seconds=0.2, trace=True)
    assert _only_the_accuracy_floor(result["problems"]), result["problems"]
    produced = {k for k in result["metrics"] if not k.startswith("_")}
    catalogue = {m["name"] for m in MANIFEST["per_layer"]}
    assert produced <= catalogue, sorted(produced - catalogue)
    contract = bench.as_contract(result, MANIFEST["per_layer"])
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["attempted"] >= 1 and contract["failed"] == 0
    assert set(contract["metrics"]) == catalogue
    for name in ("fl.net.run_s", "fl.net.worker_task_s", "fl.net.bytes_sent_per_round",
                 "fl.net.frames.encode_us", "fl.net.speedup_vs_serial", "phase.local_train_s",
                 "api.engine.round_self_s", "api.engine.warmup_s", "wire_bytes_per_round",
                 "round_s_samples"):
        assert contract["metrics"][name]["value"] > 0, name
    assert os.path.exists(os.path.join(bench.OUT, "tiny_network_x2.trace.jsonl"))
