"""The observability layer: tracer/metric units, the JSONL exporter's
golden format, process-pool shard-merge determinism, and the contract that
tracing never perturbs a run (byte-identical History with tracing on vs
off across every executor × mode)."""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.fl.types import RoundRecord
from repro.obs import (
    NULL_RECORDER,
    Counter,
    Gauge,
    Histogram,
    JsonlExporter,
    ListExporter,
    MetricsRegistry,
    NullRecorder,
    Recorder,
    WorkerShardRecorder,
    label_suffix,
    payload_nbytes,
)
from repro.obs.trace import _encode_line

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=2, batch_size=20, lr=0.05)


def tiny_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**TINY, **overrides})


def _round_record(idx, **overrides):
    kwargs = dict(round_idx=idx, selected=[0, 1], test_accuracy=None,
                  test_loss=None, mean_train_loss=0.5, cumulative_flops=1e6,
                  cumulative_comm_bytes=2048.0, wall_seconds=0.01)
    kwargs.update(overrides)
    return RoundRecord(**kwargs)


# ---------------------------------------------------------------------------
# metric units
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_accumulates_and_rejects_decrease(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_is_last_write(self):
        g = Gauge("g")
        g.set(4)
        g.set(2)
        assert g.value == 2.0

    def test_histogram_buckets_count_sum_min_max(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.buckets == [1, 1, 1]  # <=1, <=10, overflow
        assert h.count == 3 and h.sum == 55.5
        assert h.min == 0.5 and h.max == 50.0
        assert h.mean() == pytest.approx(18.5)

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_registry_get_or_create_and_kind_clash(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")

    def test_label_suffix_rides_in_the_name(self):
        assert label_suffix({}) == ""
        name = reg_name = "fl_phase_seconds_total" + label_suffix({"phase": "sample"})
        assert name == 'fl_phase_seconds_total{phase="sample"}'
        reg = MetricsRegistry()
        reg.counter("fl_phase_seconds_total", labels={"phase": "sample"}).inc(2)
        assert reg.get(reg_name).value == 2.0

    def test_drain_resets_and_bumps_generation(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        gen = reg.generation
        snap = reg.drain()
        assert snap["a"]["value"] == 3.0
        assert reg.names() == []
        assert reg.generation == gen + 1

    def test_merge_sums_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(1)
        b.counter("n").inc(2)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b.to_dict())
        assert a.get("n").value == 3.0
        h = a.get("h")
        assert h.count == 2 and h.buckets == [1, 1]
        assert h.min == 0.5 and h.max == 2.0

    def test_merge_rejects_mismatched_histogram_bounds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.histogram("h", buckets=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b.to_dict())

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("fl_rounds_total", "rounds completed").inc(3)
        reg.histogram("fl_round_seconds", buckets=(1.0, 10.0)).observe(0.5)
        text = reg.prometheus_text()
        assert "# HELP fl_rounds_total rounds completed" in text
        assert "# TYPE fl_rounds_total counter" in text
        assert "fl_rounds_total 3" in text
        assert 'fl_round_seconds_bucket{le="1"} 1' in text
        assert 'fl_round_seconds_bucket{le="+Inf"} 1' in text
        assert "fl_round_seconds_count 1" in text

    def test_summary_table_lists_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h").observe(0.2)
        table = reg.summary_table()
        assert "a" in table and "h" in table and "count=1" in table


# ---------------------------------------------------------------------------
# tracer units + exporter golden format
# ---------------------------------------------------------------------------
class TestTracer:
    def test_null_recorder_is_disabled_and_inert(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.begin_round(0)
        NULL_RECORDER.end_phase(dur_s=0.1, anything=1)
        NULL_RECORDER.end_round(None)
        NULL_RECORDER.close()
        assert isinstance(NULL_RECORDER, NullRecorder)

    def test_span_tree_round_phase_client(self):
        exp = ListExporter()
        rec = Recorder(exporter=exp)
        rec.begin_round(0)
        rec.begin_phase("local_train")
        rec.client_task(client_id=3, round_idx=0, dur_s=0.01, n_samples=20,
                        flops=1e6, bytes_up=512)
        rec.end_phase(dur_s=0.02, n_updates=1)
        rec.end_round(_round_record(0, virtual_time_s=4.5, test_accuracy=50.0))
        rec.close()
        by_kind = {s["kind"]: s for s in exp.records}
        assert set(by_kind) == {"round", "phase", "client_task"}
        assert by_kind["client_task"]["parent"] == by_kind["phase"]["span"]
        assert by_kind["phase"]["parent"] == by_kind["round"]["span"]
        assert by_kind["round"]["parent"] is None
        assert by_kind["round"]["virtual_s"] == 4.5
        assert by_kind["round"]["acc"] == 50.0
        assert by_kind["client_task"]["bytes_up"] == 512

    def test_end_round_updates_the_catalog(self):
        rec = Recorder()
        rec.begin_round(0)
        rec.broadcast_bytes(1000, 24, 2)
        rec.end_round(_round_record(
            0, test_accuracy=10.0, update_staleness=[0, 3],
            dropped_clients=[7], phase_seconds={"aggregate": 0.5}))
        m = rec.metrics
        assert m.get("fl_rounds_total").value == 1.0
        assert m.get("fl_evaluations_total").value == 1.0
        assert m.get("fl_updates_aggregated_total").value == 2.0
        assert m.get("fl_bytes_broadcast_total").value == 2048.0
        assert m.get("fl_clients_dropped_total").value == 1.0
        assert m.get("fl_update_staleness").count == 2
        assert m.get('fl_phase_seconds_total{phase="aggregate"}').value == 0.5
        assert m.get("fl_cohort_size").count == 1

    def test_instrument_cache_survives_drain(self):
        # profile_round drains mid-run; the recorder must re-resolve its
        # cached handles instead of writing to detached instruments.
        rec = Recorder()
        rec.begin_round(0)
        rec.end_round(_round_record(0))
        rec.metrics.drain()
        rec.begin_round(1)
        rec.end_round(_round_record(1))
        assert rec.metrics.get("fl_rounds_total").value == 1.0

    def test_close_is_idempotent_and_writes_metrics_file(self, tmp_path):
        path = tmp_path / "m.prom"
        rec = Recorder(metrics_path=str(path))
        rec.begin_round(0)
        rec.end_round(_round_record(0))
        rec.close()
        rec.close()
        text = path.read_text()
        assert "fl_rounds_total 1" in text
        assert "# ---- end-of-run summary ----" in text
        assert rec.metrics.get("fl_rounds_per_sec").value > 0

    def test_payload_nbytes_counts_arrays_and_lists(self):
        np = pytest.importorskip("numpy")
        payload = {"a": np.zeros(4, dtype=np.float32),
                   "b": [np.zeros(2, dtype=np.float64)], "c": "ignored"}
        assert payload_nbytes(payload) == 16 + 16

    def test_jsonl_exporter_golden_file(self, tmp_path):
        """The on-disk format is pinned: compact separators, one object
        per line, key order = emission order, parsable by json.loads."""
        path = tmp_path / "trace.jsonl"
        exp = JsonlExporter(str(path))
        exp.export({"span": 1, "parent": None, "kind": "round",
                    "name": "round", "round": 0, "t_start": 0.25,
                    "dur_s": 0.125, "cohort": 2, "virtual_s": None,
                    "acc": 61.5})
        exp.write_lines([_encode_line(
            {"span": 2, "parent": 1, "kind": "phase", "name": "sample",
             "round": 0, "t_start": 0.25, "dur_s": 0.0625})])
        exp.close()
        golden = (
            '{"span":1,"parent":null,"kind":"round","name":"round",'
            '"round":0,"t_start":0.25,"dur_s":0.125,"cohort":2,'
            '"virtual_s":null,"acc":61.5}\n'
            '{"span":2,"parent":1,"kind":"phase","name":"sample",'
            '"round":0,"t_start":0.25,"dur_s":0.0625}\n'
        )
        assert path.read_text() == golden
        assert [json.loads(line) for line in path.read_text().splitlines()]

    def test_encode_line_matches_json_dumps(self):
        cases = [
            {"a": 1, "b": 0.5, "c": "x", "d": None, "e": True, "f": False},
            {"weird": 'quote"here', "path": "a\\b"},  # escape fallback
            {"inf": math.inf},                        # non-finite fallback
            {"nested": {"x": 1}},                     # container fallback
            {"neg": -1.5e-7, "big": 10**18},
        ]
        for case in cases:
            assert json.loads(_encode_line(case)) == json.loads(
                json.dumps(case)), case

    def test_spans_flush_in_batches_and_on_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = Recorder(exporter=JsonlExporter(str(path)))
        for i in range(10):
            rec.begin_round(i)
            rec.end_round(_round_record(i))
        rec.close()
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(spans) == 10
        assert [s["round"] for s in spans] == list(range(10))


# ---------------------------------------------------------------------------
# worker shards
# ---------------------------------------------------------------------------
class TestWorkerShard:
    def test_shard_drain_and_absorb_are_deterministic(self):
        def make_shard():
            shard = WorkerShardRecorder(with_spans=True)
            for cid in (3, 1):
                shard.client_task(client_id=cid, round_idx=0, dur_s=0.01,
                                  n_samples=10, flops=1e5, bytes_up=256)
            return shard.drain()

        # Drained payloads are plain picklable data and identical per task
        # stream, so absorbing them in task order is deterministic.
        import pickle

        p1, p2 = make_shard(), make_shard()
        spans1 = [{k: v for k, v in s.items() if k != "t_start"}
                  for s in p1["spans"]]
        spans2 = [{k: v for k, v in s.items() if k != "t_start"}
                  for s in p2["spans"]]
        assert p1["metrics"] == p2["metrics"]
        assert spans1 == spans2
        assert pickle.loads(pickle.dumps(p1))["metrics"] == p1["metrics"]

        exp = ListExporter()
        rec = Recorder(exporter=exp)
        rec.begin_round(0)
        rec.begin_phase("local_train")
        rec.absorb(p1)
        rec.absorb(p2)
        rec.end_phase(dur_s=0.1)
        rec.close()
        tasks = [s for s in exp.records if s["kind"] == "client_task"]
        assert [t["client"] for t in tasks] == [3, 1, 3, 1]
        assert all(t["shard"] for t in tasks)
        assert [t["span"] for t in tasks] == sorted(t["span"] for t in tasks)
        assert rec.metrics.get("fl_client_tasks_total").value == 4.0

    def test_shard_without_spans_ships_metrics_only(self):
        shard = WorkerShardRecorder(with_spans=False)
        shard.client_task(client_id=0, round_idx=0, dur_s=0.01, n_samples=10,
                          flops=1e5, bytes_up=256)
        payload = shard.drain()
        assert "spans" not in payload
        assert payload["metrics"]["fl_client_tasks_total"]["value"] == 1.0


# ---------------------------------------------------------------------------
# the run-level contract
# ---------------------------------------------------------------------------
GRID = [("serial", "sync"), ("serial", "semisync"), ("serial", "async"),
        ("process", "sync"), ("process", "semisync"), ("process", "async")]


def _strip_host_time(history):
    records = []
    for rec in history.to_dict()["records"]:
        rec = dict(rec)
        rec.pop("wall_seconds")
        rec.pop("phase_seconds")
        records.append(rec)
    return records


class TestTracingDoesNotPerturb:
    @pytest.mark.parametrize("executor,mode", GRID)
    def test_history_identical_with_tracing_on(self, executor, mode, tmp_path):
        kwargs = dict(executor=executor, mode=mode, seed=11)
        if executor != "serial":
            kwargs["n_workers"] = 2
        trace = tmp_path / f"{executor}_{mode}.jsonl"
        metrics = tmp_path / f"{executor}_{mode}.prom"
        h_off = run_experiment(tiny_spec(**kwargs))
        h_on = run_experiment(tiny_spec(
            **kwargs, trace=str(trace), metrics_out=str(metrics)))
        assert _strip_host_time(h_on) == _strip_host_time(h_off), (
            f"tracing perturbed the {executor}/{mode} history")
        spans = [json.loads(line) for line in trace.read_text().splitlines()]
        rounds = [s for s in spans if s["kind"] == "round"]
        assert len(rounds) == TINY["rounds"]
        assert any(s["kind"] == "client_task" for s in spans)
        ids = {s["span"] for s in spans}
        assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
        assert "fl_rounds_total 2" in metrics.read_text()

    def test_spec_flags_do_not_change_cell_key(self, tmp_path):
        plain = tiny_spec()
        traced = tiny_spec(trace=str(tmp_path / "t.jsonl"),
                           metrics_out=str(tmp_path / "m.prom"))
        assert plain.cell_key() == traced.cell_key()
        assert traced.to_dict()["trace"] == str(tmp_path / "t.jsonl")
        round_trip = ExperimentSpec.from_dict(traced.to_dict())
        assert round_trip.metrics_out == traced.metrics_out

    def test_history_phase_seconds_accessor_and_persistence(self, tmp_path):
        from repro.io.persistence import load_history, save_history

        history = run_experiment(tiny_spec())
        totals = history.phase_seconds_totals()
        assert totals and all(v >= 0 for v in totals.values())
        assert "local_train" in totals
        path = tmp_path / "history.json"
        save_history(history, str(path))
        loaded = load_history(str(path))
        assert [r.phase_seconds for r in loaded.records] == [
            r.phase_seconds for r in history.records]
