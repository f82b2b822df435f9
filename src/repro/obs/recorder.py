"""The run recorder: nested spans + the metrics registry, engine-facing.

One :class:`Recorder` instance accompanies one engine run.  The engine (and
its executors, through ``TaskRuntime.recorder``) drive it through a small
imperative surface:

* ``begin_round(idx)`` / ``end_round(record)`` — the outermost span, one
  per :class:`~repro.fl.types.RoundRecord`;
* ``begin_phase(name)`` / ``end_phase(dur_s, **attrs)`` — one span per
  engine phase (sample/broadcast/preamble/local_train/aggregate/evaluate),
  parented under the current round;
* ``client_task(...)`` — one span per executed client task, parented under
  the current phase, called from :func:`~repro.fl.executor.execute_task`
  (the choke point every backend shares);
* ``absorb(payload)`` — fold a worker process's shard
  (:class:`WorkerShardRecorder` output that pickled home on a
  :class:`~repro.fl.executor.TaskResult`) into this recorder.  The engine
  absorbs in task order, so merged metrics are deterministic.

Span records are plain dicts::

    {"span": 7, "parent": 3, "kind": "client_task", "name": "client",
     "round": 2, "client": 5, "t_start": 0.41, "dur_s": 0.013,
     "n_samples": 120, "flops": 3.1e8, "bytes_up": 35496}

``t_start`` is seconds since the recorder was created (worker-shard spans
carry their worker's origin and are marked ``"shard": true``); round spans
carry the virtual clock as ``virtual_s``.  Exported via
:mod:`repro.obs.trace`.

**The disabled path is the module-level** :data:`NULL_RECORDER` **—
every method a no-op and ``enabled`` false, so hot-path call sites guard
with one attribute read and allocate nothing.**  Determinism contract:
nothing in this module touches RNG state or reorders reductions; enabling
tracing must (and does — see the trace-on/off grid test) leave histories
byte-identical.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import JsonlExporter, _encode_line

__all__ = [
    "NULL_RECORDER",
    "NullRecorder",
    "Recorder",
    "WorkerShardRecorder",
    "payload_nbytes",
]

#: bucket bounds for cohort-size and staleness histograms (counts).
COHORT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)
STALENESS_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


def payload_nbytes(payload: Mapping[str, Any]) -> int:
    """Bytes of ndarray content in a server broadcast payload dict."""
    total = 0
    for value in payload.values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return int(total)


def _record_task_metrics(metrics: MetricsRegistry, dur_s: float, n_samples: int,
                         flops: float, bytes_up: int) -> None:
    """The per-client-task instrument updates, shared by the engine-side
    recorder and the worker shard so both paths count identically."""
    metrics.counter("fl_client_tasks_total", "client tasks executed").inc()
    metrics.counter("fl_train_samples_total", "local training samples consumed").inc(n_samples)
    metrics.counter("fl_client_flops_total", "client training FLOPs").inc(flops)
    metrics.counter("fl_bytes_uploaded_total",
                    "update bytes uploaded (flat weights + extras)").inc(bytes_up)
    metrics.histogram("fl_client_task_seconds",
                      "wall seconds per client task").observe(dur_s)


class NullRecorder:
    """The disabled path: every hook a no-op, ``enabled`` false.

    Call sites on the hot path guard with ``if recorder.enabled:`` so the
    disabled run allocates nothing — no span dicts, no kwargs, no metric
    objects (verified by the overhead benchmark).
    """

    enabled = False
    metrics: Optional[MetricsRegistry] = None
    exporter = None
    __slots__ = ()

    def begin_round(self, round_idx: int) -> None:
        pass

    def begin_phase(self, name: str) -> None:
        pass

    def end_phase(self, dur_s: float, **attrs) -> None:
        pass

    def client_task(self, **attrs) -> None:
        pass

    def absorb(self, payload: Mapping[str, Any]) -> None:
        pass

    def end_round(self, record) -> None:
        pass

    def close(self) -> None:
        pass


#: the shared disabled recorder — engines and runtimes default to this.
NULL_RECORDER = NullRecorder()


class Recorder:
    """Engine-side spans + metrics for one run (see module docstring)."""

    enabled = True

    def __init__(
        self,
        exporter=None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_path: Optional[str] = None,
    ) -> None:
        self.exporter = exporter
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics_path = metrics_path
        self._seq = itertools.count(1)
        self._origin = time.perf_counter()
        self._round_id: Optional[int] = None
        self._round_idx: Optional[int] = None
        self._round_t0 = 0.0
        self._phase_id: Optional[int] = None
        self._phase: Optional[str] = None
        self._phase_t0 = 0.0
        self._wall_total = 0.0
        self._closed = False
        # Cached per-round instrument handles: end_round fires ~a dozen
        # instrument updates every round, and paying the registry's
        # get-or-create (name render + lock + dict probe) for each blows
        # the tracing-overhead budget.  Rebuilt when the registry's
        # generation moves (drain() detaches live instruments).
        self._round_instruments: Optional[Dict[str, Any]] = None
        self._cache_generation = -1
        # Completed spans wait here and JSON-encode in bursts (at the end
        # of a round once the batch is large enough, and on close): after
        # the round's real work has churned the caches, per-span encoding
        # pays a cold-miss tax that batch encoding amortizes away.  A
        # deque because appends and poplefts are GIL-atomic — spans completed
        # from a caller's own threads need no lock.
        self._pending: deque = deque()
        # Downlink bytes accumulate in a plain attribute and fold into the
        # counter in end_round, where the instrument cache is already hot.
        self._bcast_pending = 0.0

    @classmethod
    def create(cls, trace_path: Optional[str] = None,
               metrics_path: Optional[str] = None) -> "Recorder":
        """The spec/CLI entry point: a JSONL tracer when ``trace_path`` is
        set, metrics exposition written to ``metrics_path`` on close."""
        exporter = JsonlExporter(trace_path) if trace_path else None
        return cls(exporter=exporter, metrics_path=metrics_path)

    # -- span plumbing -------------------------------------------------------
    def _next_id(self) -> int:
        # itertools.count.__next__ is atomic under the GIL — no lock needed
        # for spans opened concurrently from a caller's own threads.
        return next(self._seq)

    def _emit(self, record: Dict[str, Any]) -> None:
        if self.exporter is not None:
            self._pending.append(record)

    def _flush_spans(self) -> None:
        """Encode and write every pending span (ordered by completion)."""
        if self.exporter is None or not self._pending:
            return
        spans: List[Dict[str, Any]] = []
        try:
            while True:
                spans.append(self._pending.popleft())
        except IndexError:
            pass
        self.exporter.write_lines([_encode_line(s) for s in spans])

    def begin_round(self, round_idx: int) -> None:
        self._round_id = self._next_id()
        self._round_idx = round_idx
        self._round_t0 = time.perf_counter()

    def begin_phase(self, name: str) -> None:
        self._phase_id = self._next_id()
        self._phase = name
        self._phase_t0 = time.perf_counter()

    def end_phase(self, dur_s: float, **attrs) -> None:
        if self.exporter is not None:
            span: Dict[str, Any] = {
                "span": self._phase_id,
                "parent": self._round_id,
                "kind": "phase",
                "name": self._phase,
                "round": self._round_idx,
                "t_start": self._phase_t0 - self._origin,
                "dur_s": dur_s,
            }
            if attrs:
                span.update(attrs)
            self._pending.append(span)
        self._phase_id = None
        self._phase = None

    def client_task(self, *, client_id: int, round_idx: int, dur_s: float,
                    n_samples: int, flops: float, bytes_up: int,
                    staleness: Optional[float] = None) -> None:
        _record_task_metrics(self.metrics, dur_s, n_samples, flops, bytes_up)
        if self.exporter is None:
            return
        span: Dict[str, Any] = {
            "span": self._next_id(),
            "parent": self._phase_id if self._phase_id is not None else self._round_id,
            "kind": "client_task",
            "name": "client",
            "round": round_idx,
            "client": client_id,
            "t_start": time.perf_counter() - dur_s - self._origin,
            "dur_s": dur_s,
            "n_samples": n_samples,
            "flops": flops,
            "bytes_up": bytes_up,
        }
        if staleness is not None:
            span["staleness"] = staleness
        self._emit(span)

    def broadcast_bytes(self, model_bytes: int, extra_bytes: int, n_clients: int) -> None:
        """Account one downlink broadcast: model + payload bytes to each of
        ``n_clients`` (a worker process receives the same bytes once per
        round — we count the logical per-client downlink, matching uplink)."""
        self._bcast_pending += float(model_bytes + extra_bytes) * n_clients

    def absorb(self, payload: Mapping[str, Any]) -> None:
        """Fold a worker shard home: re-parent its spans under the current
        phase (ids are assigned here, at absorb time, so span ids stay
        sequential and deterministic in task order) and merge its metrics."""
        for span in payload.get("spans", ()):
            span = dict(span)
            span["span"] = self._next_id()
            span["parent"] = (
                self._phase_id if self._phase_id is not None else self._round_id
            )
            self._emit(span)
        metrics = payload.get("metrics")
        if metrics:
            self.metrics.merge(metrics)

    def _instruments(self) -> Dict[str, Any]:
        """The cached per-round instrument handles (see ``__init__``)."""
        m = self.metrics
        if self._round_instruments is None or self._cache_generation != m.generation:
            self._cache_generation = m.generation
            self._round_instruments = {
                "rounds": m.counter("fl_rounds_total", "rounds completed"),
                "evals": m.counter("fl_evaluations_total",
                                   "rounds with a global evaluation"),
                "aggregated": m.counter("fl_updates_aggregated_total",
                                        "client updates aggregated"),
                "cohort": m.histogram("fl_cohort_size",
                                      "aggregated cohort size per round",
                                      buckets=COHORT_BUCKETS),
                "round_s": m.histogram("fl_round_seconds", "wall seconds per round"),
                "comm": m.gauge("fl_cumulative_comm_bytes",
                                "cost-model communication bytes (Table V accounting)"),
                "bcast": m.counter("fl_bytes_broadcast_total",
                                   "global model + payload bytes broadcast to clients"),
                "phase_s": {},  # phase name -> labeled counter, filled lazily
            }
        return self._round_instruments

    def end_round(self, record) -> None:
        """Round bookkeeping from the freshly built RoundRecord: the round
        span plus every per-round instrument."""
        m = self.metrics
        i = self._instruments()
        i["rounds"].inc()
        if record.test_accuracy is not None:
            i["evals"].inc()
        if record.round_skipped:
            m.counter("fl_rounds_skipped_total",
                      "rounds abandoned (non-finite updates or quorum not met)").inc()
        i["aggregated"].inc(len(record.selected))
        i["cohort"].observe(len(record.selected))
        i["round_s"].observe(record.wall_seconds)
        if record.update_staleness:
            stale = m.histogram("fl_update_staleness",
                                "measured staleness per aggregated update",
                                buckets=STALENESS_BUCKETS)
            for s in record.update_staleness:
                stale.observe(s)
        if record.dropped_clients:
            m.counter("fl_clients_dropped_total",
                      "clients shed by the finite check").inc(len(record.dropped_clients))
        if record.failed_clients:
            m.counter("fl_clients_failed_total",
                      "clients whose task failed terminally (fault policy)").inc(
                len(record.failed_clients))
        if record.retried_clients:
            m.counter("fl_clients_retried_total",
                      "client task retry dispatches (fault policy)").inc(
                len(record.retried_clients))
            m.histogram("fl_task_retries_per_round",
                        "retry dispatches per round").observe(
                len(record.retried_clients))
        if record.screened_clients:
            m.counter("fl_clients_screened_total",
                      "clients excluded by a robust rule").inc(len(record.screened_clients))
        if record.adversary_clients:
            m.counter("fl_adversary_updates_total",
                      "aggregating cohort members on the adversary roster").inc(
                len(record.adversary_clients))
        if record.phase_seconds:
            phase_counters = i["phase_s"]
            for phase, seconds in record.phase_seconds.items():
                counter = phase_counters.get(phase)
                if counter is None:
                    counter = phase_counters[phase] = m.counter(
                        "fl_phase_seconds_total",
                        "cumulative wall seconds per phase",
                        labels={"phase": phase})
                counter.inc(seconds)
        i["comm"].set(record.cumulative_comm_bytes)
        if record.virtual_time_s is not None:
            m.gauge("fl_virtual_time_s", "simulated clock at last aggregation").set(
                record.virtual_time_s)
        if self._bcast_pending:
            i["bcast"].inc(self._bcast_pending)
            self._bcast_pending = 0.0
        self._wall_total += record.wall_seconds
        if self.exporter is not None:
            self._pending.append({
                "span": self._round_id,
                "parent": None,
                "kind": "round",
                "name": "round",
                "round": record.round_idx,
                "t_start": self._round_t0 - self._origin,
                "dur_s": record.wall_seconds,
                "cohort": len(record.selected),
                "virtual_s": record.virtual_time_s,
                "acc": record.test_accuracy,
            })
            if len(self._pending) >= 64:
                self._flush_spans()
        self._round_id = None
        self._round_idx = None

    def summary_table(self) -> str:
        return self.metrics.summary_table()

    def close(self) -> None:
        """Finalize derived gauges, flush the tracer, write the metrics
        exposition file (idempotent; the engine calls this from close())."""
        if self._closed:
            return
        self._closed = True
        self._flush_spans()
        if self._bcast_pending:  # broadcast with no end_round after it
            self._instruments()["bcast"].inc(self._bcast_pending)
            self._bcast_pending = 0.0
        rounds = self.metrics.get("fl_rounds_total")
        if rounds is not None and self._wall_total > 0:
            self.metrics.gauge("fl_rounds_per_sec",
                               "completed rounds per wall second").set(
                rounds.value / self._wall_total)
        if self.exporter is not None:
            self.exporter.close()
        if self.metrics_path:
            # Lazy import: repro.obs must stay importable without repro.io.
            from repro.io.persistence import atomic_write_bytes

            table = self.metrics.summary_table()
            parts = [self.metrics.prometheus_text(),
                     "\n# ---- end-of-run summary ----\n"]
            parts += [f"# {line}\n" for line in table.splitlines()]
            atomic_write_bytes(self.metrics_path, "".join(parts).encode("utf-8"))


class WorkerShardRecorder(NullRecorder):
    """The per-process-worker shard: counts tasks locally, pickles home.

    Lives in a worker process's ``TaskRuntime.recorder``.  It has no
    exporter and no round/phase state — workers only see client tasks.
    After each task the worker (``repro.fl.net.worker``) calls
    :meth:`drain` and attaches the plain-dict payload to the result; the
    engine absorbs it in task order (deterministic merge at round end).
    """

    enabled = True
    __slots__ = ("metrics", "_spans", "_with_spans", "_origin")

    def __init__(self, with_spans: bool = False) -> None:
        self.metrics = MetricsRegistry()
        self._spans: List[Dict[str, Any]] = []
        self._with_spans = with_spans
        self._origin = time.perf_counter()

    def client_task(self, *, client_id: int, round_idx: int, dur_s: float,
                    n_samples: int, flops: float, bytes_up: int,
                    staleness: Optional[float] = None) -> None:
        _record_task_metrics(self.metrics, dur_s, n_samples, flops, bytes_up)
        if not self._with_spans:
            return
        span: Dict[str, Any] = {
            "kind": "client_task",
            "name": "client",
            "round": round_idx,
            "client": client_id,
            "t_start": time.perf_counter() - dur_s - self._origin,
            "dur_s": dur_s,
            "n_samples": n_samples,
            "flops": flops,
            "bytes_up": bytes_up,
            "shard": True,
        }
        if staleness is not None:
            span["staleness"] = staleness
        self._spans.append(span)

    def drain(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"metrics": self.metrics.drain()}
        if self._spans:
            out["spans"] = self._spans
            self._spans = []
        return out
