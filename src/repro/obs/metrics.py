"""Counters, gauges, histograms and the mergeable registry behind ``repro.obs``.

Three instrument kinds, Prometheus-flavoured:

* :class:`Counter` — monotonically increasing float (bytes uploaded, rounds
  run); merge = sum.
* :class:`Gauge` — last-written value (arena heap bytes, rounds/sec);
  merge = last write wins.
* :class:`Histogram` — fixed upper-bound buckets plus count/sum/min/max
  (client task seconds, cohort size, staleness); merge = element-wise sum
  with min/max combined.  Bounds are part of the metric's identity: merging
  shards with different bounds raises.

A :class:`MetricsRegistry` is the process-local (or worker-shard) home for
instruments, keyed by name — get-or-create via :meth:`counter` /
:meth:`gauge` / :meth:`histogram`, thread-safe for callers that drive
engines from their own threads.  Shards travel as the plain dict :meth:`drain`
returns (picklable by construction) and fold into the engine's registry via
:meth:`merge`, so worker-process metrics land deterministically in task
order.  Output formats: :meth:`prometheus_text` (text exposition) and
:meth:`summary_table` (the end-of-run table).

Labels ride inside the metric *name* (``fl_phase_seconds_total{phase="sample"}``
via :func:`label_suffix`) — counters and gauges only; histograms expand to
``_bucket``/``_sum``/``_count`` sample families and stay unlabelled.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "label_suffix",
    "DEFAULT_SECONDS_BUCKETS",
]

#: default histogram bounds, sized for sub-millisecond tasks up to
#: minute-scale rounds (seconds).
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)


def label_suffix(labels: Mapping[str, Any]) -> str:
    """Render labels as the ``{k="v",...}`` suffix carried in a metric name."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing float."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "", lock: Optional[threading.RLock] = None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "help": self.help, "value": self.value}

    def merge(self, payload: Mapping[str, Any]) -> None:
        with self._lock:
            self.value += float(payload["value"])


class Gauge:
    """A value that can go up and down; reads as the last write."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = "", lock: Optional[threading.RLock] = None) -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = lock if lock is not None else threading.RLock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "help": self.help, "value": self.value}

    def merge(self, payload: Mapping[str, Any]) -> None:
        self.set(float(payload["value"]))


class Histogram:
    """Fixed-bound bucket histogram with count/sum/min/max."""

    kind = "histogram"
    __slots__ = ("name", "help", "bounds", "buckets", "count", "sum", "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        lock: Optional[threading.RLock] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_SECONDS_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bucket bounds must be sorted")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.buckets: List[int] = [0] * (len(bounds) + 1)  # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock if lock is not None else threading.RLock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self.buckets[idx] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "help": self.help,
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, payload: Mapping[str, Any]) -> None:
        if tuple(payload["bounds"]) != self.bounds:
            raise ValueError(
                f"histogram {self.name}: cannot merge shard with bounds "
                f"{payload['bounds']} into {list(self.bounds)}"
            )
        with self._lock:
            for i, n in enumerate(payload["buckets"]):
                self.buckets[i] += int(n)
            self.count += int(payload["count"])
            self.sum += float(payload["sum"])
            for key, pick in (("min", min), ("max", max)):
                other = payload.get(key)
                if other is None:
                    continue
                mine = getattr(self, key)
                setattr(self, key, other if mine is None else pick(mine, other))


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named instruments with get-or-create access, shard merge and export."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Any] = {}
        #: bumped whenever instruments are detached (:meth:`drain`), so
        #: holders of cached instrument handles know to re-resolve them.
        self.generation = 0

    # -- get-or-create ------------------------------------------------------
    def _get(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, lock=self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, Any]] = None) -> Counter:
        return self._get(Counter, name + label_suffix(labels or {}), help)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, Any]] = None) -> Gauge:
        return self._get(Gauge, name + label_suffix(labels or {}), help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return list(self._metrics)

    # -- shard plumbing -----------------------------------------------------
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Plain-data snapshot of every instrument (picklable, JSON-ready)."""
        with self._lock:
            return {name: m.snapshot() for name, m in self._metrics.items()}

    def drain(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot and reset — how a worker shard pickles home per task."""
        with self._lock:
            out = self.to_dict()
            self._metrics.clear()
            self.generation += 1
            return out

    def merge(self, payload: Mapping[str, Mapping[str, Any]]) -> None:
        """Fold a :meth:`to_dict`/:meth:`drain` snapshot into this registry,
        creating instruments that do not exist here yet."""
        for name, snap in payload.items():
            kind = snap["type"]
            cls = _KINDS.get(kind)
            if cls is None:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            kwargs = {"buckets": snap["bounds"]} if kind == "histogram" else {}
            self._get(cls, name, snap.get("help", ""), **kwargs).merge(snap)

    # -- output -------------------------------------------------------------
    def prometheus_text(self) -> str:
        """Prometheus text exposition (one ``# TYPE`` block per metric)."""
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            base = m.name.split("{", 1)[0]
            if m.help:
                lines.append(f"# HELP {base} {m.help}")
            lines.append(f"# TYPE {base} {m.kind}")
            if isinstance(m, Histogram):
                cumulative = 0
                for bound, n in zip(m.bounds, m.buckets[:-1]):
                    cumulative += n
                    lines.append(f'{m.name}_bucket{{le="{bound:g}"}} {cumulative}')
                lines.append(f'{m.name}_bucket{{le="+Inf"}} {m.count}')
                lines.append(f"{m.name}_sum {m.sum:g}")
                lines.append(f"{m.name}_count {m.count}")
            else:
                lines.append(f"{m.name} {m.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def summary_table(self) -> str:
        """Human-readable end-of-run table, one instrument per row."""
        rows: List[Tuple[str, str, str]] = []
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            if isinstance(m, Histogram):
                if m.count:
                    detail = (f"count={m.count} mean={m.mean():.6g} "
                              f"min={m.min:.6g} max={m.max:.6g}")
                else:
                    detail = "count=0"
            else:
                detail = f"{m.value:g}"
            rows.append((m.name, m.kind, detail))
        if not rows:
            return "(no metrics recorded)"
        w_name = max(len(r[0]) for r in rows)
        w_kind = max(len(r[1]) for r in rows)
        header = f"{'metric'.ljust(w_name)}  {'kind'.ljust(w_kind)}  value"
        sep = "-" * len(header)
        body = [f"{n.ljust(w_name)}  {k.ljust(w_kind)}  {d}" for n, k, d in rows]
        return "\n".join([header, sep] + body)
