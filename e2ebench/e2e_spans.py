"""In-memory span recorder, span reducers and the benchmark's statistics.

The recorder lives in the benchmark, not in the program: ``wrap`` puts a
timing shell around a call *into* a layer (``sampler.select``,
``executor.run``, ``FedModel.forward`` ...), so the program's own code is
untouched and the untraced runs carry no instrumentation at all.

A span is the tuple ``(name, start, end, parent, round)``; ``parent`` is
the index of the enclosing span (-1 for a root) and ``round`` the round the
root span was opened for.  Spans are appended in *start* order, so a parent
always precedes its children.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int, Optional[int]]

#: a percentile is resolved only with at least this many samples beyond it
#: (choosing-metrics: "the highest percentile that has at least ten samples
#: beyond it"); p90 therefore needs 100 samples.
MIN_TAIL_SAMPLES = 10


class SpanRecorder:
    """Record nested call spans in memory; flush once, after the timed loop."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.round: Optional[int] = None

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)  # reserved now so indices follow start order
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.round)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""

        def traced(*args, **kwargs):
            idx = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, perf_counter())

        return traced

    @contextmanager
    def root(self, name: str, round_idx: int):
        """The per-round root span; children inherit ``round_idx``."""
        self.round = round_idx
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, perf_counter())
            self.round = None

    def dump(self, path: str) -> None:
        """One JSON object per span: id, name, layer (the name up to its
        last dot), start/end (seconds on this process's perf_counter),
        parent id (-1 = root) and round."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, rnd) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "layer": name.rpartition(".")[0],
                    "start": start, "end": end, "parent": parent, "round": rnd,
                }) + "\n")


# ---------------------------------------------------------------------------
# reducers
# ---------------------------------------------------------------------------
def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def totals_by_round(spans: Sequence[Span], name: str,
                    parent_name: Optional[str] = None,
                    values: Optional[Sequence[float]] = None) -> Dict[int, float]:
    """``{round: summed seconds}`` of the spans called ``name`` — optionally
    only those whose direct parent is called ``parent_name``, and summing
    ``values`` (e.g. :func:`self_times`) instead of plain durations."""
    out: Dict[int, float] = {}
    for idx, (span_name, start, end, parent, rnd) in enumerate(spans):
        if span_name != name or rnd is None:
            continue
        if parent_name is not None and (parent < 0 or spans[parent][0] != parent_name):
            continue
        out[rnd] = out.get(rnd, 0.0) + (values[idx] if values is not None else end - start)
    return out


def durations(spans: Sequence[Span], name: str, rounds: Iterable[int]) -> List[float]:
    """Every call duration of ``name`` inside ``rounds``."""
    keep = set(rounds)
    return [end - start for n, start, end, _, rnd in spans if n == name and rnd in keep]


def median_over_rounds(per_round: Dict[int, float], rounds: Sequence[int]) -> float:
    """Median over ``rounds`` of a per-round total; a round in which the
    layer was never entered counts as 0 seconds (it cost nothing)."""
    return median([per_round.get(r, 0.0) for r in rounds])


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples)) if len(samples) else 0.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``samples``."""
    if not len(samples):
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def tail_resolved(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` leave at least MIN_TAIL_SAMPLES beyond the
    ``q``-th percentile — below that the value is reported but labelled."""
    return n_samples * (100.0 - q) / 100.0 >= MIN_TAIL_SAMPLES


def median_of_repeats(repeats: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per metric, the median of its value over the repeats that have it."""
    names = {name for rep in repeats for name in rep}
    return {
        name: median([rep[name] for rep in repeats if name in rep])
        for name in sorted(names)
    }


def pooled(repeats: Sequence[Sequence[float]]) -> List[float]:
    """Per-round samples of every repeat in one list (percentiles of round
    time are taken over the pool, not averaged across repeats)."""
    return [x for rep in repeats for x in rep]


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the steadiness
    measure the builder contract uses; 0 with fewer than two samples."""
    if len(samples) < 2 or median(samples) == 0.0:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return float((q[2] - q[0]) / abs(median(samples)))
