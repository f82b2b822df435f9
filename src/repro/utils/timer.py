"""Wall-clock timers for benchmarks and the simulation round loop."""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict

__all__ = ["Timer", "StageTimer"]


class Timer:
    """A context-manager stopwatch.

    >>> with Timer() as t:
    ...     do_work()
    >>> t.elapsed  # seconds
    """

    def __init__(self) -> None:
        self.start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.start


class StageTimer:
    """Accumulates elapsed time per named stage across many iterations.

    E.g. client training vs aggregation vs evaluation in a round loop.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._starts: Dict[str, float] = {}

    def start(self, stage: str) -> None:
        self._starts[stage] = time.perf_counter()

    def stop(self, stage: str) -> float:
        if stage not in self._starts:
            raise KeyError(f"stage {stage!r} was never started")
        dt = time.perf_counter() - self._starts.pop(stage)
        self.totals[stage] += dt
        self.counts[stage] += 1
        return dt

    def stage(self, name: str):
        """Context manager for one timed stage."""
        timer = self

        class _Stage:
            def __enter__(self_inner):
                timer.start(name)
                return self_inner

            def __exit__(self_inner, *exc):
                timer.stop(name)

        return _Stage()

    def mean(self, stage: str) -> float:
        """Mean duration of one occurrence of ``stage``."""
        n = self.counts.get(stage, 0)
        return self.totals[stage] / n if n else 0.0

    def summary(self) -> Dict[str, float]:
        return dict(self.totals)
