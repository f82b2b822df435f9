"""Span exporters for the ``repro.obs`` tracer.

A span is a plain dict (see :mod:`repro.obs.recorder` for the schema); an
exporter is anything with ``export(record: dict)``,
``write_lines(lines)`` (a batch of pre-encoded JSON lines — the recorder
encodes completed spans in bursts to keep per-round overhead down, so
spans land on the exporter at batch boundaries and on recorder close,
not per call) and ``close()``.  Two built-ins:

* :class:`JsonlExporter` — one JSON object per line, append-ordered by
  span *completion* time (children may precede their parent; the
  ``parent`` ids carry the tree).  Thread-safe: a library caller may drive
  engines from its own threads and complete spans concurrently.
* :class:`ListExporter` — in-memory capture for tests and the profiler.
"""

from __future__ import annotations

import json
import math
import os
import threading
from typing import Any, Dict, List, Optional

__all__ = ["JsonlExporter", "ListExporter"]


def encode_items(record: Dict[str, Any]) -> Optional[str]:
    """``"k":v`` JSON pairs for a flat dict of primitives, or ``None``.

    ``json.dumps`` costs ~5µs per small dict — paid several times per
    round, that alone eats a big slice of the tracing-overhead budget —
    so flat dicts of primitives take this hand-rolled path (~3x faster,
    identical output for the span schema: keys are fixed identifiers,
    never escaped).  Returns ``None`` when a value needs the real encoder
    (nested containers, strings with escapes, non-finite floats).
    """
    parts = []
    for key, value in record.items():
        t = type(value)
        if t is str:
            if '"' in value or "\\" in value:
                return None  # needs real escaping
            parts.append(f'"{key}":"{value}"')
        elif t is int:
            parts.append(f'"{key}":{value}')
        elif t is float:
            if not math.isfinite(value):
                return None  # json.dumps spells these NaN/Infinity
            parts.append(f'"{key}":{value!r}')
        elif value is None:
            parts.append(f'"{key}":null')
        elif value is True:
            parts.append(f'"{key}":true')
        elif value is False:
            parts.append(f'"{key}":false')
        else:
            return None  # nested value: not a flat span
    return ",".join(parts)


def _encode_line(record: Dict[str, Any]) -> str:
    """One JSON line for a span dict (fast path via :func:`encode_items`)."""
    inner = encode_items(record)
    if inner is None:
        return json.dumps(record, separators=(",", ":"))
    return "{" + inner + "}"


class ListExporter:
    """Collect span records in memory (tests, ad-hoc inspection)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()

    def export(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self.records.append(record)

    def export_line(self, line: str) -> None:
        """Accept a pre-encoded span line."""
        self.export(json.loads(line))

    def write_lines(self, lines: List[str]) -> None:
        for line in lines:
            self.export_line(line)

    def close(self) -> None:
        pass


class JsonlExporter:
    """Write span records as JSON Lines to ``path`` (parents auto-created).

    The recorder batches spans and lands them through :meth:`write_lines`
    (one write call per batch); :meth:`export` / :meth:`export_line` write
    single records for direct use.

    Crash-safe: lines stream into a ``*.tmp`` sibling and :meth:`close`
    publishes it with fsync + ``os.replace`` (the same primitive as
    :func:`repro.io.persistence.atomic_write_bytes`).  A process killed
    mid-write leaves only the ``.tmp`` — the trace path itself is either
    absent or a complete, fully-flushed trace, never torn.
    """

    def __init__(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.path = path
        self._tmp = path + ".tmp"
        self._fh: Optional[Any] = open(self._tmp, "w")
        self._lock = threading.Lock()

    def export(self, record: Dict[str, Any]) -> None:
        self.export_line(_encode_line(record))

    def export_line(self, line: str) -> None:
        """Write one pre-encoded span line."""
        self.write_lines([line])

    def write_lines(self, lines: List[str]) -> None:
        """Write a batch of pre-encoded span lines (the recorder's path)."""
        if not lines:
            return
        with self._lock:
            if self._fh is None:  # pragma: no cover - write after close
                raise ValueError(f"exporter for {self.path} is closed")
            self._fh.write("\n".join(lines) + "\n")

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
                self._fh = None
                os.replace(self._tmp, self.path)
