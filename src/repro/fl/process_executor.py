"""Process-pool execution with shared-memory weight broadcast.

Training a client round is dominated by pure-Python tape/optimizer work that
holds the GIL, so :class:`~repro.fl.executor.ThreadedExecutor` stops scaling
almost immediately.  :class:`ProcessExecutor` sidesteps the GIL entirely: it
trains clients in a persistent ``multiprocessing`` worker pool, and instead
of pickling the full global model into every client task it broadcasts the
weights **once per round** through a ``multiprocessing.shared_memory`` flat
buffer:

* the server side does **one** ``np.copyto`` per round into the shared
  segment (:meth:`ProcessExecutor.broadcast`): the engine's
  :class:`~repro.fl.params.ParamPlane` and the segment share the same
  :class:`~repro.fl.params.WeightLayout`, so the whole model moves as a
  single flat byte copy;
* every worker holds *read-only* NumPy views into the same segment, so
  reading the global weights is zero-copy — ``set_weights`` copies them into
  the worker's model exactly as the in-process backends do.

Workers are initialized once per pool from a picklable
:class:`~repro.fl.executor.WorkerSpec` (dataset, strategy, config, model
registry name) and rebuild their model/optimizer/clients locally with the
same seeded RNG streams as the engine, so a fixed seed produces
byte-identical round records across serial, threaded and process backends
(asserted by tests).

Synchronization contract: the engine calls ``broadcast(weights)`` strictly
before ``run(tasks)`` and ``run`` is synchronous, so no worker ever reads
the segment while the parent writes it.
"""

from __future__ import annotations

import pickle
from time import monotonic
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.executor import (
    ClientTaskSpec,
    TaskResult,
    TaskRuntime,
    WorkerContext,
    WorkerSpec,
    build_worker_half,
    execute_task,
)
from repro.fl.faults import TaskFailure
# WeightLayout's home is repro.fl.params since the flat-parameter refactor;
# re-exported here for backward compatibility.
from repro.fl.params import ParamPlane, WeightLayout

__all__ = ["WeightLayout", "ProcessExecutor"]


# Per-worker-process globals, populated by _init_worker.
_WORKER: Optional[WorkerContext] = None
_RUNTIME: Optional[TaskRuntime] = None
_SHM: Optional[shared_memory.SharedMemory] = None
#: (segment name, unpickled payload) — one unpickle per worker per round.
_PAYLOAD_CACHE: Tuple[Optional[str], Dict[str, Any]] = (None, {})


#: reference to a round's broadcast payload segment: (shm name, nbytes)
PayloadRef = Optional[Tuple[str, int]]


def _resolve_payload(ref: PayloadRef) -> Dict[str, Any]:
    """Fetch the round's server broadcast payload, caching per segment."""
    global _PAYLOAD_CACHE
    if ref is None:
        return {}
    name, nbytes = ref
    if _PAYLOAD_CACHE[0] != name:
        shm = shared_memory.SharedMemory(name=name)
        try:
            payload = pickle.loads(bytes(shm.buf[:nbytes]))
        finally:
            shm.close()
        _PAYLOAD_CACHE = (name, payload)
    return _PAYLOAD_CACHE[1]


def _init_worker(spec: WorkerSpec, shm_name: str) -> None:
    """Pool initializer: attach the weight segment, rebuild model/clients."""
    global _WORKER, _RUNTIME, _SHM
    # Workers share the parent's resource tracker (multiprocessing hands the
    # tracker fd to fork and spawn children alike), so the attach below is a
    # no-op re-registration; only the creating process ever unlinks.
    _SHM = shared_memory.SharedMemory(name=shm_name)
    _WORKER, _RUNTIME = build_worker_half(spec, _SHM.buf, in_pool_worker=True)


def _run_task(job: Tuple[ClientTaskSpec, PayloadRef]) -> TaskResult:
    """Pool task entry point; runs in the worker process."""
    assert _WORKER is not None and _RUNTIME is not None, "worker not initialized"
    task, payload_ref = job
    _RUNTIME.server_broadcast = _resolve_payload(payload_ref)
    result = execute_task(task, _WORKER, _RUNTIME)
    recorder = _RUNTIME.recorder
    if recorder.enabled:
        # Drain this worker's observability shard onto the result so the
        # engine can merge it at round end (plain dicts, cheap to pickle).
        result.obs = recorder.drain()
    return result


class ProcessExecutor:
    """Train client tasks in a ``multiprocessing`` pool.

    Parameters
    ----------
    spec:
        Picklable worker build recipe; its ``layout`` sizes the shared
        segment.
    initial_weights:
        The engine's global weights (plane or tree in ``spec.layout``);
        seeds the segment's first broadcast.
    n_workers:
        Pool size.
    mp_start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default prefers
        ``fork`` where available (no re-import cost), else ``spawn``.
    death_grace_s:
        How long :meth:`run` waits, after observing a pool worker die and
        with no further task completing, before writing the missing results
        off as ``worker_death`` task failures.  ``multiprocessing.Pool``
        silently respawns dead workers but never completes the task the
        victim was holding, so without this ``run`` would hang forever.
    """

    name = "process"

    def __init__(
        self,
        spec: WorkerSpec,
        initial_weights: Sequence[np.ndarray],
        n_workers: int = 2,
        mp_start_method: Optional[str] = None,
        death_grace_s: float = 5.0,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        self._n_workers = n_workers
        layout = self._layout = spec.layout
        self._shm = shared_memory.SharedMemory(create=True, size=layout.total_bytes)
        self._views: Optional[List[np.ndarray]] = layout.views(self._shm.buf, writeable=True)
        #: whole-segment byte view — one memcpy broadcasts the entire model
        #: when the engine hands us its ParamPlane with the same layout.
        self._bytes: Optional[np.ndarray] = np.ndarray(
            (layout.total_bytes,), dtype=np.uint8, buffer=self._shm.buf
        )
        self._payload_shm: Optional[shared_memory.SharedMemory] = None
        self._payload_ref: PayloadRef = None
        self.broadcast(initial_weights)
        if mp_start_method is None:
            mp_start_method = "fork" if "fork" in get_all_start_methods() else "spawn"
        ctx = get_context(mp_start_method)
        self._pool = ctx.Pool(
            n_workers, initializer=_init_worker, initargs=(spec, self._shm.name)
        )
        self._death_grace_s = death_grace_s
        self._known_pids = self._live_pids()
        self._closed = False

    @property
    def n_workers(self) -> int:
        return self._n_workers

    def borrow_worker(self) -> Optional[WorkerContext]:
        """Worker contexts live in other processes; there is nothing to lend."""
        return None

    def broadcast(self, weights,
                  payload: Optional[Dict[str, Any]] = None) -> None:
        """Copy the new global weights into the shared segment and publish
        the server's broadcast payload, pickled **once** per round into its
        own segment — never per client task.

        When the engine hands its :class:`~repro.fl.params.ParamPlane`
        (same layout as the segment), the weight copy is a single
        ``np.copyto`` over the raw bytes; a plain weight tree falls back to
        one copy per parameter array.
        """
        assert self._views is not None, "executor is closed"
        if isinstance(weights, ParamPlane) and weights.layout == self._layout:
            np.copyto(self._bytes, weights.bytes_view())
        else:
            tree = weights.tree if isinstance(weights, ParamPlane) else weights
            if len(tree) != len(self._views):
                raise ValueError(
                    f"weight tree has {len(tree)} arrays, layout expects {len(self._views)}"
                )
            for view, w in zip(self._views, tree):
                np.copyto(view, w)
        # The previous round's payload segment is quiescent by now (run()
        # is synchronous), so it can be retired before publishing the next.
        self._drop_payload_segment()
        if payload:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            self._payload_shm = shared_memory.SharedMemory(create=True, size=len(blob))
            self._payload_shm.buf[: len(blob)] = blob
            self._payload_ref = (self._payload_shm.name, len(blob))

    def _drop_payload_segment(self) -> None:
        self._payload_ref = None
        if self._payload_shm is not None:
            self._payload_shm.close()
            try:
                self._payload_shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._payload_shm = None

    def _live_pids(self) -> set:
        """Pids of currently-alive pool workers.

        Reads the pool's worker roster (``Pool`` keeps it in ``_pool``);
        the roster mutates under us when the pool's maintenance thread
        respawns a dead worker, so snapshot it before filtering.
        """
        return {p.pid for p in list(self._pool._pool) if p.is_alive()}

    def run(self, tasks: Sequence[ClientTaskSpec]) -> List[TaskResult]:
        """Run ``tasks`` on the pool, surviving worker deaths.

        Dispatches one ``apply_async`` per task (instead of ``Pool.map``,
        which blocks forever if a worker dies holding a task) and polls for
        completions.  When the worker roster changes mid-round, the task a
        dead worker was executing can never complete; once no further task
        has completed for ``death_grace_s`` seconds, every still-pending
        task is synthesized as a ``worker_death``
        :class:`~repro.fl.faults.TaskFailure` so the engine's retry/quorum
        policy decides what happens next.  The pool itself respawns
        replacement workers automatically (and each replacement re-runs the
        initializer), so later rounds run at full width again.
        """
        jobs = [
            self._pool.apply_async(_run_task, ((t, self._payload_ref),))
            for t in tasks
        ]
        results: List[Optional[TaskResult]] = [None] * len(jobs)
        pending = list(range(len(jobs)))
        last_progress = monotonic()
        death_seen = False
        while pending:
            still: List[int] = []
            for i in pending:
                if jobs[i].ready():
                    results[i] = jobs[i].get()
                    last_progress = monotonic()
                else:
                    still.append(i)
            pending = still
            if not pending:
                break
            current = self._live_pids()
            if current != self._known_pids:
                death_seen = True
                self._known_pids = current
            if death_seen and monotonic() - last_progress > self._death_grace_s:
                for i in pending:
                    task = tasks[i]
                    # Drop the orphaned job from the pool's result cache:
                    # a job that never completes would otherwise pin the
                    # pool's shutdown (join waits for an empty cache).  If
                    # the result does arrive later the handler ignores the
                    # unknown job id.
                    self._pool._cache.pop(jobs[i]._job, None)
                    results[i] = TaskResult(
                        update=None,
                        state=None,
                        failure=TaskFailure(
                            kind="worker_death",
                            client_id=task.client_id,
                            round_idx=task.round_idx,
                            attempt=task.attempt,
                            detail="pool worker died before reporting",
                        ),
                    )
                break
            jobs[pending[0]].wait(0.05)
        return results  # type: ignore[return-value]  # every slot is filled

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.close()
        self._pool.join()
        self._drop_payload_segment()
        # Views hold exported buffers; release them before closing the segment.
        self._views = None
        self._bytes = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass
