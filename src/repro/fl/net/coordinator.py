"""The coordinator: a socket server behind the executor API.

:class:`CoordinatorServer` owns the listening socket and the per-worker
connections — registration handshakes (protocol version via the frame
header, ``cell_key`` via the HELLO payload), one ``BROADCAST`` of the
contiguous flat parameter buffer per round, ``TASK`` dispatch, ``RESULT``
collection, liveness, resends.  :class:`NetworkExecutor` wraps it in the
standard executor contract (``broadcast`` / ``run`` / ``evaluate`` /
``borrow_worker`` / ``close``) so the engine cannot tell it from the serial
backend — which is the point: a loopback network run at a fixed seed must
produce a History byte-identical to the serial executor.

How that identity survives an unreliable wire: transport faults are
absorbed *below* the engine.  Dropped ``TASK``/``BROADCAST`` frames are
re-sent on a timer (each resend re-draws its injected-fault coin);
re-sent tasks are answered from the worker's result cache, never
re-trained; dropped ``RESULT`` frames are recovered the same way;
duplicated frames die in the seq-deduping decoder; a worker that missed
its broadcast NACKs with ``NEED_BCAST``.  Only *connection-level* events
— EOF, heartbeat-silence past the liveness window, a partition, framing
destroyed by truncation — surface to the engine, as retryable
``connection_lost`` :class:`~repro.fl.faults.TaskFailure`\\ s, which is
exactly the interface PR 9's retry/timeout/quorum/resume policy already
speaks.

Everything runs single-threaded in the engine's thread: the coordinator
pumps sockets inside ``run()``/``wait_for_workers()`` calls, and between
rounds (while the engine aggregates/evaluates) worker heartbeats simply
queue in kernel buffers — liveness clocks are reset at the next ``run()``
entry, so a quiet aggregate phase is never mistaken for a dead fleet.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import time
from collections import deque
from dataclasses import dataclass
from select import select
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl import net
from repro.fl.compression import QuantizationCompressor, TopKCompressor
from repro.fl.evaluation import (
    evaluate_model,
    fold_scores,
    score_batches,
    shard_batches,
)
from repro.fl.executor import ClientTaskSpec, TaskResult, registry_model_fn
from repro.fl.faults import TaskFailure
from repro.fl.net import WIRE_CODECS, frames
from repro.fl.net.frames import ProtocolError, pack_blob_payload
from repro.fl.net.netfaults import NetFaultInjector
from repro.fl.net.transport import ChannelClosed, FramedChannel
from repro.fl.net.worker import run_spawned
from repro.fl.params import ParamPlane, WeightLayout
from repro.fl.types import ClientUpdate
from repro.models.fedmodel import FedModel
from repro.utils.logging import get_logger

__all__ = ["CoordinatorServer", "NetworkExecutor"]

_log = get_logger("fl.net.coordinator")

#: hosts the executor treats as loopback (it spawns its own workers there).
_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1", "")

#: a task unanswered this long is re-sent (re-drawing any injected fault).
_RESEND_TIMEOUT_S = 0.5

#: tasks a worker holds at once: the one it runs and the one it starts
#: next, so it never waits a round trip between two tasks.
_DEPTH = 2


class _Conn:
    """One registered worker connection."""

    __slots__ = ("chan", "worker_id", "last_recv", "queue", "bcast_sends")

    def __init__(self, chan: FramedChannel, worker_id: int) -> None:
        self.chan = chan
        self.worker_id = worker_id
        self.last_recv = time.monotonic()
        #: flights dispatched to this worker, in the order it runs them:
        #: the head is running, the rest have not started.
        self.queue: Deque["_Flight"] = deque()
        #: per-connection broadcast send counter (fault-coin attempt key).
        self.bcast_sends = 0


@dataclass(eq=False)
class _Flight:
    """One dispatched task's in-flight bookkeeping."""

    idx: int
    conn: _Conn
    task_id: int
    #: when the task reached the head of its worker's queue: the wall-cap
    #: clock (``last_sent`` is reset then too, so the resend timer of a
    #: queued task does not run while the task ahead of it does).
    first_sent: float
    last_sent: float
    sends: int = 0
    receipts: int = 0


class CoordinatorServer:
    """Accepts client-worker connections and runs rounds over them.

    Parameters
    ----------
    bind:
        ``host:port`` to listen on; port 0 picks an ephemeral port (read
        it back from :attr:`address`).
    welcome:
        What every ``WELCOME`` carries beside ``cell_key`` and
        ``heartbeat_s``: the picklable :class:`~repro.fl.executor.WorkerSpec`
        build recipe under ``"spec"`` plus the upload ``"codec"`` /
        ``"codec_kwargs"``.  ``None`` is allowed (handshake-only servers in
        tests); workers then receive no build recipe.
    cell_key:
        The experiment cell this coordinator serves.  A HELLO asserting a
        *different* cell is refused with a BYE — joining worker processes
        cannot silently compute for the wrong experiment.
    heartbeat_s:
        Worker beacon cadence; a connection silent for
        ``max(5 * heartbeat_s, 3.0)`` seconds while holding a task is
        declared dead.
    connect_timeout_s:
        Registration patience (``wait_for_workers``), per-task wall-clock
        ceiling, and how long a round tolerates an empty fleet before
        failing its remaining tasks.
    injector:
        Optional deterministic :class:`~repro.fl.net.netfaults
        .NetFaultInjector` applied at this server's send/recv choke
        points.  Coordinator-side only — one injector, one process, one
        seeded coin tree.
    """

    def __init__(self, bind: str = net.DEFAULT_BIND, *,
                 welcome: Optional[Dict[str, Any]] = None,
                 cell_key: Optional[str] = None,
                 heartbeat_s: float = net.DEFAULT_HEARTBEAT_S,
                 connect_timeout_s: float = net.DEFAULT_CONNECT_TIMEOUT_S,
                 injector: Optional[NetFaultInjector] = None) -> None:
        host, _, port = bind.rpartition(":")
        if not port.lstrip("-").isdigit():
            raise ValueError(f"net bind wants HOST:PORT, got {bind!r}")
        self._listener = socket.create_server(
            (host or "127.0.0.1", int(port)), backlog=16, reuse_port=False
        )
        self.heartbeat_s = float(heartbeat_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self._liveness_timeout_s = max(5.0 * self.heartbeat_s, 3.0)
        self._injector = injector
        self._cell_key = cell_key
        #: pickled per registration, never held: the recipe carries the
        #: dataset, and a blob kept here would sit in the coordinator's
        #: resident set for the server's lifetime.
        self._welcome = {"spec": None, **(welcome or {}),
                         "cell_key": cell_key, "heartbeat_s": self.heartbeat_s}
        self._conns: Dict[int, _Conn] = {}
        #: accepted sockets that have not completed the HELLO handshake yet.
        self._pending: List[Tuple[FramedChannel, float]] = []
        self._next_worker_id = 0
        self._next_task_id = 0
        self._bcast_payload: Optional[bytes] = None
        self._bcast_ver = 0
        self._closed = False
        #: wire/connection counters; bytes of closed channels accumulate in
        #: ``retired_*`` so stats survive reconnect churn.
        self._stats = {
            "connections": 0, "reconnects": 0, "heartbeat_misses": 0,
            "connection_losses": 0, "retired_bytes_sent": 0, "retired_bytes_recv": 0,
        }

    # ------------------------------------------------------------------
    # addressing / registration
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        addr = self._listener.getsockname()
        return addr[0], addr[1]

    @property
    def n_connected(self) -> int:
        return len(self._conns)

    def wait_for_workers(self, n: int,
                         tend_fleet: Optional[Callable[[], Any]] = None) -> None:
        """Pump until ``n`` workers registered; ``TimeoutError`` otherwise.
        ``tend_fleet`` runs once per pump iteration, as in :meth:`run_tasks`:
        a worker whose connection closed while its process was still exiting
        is replaced once it is gone, instead of being waited for."""
        deadline = time.monotonic() + self.connect_timeout_s
        # A worker that died since the last pump left its EOF queued; read
        # it first, or the corpse's connection counts as registered.
        self._pump(0)
        while len(self._conns) < n:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {len(self._conns)}/{n} network workers registered "
                    f"within {self.connect_timeout_s:.1f}s"
                )
            if tend_fleet is not None:
                tend_fleet()
            self._pump(0.05)

    # ------------------------------------------------------------------
    # broadcast
    # ------------------------------------------------------------------
    def set_broadcast(self, payload: Dict[str, Any], blob: bytes) -> int:
        """Install round broadcast ``ver+1`` (server payload + flat weight
        bytes) and push it to every registered worker."""
        self._bcast_ver += 1
        meta = pickle.dumps(
            {"ver": self._bcast_ver, "payload": payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._bcast_payload = pack_blob_payload(meta, blob)
        for conn in list(self._conns.values()):
            self._send_bcast(conn)
        return self._bcast_ver

    def _send_bcast(self, conn: _Conn) -> None:
        if self._bcast_payload is None:
            return
        conn.bcast_sends += 1
        if self._blocked(conn.worker_id):
            return  # partition: pretend it went out
        try:
            conn.chan.send_frame(
                frames.BROADCAST, self._bcast_payload,
                fault_key=("bcast", conn.worker_id, self._bcast_ver, conn.bcast_sends),
            )
        except ChannelClosed:
            self._drop_conn(conn.worker_id, "send failed")

    def _blocked(self, worker_id: int) -> bool:
        return (
            self._injector is not None
            and self._injector.blocked(worker_id, self._bcast_ver)
        )

    # ------------------------------------------------------------------
    # socket pump
    # ------------------------------------------------------------------
    def _pump(self, timeout: float) -> List[Tuple[str, int, Any]]:
        """One IO iteration: accept, handshake, read.  Returns round-level
        events: ``("result", worker_id, payload)`` and
        ``("need_bcast", worker_id, payload)``.  Liveness is the caller's
        job (it knows which connections owe it work)."""
        events: List[Tuple[str, int, Any]] = []
        now = time.monotonic()
        socks = [self._listener]
        socks += [chan for chan, _ in self._pending if chan.is_open]
        conns = list(self._conns.values())
        socks += [c.chan for c in conns]
        try:
            ready, _, _ = select(socks, [], [], timeout)
        except (OSError, ValueError):
            ready = []
        ready_set = set(ready)
        if self._listener in ready_set:
            self._accept()
        for chan, _accepted in list(self._pending):
            if chan in ready_set:
                self._pump_pending(chan)
        self._pending = [
            (chan, t) for chan, t in self._pending
            if chan.is_open and now - t < self.connect_timeout_s
        ]
        for conn in conns:
            if conn.chan not in ready_set or conn.worker_id not in self._conns:
                continue
            try:
                got = conn.chan.recv_frames(timeout=0)
            except (ChannelClosed, ProtocolError) as exc:
                self._drop_conn(conn.worker_id, str(exc))
                continue
            if got and self._blocked(conn.worker_id):
                continue  # partition inbound: frames vanish, clock stalls
            for frame in got:
                conn.last_recv = now
                if frame.ftype == frames.RESULT:
                    events.append(("result", conn.worker_id, frame.payload))
                elif frame.ftype == frames.NEED_BCAST:
                    events.append(("need_bcast", conn.worker_id, frame.payload))
                # HEARTBEAT (and anything stray) only refreshes last_recv
        return events

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        self._pending.append((FramedChannel(sock), time.monotonic()))

    def _pump_pending(self, chan: FramedChannel) -> None:
        try:
            got = chan.recv_frames(timeout=0)
        except (ChannelClosed, ProtocolError):
            chan.close()
            return
        for frame in got:
            if frame.ftype == frames.HELLO:
                self._register(chan, frame.payload)
                return

    def _register(self, chan: FramedChannel, payload: bytes) -> None:
        self._pending = [(c, t) for c, t in self._pending if c is not chan]
        try:
            hello = pickle.loads(payload)
        except Exception:
            chan.close()
            return
        their_cell = hello.get("cell_key")
        if (
            their_cell is not None and self._cell_key is not None
            and their_cell != self._cell_key
        ):
            # Refuse loudly: a worker aimed at a different experiment must
            # not silently compute for this one.
            try:
                chan.send_frame(frames.BYE, pickle.dumps({
                    "reason": f"cell_key mismatch: coordinator serves "
                              f"{self._cell_key}, worker expects {their_cell}",
                }, protocol=pickle.HIGHEST_PROTOCOL))
            except ChannelClosed:
                pass
            chan.close()
            return
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        conn = _Conn(chan, worker_id)
        self._stats["connections"] += 1
        if hello.get("reconnect"):
            self._stats["reconnects"] += 1
        try:
            chan.send_frame(frames.WELCOME, pickle.dumps(
                self._welcome, protocol=pickle.HIGHEST_PROTOCOL
            ))
        except ChannelClosed:
            chan.close()
            return
        self._conns[worker_id] = conn
        # Late joiners (and reconnectors) need the current round's model.
        self._send_bcast(conn)

    def _drop_conn(self, worker_id: int, reason: str) -> None:
        """Close and retire one connection (its flights are settled by the
        round loop, which finds them orphaned)."""
        conn = self._conns.pop(worker_id, None)
        if conn is None:
            return
        _log.debug("dropping worker %d: %s", worker_id, reason)
        self._stats["retired_bytes_sent"] += conn.chan.bytes_sent
        self._stats["retired_bytes_recv"] += conn.chan.bytes_recv
        conn.chan.close()

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def run_tasks(
        self,
        tasks: Sequence[Any],
        decode_result: Callable[[Any], Any],
        tend_fleet: Callable[[], Any],
        lost: Optional[Callable[[Any, str], Any]] = None,
    ) -> List[Any]:
        """Dispatch ``tasks`` over the fleet; results in task order.

        A task is a :class:`~repro.fl.executor.ClientTaskSpec` or an
        :class:`~repro.fl.evaluation.EvalShard`; ``decode_result`` turns a
        worker's wire answer into its slot.  Each worker holds up to
        ``_DEPTH`` tasks and runs them in order.  Every slot is filled: by
        a decoded answer, or by ``lost(task, detail)`` (default: a
        retryable ``connection_lost`` failure, which the engine's retry/
        quorum policy takes from there) when the task was running on a
        connection that died (EOF / liveness / partition / per-task
        wall-clock ceiling).  The tasks queued behind it never started:
        they go back to be dispatched again, unchanged.  ``tend_fleet``
        runs once per pump iteration: whoever started the workers replaces
        the ones that exited, so a round that lost its whole fleet is
        served again well before the empty-fleet grace ends.
        """
        lost = lost or self._lost
        slots: List[Any] = [None] * len(tasks)
        settled = [False] * len(tasks)
        remaining = len(tasks)
        unassigned = deque(range(len(tasks)))
        flights: Dict[int, _Flight] = {}
        now = time.monotonic()
        # Heartbeats queued in kernel buffers while the engine aggregated/
        # evaluated are stale; what matters is liveness from here on.
        for conn in self._conns.values():
            conn.last_recv = now
        last_live = now

        def settle(flight: _Flight, result: Any) -> None:
            nonlocal remaining
            if not settled[flight.idx]:
                slots[flight.idx] = result
                settled[flight.idx] = True
                remaining -= 1
            flights.pop(flight.task_id, None)
            self._dequeue(flight)

        def fail(flight: _Flight, detail: str) -> None:
            self._stats["connection_losses"] += 1
            settle(flight, lost(tasks[flight.idx], detail))

        while remaining:
            tend_fleet()
            # Fill every worker to depth d before any gets d+1, in worker-id
            # order (results are placement-invariant; the order is just
            # deterministic greed).
            for depth in range(1, _DEPTH + 1):
                for worker_id in sorted(self._conns):
                    conn = self._conns[worker_id]
                    if unassigned and len(conn.queue) < depth:
                        now = time.monotonic()
                        flight = _Flight(
                            idx=unassigned.popleft(), conn=conn,
                            task_id=self._next_task_id,
                            first_sent=now, last_sent=now,
                        )
                        self._next_task_id += 1
                        flights[flight.task_id] = flight
                        conn.queue.append(flight)
                        self._send_task(conn, flight, tasks[flight.idx])
            for kind, worker_id, payload in self._pump(0.02):
                if kind == "result":
                    try:
                        job = pickle.loads(payload)
                    except Exception as exc:
                        self._drop_conn(worker_id, f"bad result payload: {exc}")
                        continue
                    flight = flights.get(int(job.get("task_id", -1)))
                    if flight is None:
                        continue  # duplicate/stale result: already settled
                    flight.receipts += 1
                    # The worker is done with it even if the frame is
                    # dropped below: the next task in its queue is running.
                    self._dequeue(flight)
                    if self._injector is not None and self._injector.drop_recv(
                        "result", flight.task_id, flight.receipts
                    ):
                        continue  # recv-side drop: the resend timer recovers
                    settle(flight, decode_result(job["wire"]))
                elif kind == "need_bcast":
                    conn = self._conns.get(worker_id)
                    if conn is None:
                        continue
                    self._send_bcast(conn)
                    for flight in list(conn.queue):
                        self._send_task(conn, flight, tasks[flight.idx])
            now = time.monotonic()
            for conn in {flight.conn for flight in flights.values()}:
                alive = self._conns.get(conn.worker_id) is conn
                if alive and now - conn.last_recv > self._liveness_timeout_s:
                    self._stats["heartbeat_misses"] += 1
                    self._drop_conn(conn.worker_id, "heartbeat silence")
                    alive = False
                if alive:
                    continue
                # Serving connection died under its tasks.  The worker runs
                # its queue in order, so only the head ever started; a task
                # it finished whose result was lost re-runs to the same bits.
                head = conn.queue[0] if conn.queue else None
                orphans = [f for f in flights.values() if f.conn is conn]
                for flight in orphans:
                    if flight is head:
                        fail(flight, "connection lost")
                    else:
                        flights.pop(flight.task_id)
                        unassigned.appendleft(flight.idx)
                conn.queue.clear()
            for flight in list(flights.values()):
                queue = flight.conn.queue
                if flight in queue and queue[0] is not flight:
                    continue  # queued: its clocks start at the head
                if now - flight.first_sent > self.connect_timeout_s:
                    fail(flight, f"no result within {self.connect_timeout_s:.1f}s")
                elif now - flight.last_sent > _RESEND_TIMEOUT_S:
                    self._send_task(flight.conn, flight, tasks[flight.idx])
            if self._conns or self._pending:
                last_live = now
            elif remaining and now - last_live > self.connect_timeout_s:
                # Whole fleet gone and nobody redialed: fail what's left.
                for flight in list(flights.values()):
                    fail(flight, "no live workers")
                while unassigned:
                    idx = unassigned.popleft()
                    if not settled[idx]:
                        slots[idx] = lost(tasks[idx], "no live workers")
                        settled[idx] = True
                        remaining -= 1
        return slots

    @staticmethod
    def _dequeue(flight: _Flight) -> None:
        """Take ``flight`` off its worker's queue; the task behind it, now
        running, starts its resend and wall-cap clocks."""
        queue = flight.conn.queue
        if flight not in queue:
            return
        was_head = queue[0] is flight
        queue.remove(flight)
        if was_head and queue:
            queue[0].first_sent = queue[0].last_sent = time.monotonic()

    def _send_task(self, conn: _Conn, flight: _Flight, task: Any) -> None:
        flight.sends += 1
        flight.last_sent = time.monotonic()
        if self._blocked(conn.worker_id):
            return  # partition: the frame evaporates
        payload = pickle.dumps(
            {"task_id": flight.task_id, "ver": self._bcast_ver, "task": task},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        try:
            conn.chan.send_frame(
                frames.TASK, payload,
                fault_key=("task", conn.worker_id, flight.task_id, flight.sends),
            )
        except ChannelClosed:
            self._drop_conn(conn.worker_id, "send failed")

    @staticmethod
    def _lost(task: ClientTaskSpec, detail: str) -> TaskResult:
        return TaskResult(
            update=None,
            state=None,
            failure=TaskFailure(
                kind="connection_lost",
                client_id=task.client_id,
                round_idx=task.round_idx,
                attempt=task.attempt,
                retryable=True,
                detail=detail,
            ),
        )

    # ------------------------------------------------------------------
    # stats / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Wire counters: live channel bytes plus retired connections."""
        out = dict(self._stats)
        sent = out.pop("retired_bytes_sent")
        recv = out.pop("retired_bytes_recv")
        for conn in self._conns.values():
            sent += conn.chan.bytes_sent
            recv += conn.chan.bytes_recv
        out["bytes_sent"] = sent
        out["bytes_recv"] = recv
        return out

    def disown(self) -> None:
        """In a forked child: close this process's copies of the listener
        and of every connection, saying nothing on them — the parent still
        serves them, and a copy held open here would keep a peer from ever
        reading EOF (and the port from being re-bound) after the parent
        closes its own."""
        for chan in [c.chan for c in self._conns.values()] + [c for c, _ in self._pending]:
            chan.forget()
        self._listener.close()

    def shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker_id in list(self._conns):
            conn = self._conns[worker_id]
            try:
                conn.chan.send_frame(frames.BYE, pickle.dumps(
                    {"reason": ""}, protocol=pickle.HIGHEST_PROTOCOL
                ))
            except ChannelClosed:
                pass
            self._drop_conn(worker_id, "shutdown")
        for chan, _t in self._pending:
            chan.close()
        self._pending = []
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - double close
            pass


class NetworkExecutor:
    """The out-of-process backend: the engine's client rounds over sockets.

    Construction builds the :class:`CoordinatorServer`, and — when the
    bind host is loopback — starts ``n_workers`` worker processes aimed
    back at it with ``multiprocessing`` (each runs
    :func:`~repro.fl.net.worker.run_spawned`), so ``executor="process"``,
    CI and tests need no external orchestration.  A spawned worker that
    exits is replaced.  On a non-loopback bind the operator starts workers
    by hand (``python -m repro.fl.net.worker``) and this just waits for
    them to register.
    """

    #: the registry overwrites this with the name the backend was asked for
    #: by (``"process"`` / ``"network"``): one class, two registrations.
    name = "network"

    def __init__(
        self,
        engine,
        n_workers: int = 2,
        *,
        bind: str = net.DEFAULT_BIND,
        connect_timeout_s: float = net.DEFAULT_CONNECT_TIMEOUT_S,
        heartbeat_s: float = net.DEFAULT_HEARTBEAT_S,
        injector: Optional[NetFaultInjector] = None,
        codec: Optional[str] = None,
        codec_kwargs: Optional[Dict[str, Any]] = None,
        cell_key: Optional[str] = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if codec is not None and codec not in WIRE_CODECS:
            raise ValueError(f"unknown net codec {codec!r}; available: {list(WIRE_CODECS)}")
        spec = engine.worker_spec()  # also rejects custom model_fn
        self._layout: WeightLayout = spec.layout
        self._model_fn = registry_model_fn(spec.model_name, spec.data.spec, spec.config.seed)
        #: the coordinator's own evaluation model, built on first use: a
        #: single-batch test split, or a shard lost with its connection.
        self._eval_model: Optional[FedModel] = None
        self._n_workers = int(n_workers)
        self._codec = codec
        self._codec_kwargs = dict(codec_kwargs or {})
        self._recorder = engine.obs
        self._metrics_last: Dict[str, float] = {}
        self._bcast_flat: Optional[np.ndarray] = None
        self._procs: List[multiprocessing.Process] = []
        self._closed = False
        self._server = CoordinatorServer(
            bind,
            welcome={"spec": spec, "codec": codec, "codec_kwargs": self._codec_kwargs},
            cell_key=cell_key,
            heartbeat_s=heartbeat_s,
            connect_timeout_s=connect_timeout_s,
            injector=injector,
        )
        self._worker_kwargs = {
            "cell_key": cell_key,
            "connect_timeout_s": float(connect_timeout_s),
            # Worker reconnect backoff reuses the engine's retry pricing
            # curve base — the satellite contract for retry_backoff_base_s.
            "backoff_base_s": min(
                float(getattr(engine, "retry_backoff_base_s", 0.05)), 0.25),
        }
        try:
            if bind.rpartition(":")[0] in _LOOPBACK_HOSTS:
                self._procs = [self._spawn_worker() for _ in range(self._n_workers)]
            self._server.wait_for_workers(self._n_workers)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # loopback worker processes
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> multiprocessing.Process:
        """Start one worker process aimed at this coordinator.

        Forked where the platform can (no interpreter start, no re-import);
        a forked child holds copies of the coordinator's sockets, so it is
        handed the server to disown them.  A spawned child inherits none.
        """
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else "spawn")
        host, port = self._server.address
        # daemon: a fleet whose engine was never closed dies with this
        # process instead of holding up its exit.
        proc = ctx.Process(
            target=run_spawned,
            args=(self._server if fork else None, host, port),
            kwargs=self._worker_kwargs,
            daemon=True,
        )
        proc.start()
        return proc

    def _replace_exited_workers(self) -> bool:
        """Start a replacement for every spawned worker that exited (the
        ``worker_death`` fault, a ``kill -9``, the OOM killer); true when
        there was one.  What the pool backend did implicitly — without it
        a loopback fleet could only shrink."""
        exited = [i for i, proc in enumerate(self._procs) if not proc.is_alive()]
        for i in exited:
            self._procs[i] = self._spawn_worker()
        return bool(exited)

    # ------------------------------------------------------------------
    # executor contract
    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    def borrow_worker(self):
        """Worker contexts live in other processes; nothing to lend."""
        return None

    def evaluate(self, plane: ParamPlane, dataset, batch_size: int) -> Tuple[float, float]:
        """``(accuracy_percent, mean_loss)`` of ``plane`` on ``dataset``.

        A split of more than one batch is scored by the workers, in shards
        of whole batches, on the installed broadcast — the caller ships
        ``plane`` first.  The per-batch scores are folded in batch order,
        so the bits equal one model scoring every batch.  A shard lost
        with its connection is scored here; a single batch is too (a round
        trip would cost more than it saves).
        """
        n = len(dataset)
        if n <= batch_size:
            return evaluate_model(self._local_model(plane), dataset, batch_size)
        shards = shard_batches(n, batch_size, self._n_workers * _DEPTH)
        answers = self._server.run_tasks(
            shards, lambda scores: scores, self._replace_exited_workers,
            lost=lambda shard, detail: None,
        )
        scores = []
        for shard, got in zip(shards, answers):
            if got is None:
                got = score_batches(self._local_model(plane), dataset, batch_size,
                                    shard.start, shard.stop)
            scores += got
        self._flush_wire_metrics()
        return fold_scores(scores, n)

    def _local_model(self, plane: ParamPlane) -> FedModel:
        if self._eval_model is None:
            self._eval_model = self._model_fn()
        self._eval_model.set_weights_flat(plane.flat)
        return self._eval_model

    def broadcast(self, plane: ParamPlane, payload: Optional[Dict[str, Any]] = None) -> None:
        """Ship the server's global weight plane as one contiguous flat byte
        run (plus the pickled server payload) to every registered worker."""
        if plane.layout != self._layout:
            raise ValueError("broadcast plane's weight tree does not match the worker layout")
        blob = plane.bytes_view().tobytes()
        # Kept for codec decode: coded uploads are deltas against this.
        self._bcast_flat = np.frombuffer(blob, dtype=self._layout.dtype)
        self._server.set_broadcast(payload or {}, blob)

    def run(self, tasks: Sequence[ClientTaskSpec]) -> List[TaskResult]:
        if self._replace_exited_workers():
            # It died between rounds, so nothing is in flight on it: start
            # the round at full width again rather than hand a task to a
            # connection nobody reads.
            self._server.wait_for_workers(self._n_workers, self._replace_exited_workers)
        results = self._server.run_tasks(
            tasks, self._decode_result, self._replace_exited_workers
        )
        self._flush_wire_metrics()
        return results

    # ------------------------------------------------------------------
    # wire decode
    # ------------------------------------------------------------------
    def _decode_result(self, wire: Dict[str, Any]) -> TaskResult:
        upd = wire["update"]
        update: Optional[ClientUpdate] = None
        if upd is not None:
            mode = upd["mode"]
            if mode == "flat":
                flat = np.frombuffer(upd["blob"], dtype=upd["dtype"]).copy()
            elif mode == "codec":
                if self._bcast_flat is None:
                    raise ProtocolError("coded result before any broadcast")
                flat = self._bcast_flat + self._decode_codec(upd["enc"])
            else:
                raise ProtocolError(f"unknown update wire mode {mode!r}")
            update = ClientUpdate.from_flat(flat, self._layout.shapes, **upd["meta"])
        return TaskResult(
            update=update,
            state=wire["state"],
            obs=wire["obs"],
            failure=wire["failure"],
            fault_delay_s=wire["fault_delay_s"],
            flops_wasted=wire["flops_wasted"],
        )

    def _decode_codec(self, enc: Dict[str, Any]) -> np.ndarray:
        if self._codec == "topk":
            return TopKCompressor(**self._codec_kwargs).decode_flat(enc)
        # Quantization decode is pure arithmetic on the payload; the seed
        # only drives encode-side stochastic rounding.
        return QuantizationCompressor(**self._codec_kwargs).decode_flat(enc)

    # ------------------------------------------------------------------
    # metrics / stats / lifecycle
    # ------------------------------------------------------------------
    def wire_stats(self) -> Dict[str, int]:
        """Connection/byte counters for benchmarks and tests."""
        return self._server.stats()

    def _flush_wire_metrics(self) -> None:
        if not self._recorder.enabled:
            return
        stats = self._server.stats()
        m = self._recorder.metrics
        for name, key, help_text in (
            ("fl_net_bytes_sent_total", "bytes_sent",
             "bytes the coordinator put on the wire"),
            ("fl_net_bytes_recv_total", "bytes_recv",
             "bytes the coordinator read off the wire"),
            ("fl_net_reconnects_total", "reconnects",
             "worker re-registrations after a lost connection"),
            ("fl_net_heartbeat_misses_total", "heartbeat_misses",
             "connections declared dead for heartbeat silence"),
            ("fl_net_connection_losses_total", "connection_losses",
             "tasks failed as connection_lost"),
        ):
            value = float(stats[key])
            delta = value - self._metrics_last.get(name, 0.0)
            if delta > 0:
                m.counter(name, help_text).inc(delta)
            self._metrics_last[name] = value

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._flush_wire_metrics()
        self._server.shutdown()
        deadline = time.monotonic() + 5.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover
                    proc.kill()
                    proc.join()
        self._procs = []

    def __del__(self) -> None:  # pragma: no cover - GC-time cleanup
        try:
            self.close()
        except Exception:
            pass
