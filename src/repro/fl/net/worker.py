"""The client-worker process.

The executor starts its loopback fleet itself (:func:`run_spawned`, under
``multiprocessing``); ``python -m repro.fl.net.worker --connect host:port``
is the entry point for workers on other hosts.  Either way one worker =
one process = one coordinator connection.  The lifecycle:

1. **register** — dial the coordinator, send ``HELLO`` (with the expected
   ``cell_key``, if the operator passed one), receive ``WELCOME`` carrying
   a picklable :class:`~repro.fl.executor.WorkerSpec` — the build recipe:
   dataset, strategy, config, registry model name — beside the wire-level
   knobs (heartbeat cadence, optional upload codec, the experiment's
   ``cell_key``), and rebuild
   model/optimizer/clients locally with the engine's seeded RNG streams,
   so a fixed seed yields byte-identical results no matter which worker
   (or how many) served the round;
2. **serve** — pump frames: ``BROADCAST`` installs the round's flat global
   weights into a local buffer (one memcpy; the runtime's weight views
   alias it), ``TASK`` runs one :class:`~repro.fl.executor.ClientTaskSpec`
   through the shared :func:`~repro.fl.executor.execute_task` choke point
   and uploads the result — raw flat bytes, or a top-k/quantization-coded
   delta when the experiment asked for a wire codec — or scores one
   :class:`~repro.fl.evaluation.EvalShard` of the test split on the
   installed broadcast and uploads its per-batch scores.  Tasks run in
   the order they arrive; the coordinator keeps the next one queued;
3. **re-register** — on any link failure (EOF, corrupted framing from an
   injected truncation, coordinator restart) reconnect with exponential
   backoff and serve again.  Built state is cached by ``cell_key``, so a
   reconnect is cheap and, crucially, does not re-advance any RNG.

Reliability bookkeeping that makes the transport faults invisible to the
engine: a deduping decoder (fault-duplicated frames die at the codec), a
small result cache keyed by the coordinator-assigned ``task_id`` (a
re-sent task is answered from cache, never re-trained), and ``NEED_BCAST``
NACKs (a task referencing a broadcast this worker never saw — the
broadcast frame was dropped — triggers a resend instead of training on
stale weights).  A daemon heartbeat thread beats every ``heartbeat_s``
seconds so the coordinator's liveness detector can tell "slow" from
"gone".
"""

from __future__ import annotations

import argparse
import pickle
import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.compression import QuantizationCompressor, TopKCompressor
from repro.fl.evaluation import EvalShard, score_batches
from repro.fl.executor import TaskResult, WorkerSpec, build_worker_half, execute_task
from repro.fl.net import DEFAULT_CONNECT_TIMEOUT_S, frames
from repro.fl.net.frames import Frame, ProtocolError, unpack_blob_payload
from repro.fl.net.transport import ChannelClosed, FramedChannel
from repro.utils.rng import RngStream

__all__ = ["WorkerClient", "main", "run_spawned"]

#: results remembered per worker so a re-sent task (its RESULT frame was
#: dropped on the way up) is answered from cache instead of re-trained.
_RESULT_CACHE_SIZE = 64


class _CorruptStream(Exception):
    """A decoded frame's payload failed to deserialize — framing survived
    but content did not (an injected truncation resynchronized the stream
    onto garbage).  Treated exactly like a lost connection."""


class _WorkerState:
    """The rebuilt engine half: model, clients, runtime, weight buffer.

    Built once per ``cell_key`` and reused across reconnects — rebuilding
    would be wasteful but *not* wrong (every build draws from the same
    seeded streams), which is what the cache test pins.
    """

    def __init__(self, welcome: Dict[str, Any], in_pool_worker: bool) -> None:
        spec: WorkerSpec = welcome["spec"]
        #: optional upload codec ("topk" / "quantization"): the worker ships a
        #: coded *delta* against the round's broadcast instead of raw flat bytes.
        self.codec: Optional[str] = welcome["codec"]
        self.codec_kwargs: Dict[str, Any] = welcome["codec_kwargs"]
        #: the round's broadcast lands here with one flat copy and the
        #: runtime's weight views alias it.
        self._buf = bytearray(spec.layout.total_bytes)
        self._buf_u8 = np.frombuffer(self._buf, dtype=np.uint8)
        self.worker, self.runtime = build_worker_half(
            spec, self._buf, in_pool_worker=in_pool_worker
        )
        self.test = spec.data.test
        #: version of the broadcast currently installed (0 = none yet).
        self.bcast_ver = 0
        #: task_id -> encoded RESULT payload, for re-sent tasks.
        self.results: "OrderedDict[int, bytes]" = OrderedDict()

    # -- round data ------------------------------------------------------
    def install_broadcast(self, payload: bytes) -> None:
        meta_blob, blob = unpack_blob_payload(payload)
        try:
            meta = pickle.loads(meta_blob)
        except Exception as exc:
            raise _CorruptStream(f"broadcast meta failed to unpickle: {exc}") from None
        if len(blob) != self._buf_u8.size:
            raise _CorruptStream(
                f"broadcast blob is {len(blob)} bytes, layout needs {self._buf_u8.size}"
            )
        np.copyto(self._buf_u8, np.frombuffer(blob, dtype=np.uint8))
        self.bcast_ver = int(meta["ver"])
        self.runtime.server_broadcast = meta["payload"] or {}

    def score(self, shard: EvalShard):
        """Per-batch ``(loss, n, correct)`` of one test shard on the
        installed broadcast, on the training model (every task reloads
        its weights).  Never through the fault injector or the task
        metrics: an eval shard is not a client task."""
        model = self.worker.model
        model.set_weights_flat(self.runtime.global_flat)
        return score_batches(model, self.test, shard.batch_size, shard.start, shard.stop)

    def cache_result(self, task_id: int, payload: bytes) -> None:
        self.results[task_id] = payload
        while len(self.results) > _RESULT_CACHE_SIZE:
            self.results.popitem(last=False)

    # -- upload encoding -------------------------------------------------
    def _make_codec(self, task):
        name = (self.codec or "").lower()
        kwargs = dict(self.codec_kwargs)
        if name == "topk":
            return TopKCompressor(**kwargs)
        if name == "quantization":
            # Stochastic rounding re-seeded per (client, round, attempt) so
            # the coded bits are a pure function of the task, not of which
            # worker served it or in what order.
            seed = int(
                RngStream(self.runtime.config.seed)
                .child("net-codec", task.client_id, task.round_idx, task.attempt)
                .generator.integers(1 << 31)
            )
            return QuantizationCompressor(seed=seed, **kwargs)
        raise ValueError(f"unknown net codec {self.codec!r}")

    def encode_result(self, task, result: TaskResult) -> Dict[str, Any]:
        """The picklable wire form of one :class:`TaskResult`.

        The flat weight vector travels as raw bytes (byte-identity) or as
        a coded delta against this worker's installed broadcast (lossy,
        opt-in); everything else — strategy state, extras, failure, obs
        shard — pickles as-is.
        """
        recorder = self.runtime.recorder
        if recorder.enabled:
            result.obs = recorder.drain()
        wire: Dict[str, Any] = {
            "state": result.state,
            "failure": result.failure,
            "obs": result.obs,
            "fault_delay_s": result.fault_delay_s,
            "flops_wasted": result.flops_wasted,
            "update": None,
        }
        update = result.update
        if update is None:
            return wire
        meta = {
            "client_id": update.client_id,
            "num_samples": update.num_samples,
            "train_loss": update.train_loss,
            "extras": update.extras,
            "flops": update.flops,
            "comm_bytes": update.comm_bytes,
        }
        flat = update.flat_vector()
        if self.codec is not None:
            delta = np.asarray(flat, dtype=np.float32) - self.runtime.global_flat
            enc, nbytes = self._make_codec(task).encode_flat(delta)
            wire["update"] = {
                "mode": "codec", "enc": enc, "wire_nbytes": float(nbytes), "meta": meta,
            }
        else:
            wire["update"] = {
                "mode": "flat", "blob": flat.tobytes(), "dtype": flat.dtype.str,
                "meta": meta,
            }
        return wire


#: built state cached across reconnects, keyed by the experiment cell.
_STATE_CACHE: Dict[Optional[str], _WorkerState] = {}


def build_worker_state(welcome: Dict[str, Any],
                       in_pool_worker: bool = False) -> _WorkerState:
    """The (cached) rebuilt engine half for one experiment cell."""
    key = welcome["cell_key"]
    state = _STATE_CACHE.get(key)
    if state is None or key is None:
        state = _WorkerState(welcome, in_pool_worker)
        _STATE_CACHE.clear()  # one experiment per worker process at a time
        _STATE_CACHE[key] = state
    return state


class _Heartbeat:
    """Daemon thread beating ``HEARTBEAT`` every ``interval_s`` seconds.

    Shares the serve loop's channel; the channel's send lock makes the
    interleaving safe.  Dies quietly with the channel."""

    def __init__(self, chan: FramedChannel, interval_s: float) -> None:
        self._chan = chan
        self._interval_s = max(0.05, float(interval_s))
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="net-heartbeat", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                self._chan.send_frame(frames.HEARTBEAT)
            except ChannelClosed:
                return

    def stop(self) -> None:
        self._stop.set()


class WorkerClient:
    """The connect / register / serve / re-register loop."""

    def __init__(self, host: str, port: int, *,
                 cell_key: Optional[str] = None,
                 connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S,
                 backoff_base_s: float = 0.05,
                 max_reconnects: int = 8) -> None:
        self.host = host
        self.port = port
        self.cell_key = cell_key
        self.connect_timeout_s = float(connect_timeout_s)
        self.backoff_base_s = float(backoff_base_s)
        self.max_reconnects = int(max_reconnects)
        #: true exactly in a worker its executor spawned and will replace
        #: (:func:`run_spawned`): there the ``worker_death`` fault may
        #: really exit the process.
        self.in_pool_worker = False
        self._ever_registered = False

    # -- lifecycle -------------------------------------------------------
    def run(self) -> int:
        """Serve until the coordinator says ``BYE`` (0) or the link stays
        dead through the reconnect budget (1)."""
        attempt = 0
        while True:
            try:
                chan, welcome, backlog = self._open_session()
            except _Rejected:
                return 1
            except (OSError, ChannelClosed, ProtocolError, _CorruptStream):
                attempt += 1
                if attempt > self.max_reconnects:
                    return 1
                self._backoff(attempt)
                continue
            if welcome is None:  # orderly BYE, or nothing to serve
                return 0
            attempt = 0
            state = build_worker_state(welcome, self.in_pool_worker)
            heartbeat = _Heartbeat(chan, welcome["heartbeat_s"])
            try:
                self._serve(chan, state, backlog)
                return 0
            except (ChannelClosed, ProtocolError, _CorruptStream):
                attempt += 1
                if attempt > self.max_reconnects:
                    return 1
                self._backoff(attempt)
            finally:
                heartbeat.stop()
                chan.close()

    def _backoff(self, attempt: int) -> None:
        """Exponential reconnect backoff, reusing the engine's retry
        pricing curve (``base * 2**(attempt-1)``) on the wall clock."""
        time.sleep(min(self.backoff_base_s * (2.0 ** min(attempt - 1, 6)), 10.0))

    def _connect(self) -> FramedChannel:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        return FramedChannel(sock)

    def _open_session(
        self,
    ) -> Tuple[FramedChannel, Optional[Dict[str, Any]], List[Frame]]:
        """Connect and register.  The channel comes back open only when
        there is something to serve (``welcome`` is not None); a refusal,
        a failed handshake or an orderly BYE closes it here."""
        chan = self._connect()
        try:
            welcome, backlog = self._register(chan)
        except BaseException:
            chan.close()
            raise
        if welcome is None:
            chan.close()
        return chan, welcome, backlog

    def _register(
        self, chan: FramedChannel
    ) -> Tuple[Optional[Dict[str, Any]], List[Frame]]:
        """HELLO / WELCOME handshake; returns the WELCOME dict (``None`` on
        an orderly BYE or a recipe-less WELCOME) plus the frames that
        arrived behind it, and raises :class:`_Rejected` on a refusal.

        The coordinator sends BROADCAST (and the first TASK) right behind
        WELCOME, so they routinely land in the same receive batch; dropping
        them would stall the round for a resend timeout plus a NEED_BCAST
        round trip.
        """
        chan.send_frame(frames.HELLO, pickle.dumps({
            "cell_key": self.cell_key,
            "reconnect": self._ever_registered,
        }, protocol=pickle.HIGHEST_PROTOCOL))
        deadline = time.monotonic() + self.connect_timeout_s
        while time.monotonic() < deadline:
            batch = chan.recv_frames(timeout=0.2)
            for i, frame in enumerate(batch):
                if frame.ftype == frames.WELCOME:
                    self._ever_registered = True
                    welcome = _loads(frame.payload)
                    if welcome["spec"] is None:
                        return None, []
                    return welcome, batch[i + 1:]
                if frame.ftype == frames.BYE:
                    reason = _loads(frame.payload).get("reason", "")
                    if reason:
                        raise _Rejected(reason)
                    return None, []
        raise ChannelClosed("no WELCOME within the connect timeout")

    # -- serving ---------------------------------------------------------
    def _serve(self, chan: FramedChannel, state: _WorkerState,
               backlog: Sequence[Frame] = ()) -> None:
        """Pump frames until BYE, starting with ``backlog`` — what arrived
        in the same batch as WELCOME."""
        batch = backlog
        while True:
            for frame in batch:
                if frame.ftype == frames.BROADCAST:
                    state.install_broadcast(frame.payload)
                elif frame.ftype == frames.TASK:
                    self._handle_task(chan, state, frame.payload)
                elif frame.ftype == frames.BYE:
                    return
                # anything else (stray HEARTBEAT echoes) is ignored
            batch = chan.recv_frames(timeout=0.5)

    def _handle_task(self, chan: FramedChannel, state: _WorkerState,
                     payload: bytes) -> None:
        job = _loads(payload)
        task_id = int(job["task_id"])
        cached = state.results.get(task_id)
        if cached is not None:
            # The TASK frame was re-sent because our RESULT got lost:
            # answer from cache, never re-train (idempotence).
            chan.send_frame(frames.RESULT, cached)
            return
        if int(job["ver"]) != state.bcast_ver:
            # The broadcast this task trains against never arrived (its
            # frame was dropped): NACK instead of training on stale weights.
            chan.send_frame(frames.NEED_BCAST, pickle.dumps(
                {"task_id": task_id}, protocol=pickle.HIGHEST_PROTOCOL
            ))
            return
        task = job["task"]
        if isinstance(task, EvalShard):
            wire = state.score(task)
        else:
            wire = state.encode_result(task, execute_task(task, state.worker, state.runtime))
        blob = pickle.dumps(
            {"task_id": task_id, "wire": wire}, protocol=pickle.HIGHEST_PROTOCOL
        )
        state.cache_result(task_id, blob)
        chan.send_frame(frames.RESULT, blob)


class _Rejected(Exception):
    """The coordinator refused registration (wrong cell_key)."""


def _loads(payload: bytes):
    """Unpickle a frame payload, converting deserialization failures into
    the stream-corruption signal (reconnect, don't crash)."""
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise _CorruptStream(f"frame payload failed to unpickle: {exc}") from None


def run_spawned(forked_from, host: str, port: int, **client_kwargs) -> None:
    """``multiprocessing`` target of a worker the executor started itself
    (and replaces when it exits).  ``forked_from`` is the parent's
    :class:`~repro.fl.net.coordinator.CoordinatorServer` when this process
    is a fork of it, else ``None``."""
    if forked_from is not None:
        forked_from.disown()
        # A fork also copies whatever state a WorkerClient in the parent
        # built for this cell (result cache included); start clean.
        _STATE_CACHE.clear()
    client = WorkerClient(host, port, **client_kwargs)
    client.in_pool_worker = True
    raise SystemExit(client.run())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fl.net.worker",
        description="Client-worker process for the network federation executor.",
    )
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address to register with")
    parser.add_argument("--cell-key", default=None,
                        help="expected experiment cell key (registration is "
                             "refused on mismatch)")
    parser.add_argument("--connect-timeout-s", type=float,
                        default=DEFAULT_CONNECT_TIMEOUT_S)
    parser.add_argument("--backoff-base-s", type=float, default=0.05,
                        help="base of the exponential reconnect backoff")
    parser.add_argument("--max-reconnects", type=int, default=8,
                        help="consecutive failed (re)connects before giving up")
    args = parser.parse_args(argv)
    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        parser.error(f"--connect wants HOST:PORT, got {args.connect!r}")
    client = WorkerClient(
        host, int(port),
        cell_key=args.cell_key,
        connect_timeout_s=args.connect_timeout_s,
        backoff_base_s=args.backoff_base_s,
        max_reconnects=args.max_reconnects,
    )
    return client.run()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
