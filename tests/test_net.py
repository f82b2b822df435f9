"""The network federation executor (repro.fl.net): frame codec properties,
deterministic wire faults, the coordinator/worker handshake, and the
headline contract — a loopback network run at a fixed seed is byte-identical
in History to the serial executor, including under injected frame drops with
retries enabled."""

from __future__ import annotations

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExperimentSpec, run_experiment
from repro.api.engine import Engine
from repro.fl.net import frames
from repro.fl.net.coordinator import CoordinatorServer, NetworkExecutor
from repro.fl.net.frames import (
    HEADER_SIZE,
    Frame,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    pack_blob_payload,
    unpack_blob_payload,
)
from repro.fl.net.netfaults import (
    DelayFrameFault,
    DropFrameFault,
    DuplicateFrameFault,
    PartitionFault,
    TruncateFrameFault,
    available_netfaults,
    build_netfault,
)
from repro.fl.net.transport import ChannelClosed, FramedChannel
from repro.fl.net.worker import WorkerClient

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=2, batch_size=20, lr=0.05, seed=1)


def tiny_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**TINY, **overrides})


def assert_identical_histories(a, b, context=""):
    """Byte-identical round records; only wall/phase timings are exempt."""
    assert len(a) == len(b), context
    for ra, rb in zip(a.records, b.records):
        da, db = ra.to_dict(), rb.to_dict()
        for key in da:
            if key in ("wall_seconds", "phase_seconds"):
                continue
            assert da[key] == db[key], f"{context}: {key}: {da[key]} != {db[key]}"


# ---------------------------------------------------------------------------
# Frame codec: property suite.
# ---------------------------------------------------------------------------

payloads = st.binary(max_size=2048)
ftypes = st.integers(min_value=0, max_value=255)


class TestFrameCodecProperties:
    @given(st.lists(st.tuples(ftypes, payloads), max_size=8),
           st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_survives_arbitrary_chunking(self, msgs, chunk):
        """Any frame sequence, fed in any chunking, decodes exactly."""
        blob = b"".join(
            encode_frame(ftype, seq + 1, payload)
            for seq, (ftype, payload) in enumerate(msgs)
        )
        decoder = FrameDecoder()
        out = []
        for i in range(0, len(blob), chunk):
            out.extend(decoder.feed(blob[i:i + chunk]))
        assert out == [
            Frame(ftype, seq + 1, payload)
            for seq, (ftype, payload) in enumerate(msgs)
        ]
        assert decoder.pending == 0

    @given(ftypes, payloads, st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncated_stream_never_partial_reads(self, ftype, payload, data):
        """A prefix of a frame yields nothing — no partial frame, no error."""
        blob = encode_frame(ftype, 1, payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        decoder = FrameDecoder()
        assert decoder.feed(blob[:cut]) == []
        assert decoder.pending == cut
        # The remainder completes the frame exactly.
        assert decoder.feed(blob[cut:]) == [Frame(ftype, 1, payload)]

    @given(st.binary(min_size=HEADER_SIZE, max_size=HEADER_SIZE + 64))
    @settings(max_examples=60, deadline=None)
    def test_garbage_prefix_raises_clean_protocol_error(self, garbage):
        """Random bytes either fail loudly or wait for more — never hang on
        a bogus length and never surface a fabricated frame."""
        decoder = FrameDecoder()
        try:
            got = decoder.feed(garbage)
        except ProtocolError:
            return  # the expected common case: bad magic or CRC
        # Astronomically unlikely (a valid CRC over random bytes), but the
        # contract still holds: whatever decoded must re-encode to a prefix
        # of the input.
        consumed = b"".join(
            encode_frame(f.ftype, f.seq, f.payload) for f in got
        )
        assert garbage.startswith(consumed)

    @given(ftypes, payloads, st.integers(min_value=0, max_value=HEADER_SIZE - 1))
    @settings(max_examples=60, deadline=None)
    def test_header_bitflip_is_rejected(self, ftype, payload, pos):
        blob = bytearray(encode_frame(ftype, 7, payload))
        blob[pos] ^= 0x40
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(bytes(blob))
            # A flip that survives the magic check must die on the CRC; a
            # flip inside the CRC field itself dies on the CRC compare.

    @given(st.lists(st.tuples(ftypes, payloads), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_duplicate_frames_are_idempotent_under_dedupe(self, msgs):
        """Feeding every frame twice (the duplicate_frame fault) decodes to
        the same sequence as feeding each once."""
        encoded = [
            encode_frame(ftype, seq + 1, payload)
            for seq, (ftype, payload) in enumerate(msgs)
        ]
        once = FrameDecoder(dedupe=True).feed(b"".join(encoded))
        twice = FrameDecoder(dedupe=True).feed(
            b"".join(blob + blob for blob in encoded)
        )
        assert twice == once

    @given(st.binary(max_size=256), st.binary(max_size=256))
    @settings(max_examples=60, deadline=None)
    def test_blob_payload_roundtrip(self, meta, blob):
        packed = pack_blob_payload(meta, blob)
        meta2, view = unpack_blob_payload(packed)
        assert meta2 == meta
        assert bytes(view) == blob

    def test_wrong_protocol_version_rejected(self):
        prefix = frames._PREFIX.pack(frames.MAGIC, frames.PROTOCOL_VERSION + 1,
                                     frames.TASK, 1, 0)
        blob = prefix + frames._CRC.pack(zlib.crc32(prefix))
        with pytest.raises(ProtocolError, match="version"):
            FrameDecoder().feed(blob)

    def test_oversized_length_rejected_before_allocation(self):
        prefix = frames._PREFIX.pack(frames.MAGIC, frames.PROTOCOL_VERSION,
                                     frames.TASK, 1, 1 << 40)
        blob = prefix + frames._CRC.pack(zlib.crc32(prefix))
        with pytest.raises(ProtocolError, match="payload bytes"):
            FrameDecoder().feed(blob)

    def test_truncated_blob_payload_raises(self):
        packed = pack_blob_payload(b"m" * 10, b"b" * 10)
        with pytest.raises(ProtocolError):
            unpack_blob_payload(packed[:12])


# ---------------------------------------------------------------------------
# Netfaults: seeded determinism + registry.
# ---------------------------------------------------------------------------

class TestNetFaults:
    def test_registry_lists_all_five(self):
        assert available_netfaults() == [
            "delay_frame", "drop_frame", "duplicate_frame",
            "partition", "truncate_frame",
        ]

    def test_unknown_name_and_bad_kwargs_raise(self):
        with pytest.raises(ValueError, match="unknown netfault"):
            build_netfault("packet_gremlin", rate=0.5, seed=0)
        with pytest.raises(ValueError, match="bad arguments"):
            build_netfault("drop_frame", rate=0.5, seed=0, wat=1)
        with pytest.raises(ValueError, match="rate"):
            build_netfault("drop_frame", rate=1.5, seed=0)

    def test_coins_are_pure_functions_of_seed_and_key(self):
        a = DropFrameFault(rate=0.5, seed=7)
        b = DropFrameFault(rate=0.5, seed=7)
        keys = [("task", w, t, s) for w in range(3) for t in range(5) for s in range(2)]
        assert [a.fires(*k) for k in keys] == [b.fires(*k) for k in keys]
        c = DropFrameFault(rate=0.5, seed=8)
        assert [a.fires(*k) for k in keys] != [c.fires(*k) for k in keys]

    def test_resend_redraws_its_coin(self):
        fault = DropFrameFault(rate=0.5, seed=3)
        draws = {fault.fires("send", "task", 0, 9, attempt) for attempt in range(32)}
        assert draws == {True, False}, "attempt counter must vary the coin"

    def test_send_plan_shapes(self):
        data = b"x" * 100
        assert DropFrameFault(rate=1.0, seed=0).send_plan(data, "k") == ([], 0.0)
        assert DuplicateFrameFault(rate=1.0, seed=0).send_plan(data, "k") == (
            [data, data], 0.0)
        chunks, delay = TruncateFrameFault(rate=1.0, seed=0).send_plan(data, "k")
        assert chunks == [data[:50]] and delay == 0.0
        chunks, delay = DelayFrameFault(rate=1.0, seed=0, min_delay_s=0.01,
                                        max_delay_s=0.02).send_plan(data, "k")
        assert chunks == [data] and 0.01 <= delay <= 0.02
        assert PartitionFault(rate=1.0, seed=0).blocked(0, 1)
        assert not PartitionFault(rate=0.0, seed=0).blocked(0, 1)


# ---------------------------------------------------------------------------
# Transport: framed channels over a socketpair.
# ---------------------------------------------------------------------------

class TestFramedChannel:
    def _pair(self):
        a, b = socket.socketpair()
        return FramedChannel(a), FramedChannel(b)

    def test_send_recv_roundtrip_and_byte_accounting(self):
        left, right = self._pair()
        try:
            left.send_frame(frames.TASK, b"payload")
            got = right.recv_frames(timeout=1.0)
            assert [(f.ftype, f.payload) for f in got] == [(frames.TASK, b"payload")]
            assert left.bytes_sent == HEADER_SIZE + len(b"payload")
            assert right.bytes_recv == left.bytes_sent
        finally:
            left.close()
            right.close()

    def test_eof_raises_channel_closed(self):
        left, right = self._pair()
        left.close()
        with pytest.raises(ChannelClosed):
            right.recv_frames(timeout=1.0)
        right.close()

    def test_injected_duplicate_is_deduped_at_the_decoder(self):
        a, b = socket.socketpair()
        left = FramedChannel(a, injector=DuplicateFrameFault(rate=1.0, seed=0))
        right = FramedChannel(b)
        try:
            left.send_frame(frames.TASK, b"once", fault_key=("task", 0, 0, 1))
            got = right.recv_frames(timeout=1.0)
            assert [f.payload for f in got] == [b"once"]
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# Coordinator handshake: cell_key gatekeeping, reconnect accounting.
# ---------------------------------------------------------------------------

class _ChannelRecordingClient(WorkerClient):
    """A worker client that keeps every channel it opened, so a test can
    check each one was closed."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.channels = []

    def _connect(self):
        chan = super()._connect()
        self.channels.append(chan)
        return chan


class TestHandshake:
    def _run_client(self, server, client):
        """Drive the server pump while the client runs its loop."""
        rc = {}

        def target():
            rc["code"] = client.run()

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while thread.is_alive() and time.monotonic() < deadline:
            server._pump(0.05)
        thread.join(timeout=1.0)
        assert "code" in rc, "worker client never finished"
        return rc["code"]

    def test_matching_cell_key_registers(self):
        server = CoordinatorServer("127.0.0.1:0", cell_key="cell-a")
        try:
            host, port = server.address
            code = self._run_client(
                server, WorkerClient(host, port, cell_key="cell-a",
                                     connect_timeout_s=5.0, max_reconnects=0))
            # WELCOME carried spec=None -> the client treats it as "nothing
            # to serve" and exits cleanly; registration itself succeeded.
            assert code == 0
            assert server.stats()["connections"] == 1
        finally:
            server.shutdown()

    def test_cell_key_mismatch_is_refused(self):
        server = CoordinatorServer("127.0.0.1:0", cell_key="cell-a")
        try:
            host, port = server.address
            code = self._run_client(
                server, WorkerClient(host, port, cell_key="cell-b",
                                     connect_timeout_s=5.0, max_reconnects=0))
            assert code == 1
            assert server.n_connected == 0
        finally:
            server.shutdown()

    @pytest.mark.parametrize("cell_key, want_code", [("cell-a", 0), ("cell-b", 1)])
    def test_registration_outcomes_close_the_socket(self, cell_key, want_code):
        """Nothing to serve (0) and a refused cell_key (1) both end the
        client; neither may leave its socket open."""
        server = CoordinatorServer("127.0.0.1:0", cell_key="cell-a")
        try:
            host, port = server.address
            client = _ChannelRecordingClient(host, port, cell_key=cell_key,
                                             connect_timeout_s=5.0, max_reconnects=0)
            assert self._run_client(server, client) == want_code
        finally:
            server.shutdown()
        assert len(client.channels) == 1
        assert all(chan.fileno() == -1 for chan in client.channels)

    def test_exhausted_reconnects_leave_no_socket_open(self):
        """A peer that accepts connections but never answers HELLO: every
        attempt's handshake times out, and each attempt's socket is closed
        before the next one opens."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            host, port = listener.getsockname()
            client = _ChannelRecordingClient(host, port, connect_timeout_s=0.2,
                                             backoff_base_s=0.01, max_reconnects=2)
            assert client.run() == 1
        finally:
            listener.close()
        assert len(client.channels) == 3
        assert all(chan.fileno() == -1 for chan in client.channels)

    def test_frames_batched_behind_welcome_are_served(self):
        """The coordinator sends BROADCAST and the first TASK right behind
        WELCOME, so all three can land in one receive batch.  The worker
        must serve them: one ``sendall`` of WELCOME+BROADCAST+TASK yields a
        RESULT with the task sent exactly once (what ``_Flight.sends == 1``
        means on the coordinator) and no NEED_BCAST NACK — not a stall for
        the resend timer."""
        from repro.fl.executor import ClientTaskSpec

        spec = tiny_spec()
        with Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                    model_name="mlp") as engine:
            welcome = pickle.dumps({
                "spec": engine.worker_spec(), "cell_key": None,
                "heartbeat_s": 60.0, "codec": None, "codec_kwargs": {},
            })
            bcast = pack_blob_payload(
                pickle.dumps({"ver": 1, "payload": engine.server.broadcast_payload()}),
                engine.server.plane.bytes_view().tobytes(),
            )
            task = pickle.dumps({"task_id": 7, "ver": 1, "task": ClientTaskSpec(
                client_id=0, round_idx=0, state=engine.clients[0].state)})
        ours, theirs = socket.socketpair()
        client = WorkerClient("unused", 0, connect_timeout_s=5.0, max_reconnects=0)
        client._connect = lambda: FramedChannel(theirs)
        rc = {}
        thread = threading.Thread(
            target=lambda: rc.setdefault("code", client.run()), daemon=True)
        thread.start()
        chan = FramedChannel(ours)
        try:
            assert [f.ftype for f in chan.recv_frames(timeout=5.0)] == [frames.HELLO]
            ours.sendall(
                encode_frame(frames.WELCOME, 1, welcome)
                + encode_frame(frames.BROADCAST, 2, bcast)
                + encode_frame(frames.TASK, 3, task)
            )
            got = []
            deadline = time.monotonic() + 10.0
            while not got and time.monotonic() < deadline:
                got = chan.recv_frames(timeout=0.2)
            assert [f.ftype for f in got] == [frames.RESULT]
            result = pickle.loads(got[0].payload)
            assert result["task_id"] == 7
            assert result["wire"]["update"] is not None
            ours.sendall(encode_frame(frames.BYE, 4, pickle.dumps({"reason": ""})))
            thread.join(timeout=5.0)
            assert rc.get("code") == 0
        finally:
            chan.close()

    def test_worker_gives_up_after_reconnect_budget(self):
        # Nothing listens on this port: bind-then-close guarantees refusal.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = WorkerClient("127.0.0.1", port, connect_timeout_s=1.0,
                              backoff_base_s=0.01, max_reconnects=1)
        assert client.run() == 1

    def test_worker_main_rejects_malformed_connect(self):
        from repro.fl.net.worker import main

        with pytest.raises(SystemExit):
            main(["--connect", "no-port-here"])


# ---------------------------------------------------------------------------
# The headline contract: loopback network == serial, byte for byte.
# ---------------------------------------------------------------------------

class TestNetworkDeterminism:
    @pytest.fixture(scope="class")
    def serial_reference(self):
        return run_experiment(tiny_spec(executor="serial"))

    def test_clean_loopback_matches_serial(self, serial_reference):
        hist = run_experiment(tiny_spec(executor="network", net_workers=2))
        assert_identical_histories(serial_reference, hist, "network/clean")

    def test_drop_frame_with_retries_matches_serial(self, serial_reference):
        """Dropped frames are absorbed below the engine: resend timers plus
        the worker result cache keep the History identical — including the
        (empty) failed/retried lists."""
        hist = run_experiment(tiny_spec(
            executor="network", net_workers=2,
            net_fault="drop_frame", net_fault_rate=0.2, task_retries=2))
        assert_identical_histories(serial_reference, hist, "network/drop_frame")

    def test_duplicate_frame_matches_serial(self, serial_reference):
        hist = run_experiment(tiny_spec(
            executor="network", net_workers=2,
            net_fault="duplicate_frame", net_fault_rate=0.4))
        assert_identical_histories(serial_reference, hist, "network/duplicate")

    def test_delay_frame_matches_serial(self, serial_reference):
        hist = run_experiment(tiny_spec(
            executor="network", net_workers=2,
            net_fault="delay_frame", net_fault_rate=0.3,
            net_fault_kwargs={"min_delay_s": 0.01, "max_delay_s": 0.05}))
        assert_identical_histories(serial_reference, hist, "network/delay")

    def test_fl_fault_composes_with_network_executor(self, serial_reference):
        """Task-level faults (repro.fl.faults) ride the wire unchanged: the
        crash coin is keyed by (client, round, attempt), so the network run
        fails, retries and recovers exactly like the serial one."""
        spec_kwargs = dict(fault="crash", fault_rate=0.6, rounds=3,
                           task_retries=2, quorum_fraction=0.5)
        serial = run_experiment(tiny_spec(executor="serial", **spec_kwargs))
        net = run_experiment(tiny_spec(executor="network", net_workers=2,
                                       **spec_kwargs))
        assert_identical_histories(serial, net, "network/crash-fault")
        # And the fault actually fired somewhere, or this test is vacuous.
        assert any(r.failed_clients or r.retried_clients for r in serial.records)


class TestNetworkRobustness:
    def test_truncate_frame_reconnects_and_recovers(self):
        """A truncated frame destroys framing: the worker reconnects, the
        coordinator synthesizes connection_lost, and the retry/quorum policy
        finishes the run."""
        hist = run_experiment(tiny_spec(
            executor="network", net_workers=2, rounds=2,
            net_fault="truncate_frame", net_fault_rate=0.05,
            task_retries=2, quorum_fraction=0.5))
        assert len(hist) == 2

    def test_partition_recovers_through_policy(self):
        hist = run_experiment(tiny_spec(
            executor="network", net_workers=2, rounds=2,
            net_connect_timeout_s=10.0,
            net_fault="partition", net_fault_rate=0.2,
            task_retries=2, quorum_fraction=0.5))
        assert len(hist) == 2

    def test_kill_dash_nine_worker_mid_round(self):
        """The chaos headline: SIGKILL a live worker subprocess mid-round;
        the engine must finish every round through retry/quorum."""
        from repro.api.callbacks import Callback

        class KillOneWorker(Callback):
            def __init__(self):
                self.killed = False

            def on_round_start(self, engine, round_idx, selected):
                if round_idx == 1 and not self.killed:
                    executor = engine.executor
                    assert isinstance(executor, NetworkExecutor)
                    os.kill(executor._procs[0].pid, signal.SIGKILL)
                    self.killed = True

        killer = KillOneWorker()
        hist = run_experiment(
            tiny_spec(executor="network", net_workers=2, rounds=3,
                      task_retries=2, quorum_fraction=0.5),
            callbacks=[killer])
        assert killer.killed
        assert len(hist) == 3
        assert np.isfinite(hist.accuracies()).all()

    def test_wire_codecs_complete(self):
        for codec, kwargs in (("topk", {"fraction": 0.25}),
                              ("quantization", {"bits": 8})):
            hist = run_experiment(tiny_spec(
                executor="network", net_workers=2,
                net_codec=codec, net_codec_kwargs=kwargs))
            assert len(hist) == TINY["rounds"], codec
            assert np.isfinite(hist.accuracies()).all(), codec

    def test_wire_metrics_are_published(self, tmp_path):
        metrics = tmp_path / "net_metrics.prom"
        run_experiment(tiny_spec(executor="network", net_workers=2,
                                 metrics_out=str(metrics)))
        text = metrics.read_text()
        assert "fl_net_bytes_sent_total" in text
        assert "fl_net_bytes_recv_total" in text
        sent = float(next(line.split()[-1] for line in text.splitlines()
                          if line.startswith("fl_net_bytes_sent_total")))
        assert sent > 0


# ---------------------------------------------------------------------------
# The fleet the executor spawns itself (executor="process", loopback "network").
# ---------------------------------------------------------------------------

class TestSpawnedFleet:
    def test_one_class_under_both_names(self):
        from repro.api.registry import build_mode

        executors = {}
        for name in ("process", "network"):
            spec = tiny_spec(executor=name, n_workers=2)
            with build_mode("sync", spec=spec, data=spec.build_data()) as engine:
                executors[name] = engine.executor
                assert engine.executor.name == name
                assert engine.executor.n_workers == 2
        assert type(executors["process"]) is type(executors["network"])

    def test_worker_killed_between_rounds_is_replaced(self):
        """SIGKILL a spawned worker while the engine is between rounds: the
        next round starts on a whole fleet again (no task is handed to the
        corpse's connection), so even with no retry budget the History is
        the serial one."""
        from repro.api.callbacks import Callback

        class KillBetweenRounds(Callback):
            victim = None
            connected_after = None

            def on_round_start(self, engine, round_idx, selected):
                if round_idx == 1:
                    self.victim = engine.executor._procs[0]
                    os.kill(self.victim.pid, signal.SIGKILL)
                    self.victim.join(timeout=10.0)
                    assert not self.victim.is_alive()

            def on_round_end(self, engine, record):
                if record.round_idx == 1:
                    executor = engine.executor
                    self.connected_after = executor._server.n_connected
                    assert self.victim not in executor._procs
                    assert all(p.is_alive() for p in executor._procs)

        killer = KillBetweenRounds()
        serial = run_experiment(tiny_spec(executor="serial", rounds=3))
        hist = run_experiment(
            tiny_spec(executor="process", n_workers=2, rounds=3),
            callbacks=[killer])
        assert killer.connected_after == 2
        assert_identical_histories(serial, hist, "process/respawn")

    def test_forked_worker_does_not_hold_the_listening_socket(self):
        """A forked worker starts life with copies of the coordinator's
        sockets and must close them: with the parent's listener closed the
        port can be bound again while the workers are still alive, and
        again once the fleet is gone."""
        from repro.api.registry import build_mode

        spec = tiny_spec(executor="process", n_workers=2)
        engine = build_mode("sync", spec=spec, data=spec.build_data())
        try:
            engine.run_round()
            server = engine.executor._server
            host, port = server.address
            server._listener.close()
            assert all(p.is_alive() for p in engine.executor._procs)
            socket.create_server((host, port)).close()
        finally:
            engine.close()
        assert engine.executor._procs == []
        socket.create_server((host, port)).close()

    def test_welcome_is_not_pinned_but_late_joiners_get_it(self):
        """The pickled WELCOME carries the dataset; the server must not
        keep the blob once the fleet has registered, and must still build
        a full one for whoever registers later."""
        from repro.api.registry import build_mode

        spec = tiny_spec(executor="process", n_workers=2)
        with build_mode("sync", spec=spec, data=spec.build_data()) as engine:
            server = engine.executor._server
            assert not [k for k, v in vars(server).items()
                        if isinstance(v, (bytes, bytearray, memoryview))]
            chan = FramedChannel(socket.create_connection(server.address))
            try:
                chan.send_frame(frames.HELLO, pickle.dumps(
                    {"cell_key": spec.cell_key(), "reconnect": False}))
                got = []
                deadline = time.monotonic() + 10.0
                while not got and time.monotonic() < deadline:
                    server._pump(0.05)
                    got = chan.recv_frames(timeout=0.05)
                assert got[0].ftype == frames.WELCOME
                welcome = pickle.loads(got[0].payload)
                assert welcome["spec"].model_name == "mlp"
                assert welcome["cell_key"] == spec.cell_key()
            finally:
                chan.close()


# ---------------------------------------------------------------------------
# Spec / engine wiring.
# ---------------------------------------------------------------------------

class TestSpecWiring:
    def test_net_knobs_require_network_executor(self):
        for kwargs in (dict(net_workers=2), dict(net_fault_rate=0.5),
                       dict(net_codec="topk"), dict(net_bind="0.0.0.0:9999")):
            with pytest.raises(ValueError, match="executor='network'"):
                tiny_spec(**kwargs)

    def test_net_fault_pairing_validated(self):
        with pytest.raises(ValueError, match="never"):
            tiny_spec(executor="network", net_fault="drop_frame")
        with pytest.raises(ValueError, match="does nothing"):
            tiny_spec(executor="network", net_fault_rate=0.5)
        with pytest.raises(ValueError, match="unknown net_codec"):
            tiny_spec(executor="network", net_codec="gzip")

    def test_retry_backoff_base_validated_and_behavior_bearing(self):
        with pytest.raises(ValueError, match="retry_backoff_base_s"):
            tiny_spec(retry_backoff_base_s=0.0)
        # Backoff pacing shapes which attempts land, so it must shift the
        # experiment's identity (unlike the pure-topology net_* knobs).
        assert (tiny_spec(retry_backoff_base_s=0.5).cell_key()
                != tiny_spec().cell_key())

    def test_topology_knobs_do_not_change_the_cell_key(self):
        """The determinism contract in hash form: where the coordinator
        binds and how many workers serve cannot change the experiment."""
        base = tiny_spec(executor="network")
        assert base.cell_key() == tiny_spec(
            executor="network", net_workers=4,
            net_bind="127.0.0.1:18000", net_connect_timeout_s=5.0,
            net_heartbeat_s=0.2).cell_key()
        # ...but the behavior-bearing wire knobs do.
        assert base.cell_key() != tiny_spec(
            executor="network", net_fault="drop_frame",
            net_fault_rate=0.1).cell_key()

    def test_spec_round_trips_net_fields(self):
        spec = tiny_spec(executor="network", net_workers=3,
                         net_codec="topk", net_codec_kwargs={"fraction": 0.1},
                         retry_backoff_base_s=0.25)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_engine_rejects_nonpositive_backoff(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="retry_backoff_base_s"):
            Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                   model_name="mlp", retry_backoff_base_s=0.0)


class TestEngineContextManager:
    def test_with_block_closes_and_close_is_idempotent(self):
        spec = tiny_spec()
        with Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                    model_name="mlp") as engine:
            engine.run_round()
        assert engine._closed
        engine.close()  # second close must be a no-op, not a crash
        assert engine._closed

    def test_network_executor_close_is_idempotent(self):
        spec = tiny_spec(executor="network", net_workers=2)
        engine = None
        from repro.api.registry import build_mode

        engine = build_mode("sync", spec=spec, data=spec.build_data())
        try:
            assert engine.executor.name == "network"
            assert engine.executor.borrow_worker() is None
        finally:
            engine.close()
            engine.close()
        assert engine.executor._procs == []


# ---------------------------------------------------------------------------
# Crash-safe observability writes (the atomic-write satellite).
# ---------------------------------------------------------------------------

class TestAtomicObservabilityWrites:
    def test_kill_mid_write_never_tears_the_file(self, tmp_path):
        """SIGKILL a process hammering atomic_write_bytes: the target file
        must always parse as one complete payload (old or new, never torn)."""
        target = tmp_path / "victim.json"
        script = (
            "import json, sys\n"
            "from repro.io.persistence import atomic_write_bytes\n"
            "path = sys.argv[1]\n"
            "i = 0\n"
            "while True:\n"
            "    blob = json.dumps({'i': i, 'pad': 'x' * 200000}).encode()\n"
            "    atomic_write_bytes(path, blob)\n"
            "    i += 1\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen([sys.executable, "-c", script, str(target)],
                                env=env, cwd=os.path.dirname(os.path.dirname(
                                    os.path.abspath(__file__))))
        try:
            deadline = time.monotonic() + 20.0
            while not target.exists() and time.monotonic() < deadline:
                time.sleep(0.02)
            assert target.exists(), "writer never produced its first file"
            time.sleep(0.2)  # let it get properly mid-flight
        finally:
            proc.kill()
            proc.wait()
        payload = json.loads(target.read_text())  # parses, or the test fails
        assert payload["i"] >= 0

    def test_trace_file_is_published_atomically(self, tmp_path):
        trace = tmp_path / "spans.jsonl"
        run_experiment(tiny_spec(trace=str(trace)))
        assert trace.exists()
        assert not (tmp_path / "spans.jsonl.tmp").exists()
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_killed_run_leaves_no_torn_trace(self, tmp_path):
        """A process killed mid-run leaves only the .tmp stream — the trace
        path itself never exists half-written."""
        trace = tmp_path / "spans.jsonl"
        script = (
            "import os, sys\n"
            "from repro.obs.trace import JsonlExporter\n"
            "exporter = JsonlExporter(sys.argv[1])\n"
            "exporter.export({'span': 'round', 'i': 0})\n"
            "os._exit(1)\n"  # killed before close(): no publish
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        subprocess.run([sys.executable, "-c", script, str(trace)], env=env,
                       cwd=os.path.dirname(os.path.dirname(
                           os.path.abspath(__file__))), check=False)
        assert not trace.exists()
        assert (tmp_path / "spans.jsonl.tmp").exists()

    def test_metrics_out_write_is_atomic(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        run_experiment(tiny_spec(metrics_out=str(metrics)))
        assert metrics.exists()
        assert not (tmp_path / "metrics.prom.tmp").exists()
