"""The wire format: length-prefixed binary frames with a CRC'd header.

Every message between the :class:`~repro.fl.net.coordinator.CoordinatorServer`
and a worker client is one *frame*::

    +-------+---------+------+---------+------------+-------+-----------+
    | magic | version | type | seq u32 | length u64 | crc32 | payload   |
    | 2B    | 1B      | 1B   | 4B      | 8B         | 4B    | length B  |
    +-------+---------+------+---------+------------+-------+-----------+

The header is 20 bytes, big-endian (``>2sBBIQI``); ``crc32`` covers the
first 16 header bytes, so a torn or bit-flipped header is rejected before
``length`` is ever trusted.  ``seq`` increases strictly per connection and
per direction — a receiver that sees ``seq <= last_seq`` is looking at a
duplicated frame (the :mod:`~repro.fl.net.netfaults` layer is the only
source of duplicates on a TCP stream) and drops it, which is what makes
duplicate delivery idempotent.

Everything in this module is pure — bytes in, frames out, no sockets —
so the codec is property-testable (see ``tests/test_net.py``): arbitrary
payloads round-trip exactly, truncated streams simply wait for more bytes
(:meth:`FrameDecoder.feed` never partial-reads a frame), and garbage
prefixes raise :class:`ProtocolError` immediately instead of hanging or
resynchronizing onto attacker-chosen offsets.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, NamedTuple, Optional

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "HELLO",
    "WELCOME",
    "BROADCAST",
    "TASK",
    "RESULT",
    "HEARTBEAT",
    "NEED_BCAST",
    "BYE",
    "FRAME_NAMES",
    "ProtocolError",
    "Frame",
    "encode_frame",
    "FrameDecoder",
    "pack_blob_payload",
    "unpack_blob_payload",
]

MAGIC = b"RF"
#: 2: a ``TASK`` may carry an evaluation shard, answered with batch scores.
PROTOCOL_VERSION = 2

#: header prefix covered by the CRC: magic, version, type, seq, length.
_PREFIX = struct.Struct(">2sBBIQ")
_CRC = struct.Struct(">I")
HEADER_SIZE = _PREFIX.size + _CRC.size  # 20 bytes

#: refuse frames claiming more than this many payload bytes (a corrupted
#: length field must not become an unbounded allocation).
MAX_PAYLOAD = 1 << 31

# Frame types.
HELLO = 1       # worker -> coordinator: registration / handshake
WELCOME = 2     # coordinator -> worker: accepted; carries the build recipe
BROADCAST = 3   # coordinator -> worker: the round's flat global weights
TASK = 4        # coordinator -> worker: one ClientTaskSpec or EvalShard
RESULT = 5      # worker -> coordinator: one TaskResult upload or batch scores
HEARTBEAT = 6   # worker -> coordinator: liveness beacon
NEED_BCAST = 7  # worker -> coordinator: task referenced an unseen broadcast
BYE = 8         # either side: orderly close (payload may carry a reason)

FRAME_NAMES = {
    HELLO: "hello",
    WELCOME: "welcome",
    BROADCAST: "broadcast",
    TASK: "task",
    RESULT: "result",
    HEARTBEAT: "heartbeat",
    NEED_BCAST: "need_bcast",
    BYE: "bye",
}


class ProtocolError(Exception):
    """The byte stream is not a valid frame sequence (bad magic, wrong
    protocol version, CRC mismatch, oversized length).  Unrecoverable for
    the connection: framing is lost, the only safe move is to close."""


class Frame(NamedTuple):
    ftype: int
    seq: int
    payload: bytes


def encode_frame(ftype: int, seq: int, payload: bytes = b"") -> bytes:
    """One encoded frame: CRC'd header + payload."""
    if not 0 <= ftype <= 0xFF:
        raise ValueError(f"frame type must fit a u8, got {ftype}")
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(f"payload of {len(payload)} bytes exceeds MAX_PAYLOAD")
    prefix = _PREFIX.pack(MAGIC, PROTOCOL_VERSION, ftype, seq & 0xFFFFFFFF, len(payload))
    return prefix + _CRC.pack(zlib.crc32(prefix)) + payload


class FrameDecoder:
    """Incremental frame parser over an untrusted byte stream.

    Feed it whatever the socket produced; it returns every *complete*
    frame and buffers the rest.  Three invariants the property suite pins:

    * **no partial reads** — a frame is surfaced only once all
      ``HEADER_SIZE + length`` bytes arrived; a truncated stream yields
      nothing (and :attr:`pending` reports the buffered remainder);
    * **no hangs on garbage** — a prefix that is not a valid header
      (magic/version/CRC/length) raises :class:`ProtocolError` on the
      very feed that exposes it;
    * **duplicate idempotence** — with ``dedupe=True`` (the transport
      default) a frame whose ``seq`` does not advance past the last
      accepted one is silently dropped.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD, dedupe: bool = False) -> None:
        self._buf = bytearray()
        self._max_payload = int(max_payload)
        self._dedupe = dedupe
        self._last_seq: Optional[int] = None

    @property
    def pending(self) -> int:
        """Buffered bytes not yet forming a complete frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb ``data``; return every frame it completes (maybe none)."""
        self._buf += data
        frames: List[Frame] = []
        while True:
            frame = self._next()
            if frame is None:
                return frames
            if self._dedupe:
                if self._last_seq is not None and frame.seq <= self._last_seq:
                    continue  # duplicated frame: drop, idempotently
                self._last_seq = frame.seq
            frames.append(frame)

    def _next(self) -> Optional[Frame]:
        buf = self._buf
        if len(buf) < HEADER_SIZE:
            return None
        prefix = bytes(buf[: _PREFIX.size])
        magic, version, ftype, seq, length = _PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise ProtocolError(f"bad magic {magic!r} (want {MAGIC!r})")
        (crc,) = _CRC.unpack(bytes(buf[_PREFIX.size:HEADER_SIZE]))
        if crc != zlib.crc32(prefix):
            raise ProtocolError("header CRC mismatch")
        # CRC verified: the remaining fields are what the sender wrote.
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version {version} (this build speaks {PROTOCOL_VERSION})"
            )
        if length > self._max_payload:
            raise ProtocolError(f"frame claims {length} payload bytes (cap {self._max_payload})")
        total = HEADER_SIZE + length
        if len(buf) < total:
            return None  # wait for the rest; never a partial payload
        payload = bytes(buf[HEADER_SIZE:total])
        del buf[:total]
        return Frame(ftype, seq, payload)


# ---------------------------------------------------------------------------
# Broadcast payload packing: pickled metadata + one raw binary blob.
# ---------------------------------------------------------------------------

_BLOB_LEN = struct.Struct(">Q")


def pack_blob_payload(meta_blob: bytes, blob: bytes) -> bytes:
    """``BROADCAST`` payload layout: u64 meta length, pickled meta, then the
    raw flat weight buffer — the model crosses the wire as one contiguous
    byte run, never re-pickled."""
    return _BLOB_LEN.pack(len(meta_blob)) + meta_blob + blob


def unpack_blob_payload(payload: bytes) -> "tuple[bytes, memoryview]":
    """Invert :func:`pack_blob_payload`; the blob comes back as a zero-copy
    memoryview into the frame payload."""
    if len(payload) < _BLOB_LEN.size:
        raise ProtocolError("broadcast payload shorter than its meta length field")
    (meta_len,) = _BLOB_LEN.unpack(payload[: _BLOB_LEN.size])
    start = _BLOB_LEN.size
    if len(payload) < start + meta_len:
        raise ProtocolError("broadcast payload shorter than its declared meta")
    meta = payload[start:start + meta_len]
    return meta, memoryview(payload)[start + meta_len:]
