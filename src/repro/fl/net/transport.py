"""One framed, countable, fault-injectable channel over a TCP socket.

:class:`FramedChannel` is the single choke point every byte crosses in
:mod:`repro.fl.net` — the coordinator holds one per accepted worker, the
worker holds one for its coordinator link.  It owns three concerns:

* **framing** — outbound frames get this channel's next ``seq``; inbound
  bytes run through a seq-deduping :class:`~repro.fl.net.frames.FrameDecoder`
  (so a duplicated frame is dropped here, before anyone interprets it);
* **accounting** — ``bytes_sent`` / ``bytes_recv`` count what actually hit
  the socket (post-fault), feeding the ``fl_net_*`` obs counters;
* **fault injection** — an optional
  :class:`~repro.fl.net.netfaults.NetFaultInjector` rewrites each send
  into a plan (chunks + delay).  Only the coordinator passes one: a single
  deterministic injector in a single process, never forked to workers.

Sends are serialized under a lock because the worker's heartbeat thread
shares its channel with the serve loop; the seq counter and the socket
write are one atomic unit.
"""

from __future__ import annotations

import socket
import threading
import time
from select import select
from typing import List, Optional, Tuple

from repro.fl.net.frames import MAX_PAYLOAD, Frame, FrameDecoder, encode_frame
from repro.fl.net.netfaults import NetFaultInjector

__all__ = ["ChannelClosed", "FramedChannel"]

#: a blocked send/recv past this long means the peer is gone, not slow.
_IO_TIMEOUT_S = 30.0
_RECV_CHUNK = 1 << 20


class ChannelClosed(Exception):
    """The peer closed the connection (EOF) or the socket died."""


class FramedChannel:
    """Framed send/recv over one connected socket.

    Not a reconnecting abstraction: when the link dies this object is
    done (``ChannelClosed`` / ``ProtocolError``) and the owner decides —
    the worker dials again with backoff, the coordinator synthesizes
    ``connection_lost`` failures.
    """

    def __init__(self, sock: socket.socket, *,
                 max_payload: int = MAX_PAYLOAD,
                 injector: Optional[NetFaultInjector] = None) -> None:
        sock.settimeout(_IO_TIMEOUT_S)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP sockets in tests
            pass
        self._sock = sock
        self._decoder = FrameDecoder(max_payload=max_payload, dedupe=True)
        self._injector = injector
        self._send_lock = threading.Lock()
        self._seq = 0
        self._open = True
        self.bytes_sent = 0
        self.bytes_recv = 0

    def fileno(self) -> int:
        return self._sock.fileno()

    @property
    def is_open(self) -> bool:
        return self._open

    def send_frame(self, ftype: int, payload: bytes = b"",
                   fault_key: Optional[Tuple] = None) -> None:
        """Encode and send one frame.

        ``fault_key`` routes the frame through the injector's send plan
        (coordinator side only); a key must end in an attempt counter so a
        logical resend re-draws its coin.  The resent frame also gets a
        fresh ``seq`` here — only a fault-duplicated frame reuses one,
        which is exactly what the receiver's dedupe keys on.
        """
        with self._send_lock:
            self._seq += 1
            data = encode_frame(ftype, self._seq, payload)
            delay = 0.0
            chunks: List[bytes] = [data]
            if self._injector is not None and fault_key is not None:
                chunks, delay = self._injector.send_plan(data, *fault_key)
            if delay > 0.0:
                time.sleep(delay)
            try:
                for chunk in chunks:
                    self._sock.sendall(chunk)
                    self.bytes_sent += len(chunk)
            except (OSError, socket.timeout) as exc:
                self._open = False
                raise ChannelClosed(str(exc)) from None

    def recv_frames(self, timeout: float = 0.0) -> List[Frame]:
        """Frames completed by whatever bytes are readable within
        ``timeout`` seconds (0 = just poll).  Returns ``[]`` on quiet
        links; raises :class:`ChannelClosed` on EOF and lets the
        decoder's ``ProtocolError`` propagate on corruption."""
        if not self._open:
            raise ChannelClosed("channel already closed")
        try:
            ready, _, _ = select([self._sock], [], [], timeout)
        except (OSError, ValueError) as exc:
            self._open = False
            raise ChannelClosed(str(exc)) from None
        if not ready:
            return []
        try:
            data = self._sock.recv(_RECV_CHUNK)
        except (OSError, socket.timeout) as exc:
            self._open = False
            raise ChannelClosed(str(exc)) from None
        if not data:
            self._open = False
            raise ChannelClosed("peer closed the connection")
        self.bytes_recv += len(data)
        return self._decoder.feed(data)

    def forget(self) -> None:
        """Close this process's descriptor only — for a forked child holding
        a copy of a connection its parent still serves (:meth:`close` shuts
        the connection itself down, for every holder)."""
        self._open = False
        self._sock.close()

    def close(self) -> None:
        self._open = False
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass
