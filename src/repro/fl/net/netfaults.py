"""Deterministic, seeded fault injection for the socket transport.

Where :mod:`repro.fl.faults` breaks *tasks* (crashes, corrupt uploads,
stragglers), this module breaks the *wire*: frames that vanish, arrive
twice, arrive late, arrive cut in half, or links that go dark for a whole
round.  Injectors live at the coordinator's send/recv choke point
(:class:`~repro.fl.net.transport.FramedChannel`) — one process, one
injector, so a chaos run never depends on cross-process scheduling.

Determinism follows the house rule: every coin is a pure function of
``(seed, "netfault", name, *key)`` through the
:class:`~repro.utils.rng.RngStream` tree, never of call order or wall
time.  The transport keys each coin with a monotonically increasing
per-site counter (send attempt, receive attempt), so a *resent* frame
re-draws its coin — bounded resends therefore actually get through at
sub-certain drop rates, exactly like task retries under ``crash``.

How each fault surfaces to the engine:

==================  ======================================================
``drop_frame``      an outbound ``BROADCAST``/``TASK`` frame (or an
                    inbound ``RESULT`` frame) is discarded; the
                    coordinator's resend timer re-sends the task, the
                    worker's result cache answers instantly, and the
                    History stays byte-identical to the serial executor
``duplicate_frame`` the frame's bytes are sent twice back-to-back; the
                    receiver's seq-deduping decoder drops the copy, so
                    this must be (and is, by test) invisible
``delay_frame``     the frame is held for a seeded number of seconds
                    before hitting the socket; absorbed by resend timers
                    and dedupe, visible only in wall-clock
``truncate_frame``  only the first half of the frame's bytes are sent —
                    framing on that connection is destroyed, the worker's
                    decoder raises ``ProtocolError`` and reconnects, and
                    the coordinator synthesizes a retryable
                    ``connection_lost`` task failure for PR 9's policy
``partition``       the (worker, round) link is down in both directions;
                    the worker looks dead, liveness fires, tasks fail as
                    ``connection_lost`` and quorum/retry decide the round
==================  ======================================================
"""

from __future__ import annotations

from typing import List

from repro.fl.faults import CoinRegistry, SeededCoin

__all__ = [
    "NetFaultInjector",
    "DropFrameFault",
    "DuplicateFrameFault",
    "DelayFrameFault",
    "TruncateFrameFault",
    "PartitionFault",
    "available_netfaults",
    "build_netfault",
    "register_netfault",
]


class NetFaultInjector(SeededCoin):
    """Base injector: the seeded coin plus the three transport hooks.

    ``send_plan`` shapes outbound frames (drop/duplicate/delay/truncate),
    ``drop_recv`` discards inbound frames after decode, and ``blocked``
    cuts a link entirely.  Subclasses override exactly one hook.  Keys are
    chosen by the transport/coordinator and always end in an attempt
    counter so re-sends re-draw.
    """

    family = "netfault"

    def send_plan(self, data: bytes, *key) -> "tuple[List[bytes], float]":
        """How one outbound frame actually hits the socket: a list of byte
        chunks (``[]`` drops it, two entries duplicate it, a shortened
        entry truncates it) and a pre-send delay in seconds."""
        return [data], 0.0

    def drop_recv(self, *key) -> bool:
        """Discard one decoded inbound frame (as if it never arrived)."""
        return False

    def blocked(self, *key) -> bool:
        """Is this link partitioned for this key (both directions)?"""
        return False


class DropFrameFault(NetFaultInjector):
    """The frame is lost in flight — outbound frames are not sent, inbound
    ``RESULT`` frames are discarded after decode.  Recovered by resend
    timers + the worker's result cache; byte-identity holds."""

    name = "drop_frame"

    def send_plan(self, data: bytes, *key):
        if self.fires("send", *key):
            return [], 0.0
        return [data], 0.0

    def drop_recv(self, *key) -> bool:
        return self.fires("recv", *key)


class DuplicateFrameFault(NetFaultInjector):
    """The frame's bytes arrive twice.  The second copy carries the same
    ``seq``, so the receiving decoder's dedupe drops it silently."""

    name = "duplicate_frame"

    def send_plan(self, data: bytes, *key):
        if self.fires(*key):
            return [data, data], 0.0
        return [data], 0.0


class DelayFrameFault(NetFaultInjector):
    """The frame is held for a seeded uniform delay before sending.  Only
    wall-clock sees it: resend timers and dedupe absorb any crossings."""

    name = "delay_frame"

    def __init__(self, *, rate: float, seed: int,
                 min_delay_s: float = 0.05, max_delay_s: float = 0.3) -> None:
        super().__init__(rate=rate, seed=seed)
        if not 0.0 <= min_delay_s <= max_delay_s:
            raise ValueError(
                f"need 0 <= min_delay_s <= max_delay_s, got "
                f"[{min_delay_s}, {max_delay_s}]"
            )
        self.min_delay_s = float(min_delay_s)
        self.max_delay_s = float(max_delay_s)

    def send_plan(self, data: bytes, *key):
        if self.fires(*key):
            delay = float(
                self._rng("delay", *key).uniform(self.min_delay_s, self.max_delay_s)
            )
            return [data], delay
        return [data], 0.0


class TruncateFrameFault(NetFaultInjector):
    """Only half the frame's bytes make it out — the connection's framing
    is destroyed mid-stream.  The peer's decoder hits a CRC/magic error,
    closes, and reconnects; the coordinator files ``connection_lost``."""

    name = "truncate_frame"

    def send_plan(self, data: bytes, *key):
        if self.fires(*key):
            return [data[: max(1, len(data) // 2)]], 0.0
        return [data], 0.0


class PartitionFault(NetFaultInjector):
    """The (worker, round) link is down in both directions: nothing the
    coordinator sends arrives and nothing the worker sends is heard.  The
    worker looks dead until the next round's coin clears."""

    name = "partition"

    def blocked(self, *key) -> bool:
        return self.fires(*key)


_NETFAULTS = CoinRegistry("netfault")
register_netfault = _NETFAULTS.register
available_netfaults = _NETFAULTS.available
build_netfault = _NETFAULTS.build


register_netfault("drop_frame", DropFrameFault)
register_netfault("duplicate_frame", DuplicateFrameFault)
register_netfault("delay_frame", DelayFrameFault)
register_netfault("truncate_frame", TruncateFrameFault)
register_netfault("partition", PartitionFault)
