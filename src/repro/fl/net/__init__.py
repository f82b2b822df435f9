"""Real-network federation: framed sockets behind the executor API.

The package splits along trust-in-the-wire lines:

* :mod:`~repro.fl.net.frames` — the pure, property-tested codec
  (length-prefixed binary frames, CRC'd headers, seq dedupe);
* :mod:`~repro.fl.net.netfaults` — deterministic seeded wire faults
  (drop / duplicate / delay / truncate / partition);
* :mod:`~repro.fl.net.transport` — one framed, countable, injectable
  channel per TCP connection;
* :mod:`~repro.fl.net.worker` — the client-worker process (forked by the
  executor on a loopback bind, ``python -m repro.fl.net.worker --connect
  host:port`` on a remote host): register, serve rounds, reconnect with
  backoff;
* :mod:`~repro.fl.net.coordinator` — the server plus
  :class:`~repro.fl.net.coordinator.NetworkExecutor`, the one
  out-of-process backend, registered as ``executor: "process"`` (always
  its own loopback fleet) and ``executor: "network"`` (``net_*`` knobs).

Determinism contract: a loopback network run at a fixed seed produces a
History byte-identical to the serial executor — including under injected
frame drops with retries enabled (see ``docs/networking.md``).

Submodule attributes resolve lazily (PEP 562): ``python -m
repro.fl.net.worker`` must not find the worker module pre-imported by its
own package, and importing the pure codec must not drag in sockets.
"""

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-time imports only
    from repro.fl.net.coordinator import CoordinatorServer, NetworkExecutor
    from repro.fl.net.frames import (
        Frame,
        FrameDecoder,
        ProtocolError,
        encode_frame,
        pack_blob_payload,
        unpack_blob_payload,
    )
    from repro.fl.net.netfaults import (
        NetFaultInjector,
        available_netfaults,
        build_netfault,
        register_netfault,
    )
    from repro.fl.net.transport import ChannelClosed, FramedChannel
    from repro.fl.net.worker import WorkerClient

#: upload codecs the network executor knows how to decode.  Lives here, in
#: the socket-free package root, so the spec's validation, the derived CLI
#: ``choices`` and the coordinator all read one tuple.
WIRE_CODECS = ("topk", "quantization")

#: topology defaults, for the same reason: the spec's ``net_*`` fields, the
#: coordinator's and the worker's constructors and the worker CLI read these.
DEFAULT_BIND = "127.0.0.1:0"
DEFAULT_CONNECT_TIMEOUT_S = 20.0
DEFAULT_HEARTBEAT_S = 0.5

_EXPORTS = {
    "CoordinatorServer": "coordinator",
    "NetworkExecutor": "coordinator",
    "Frame": "frames",
    "FrameDecoder": "frames",
    "ProtocolError": "frames",
    "encode_frame": "frames",
    "pack_blob_payload": "frames",
    "unpack_blob_payload": "frames",
    "NetFaultInjector": "netfaults",
    "available_netfaults": "netfaults",
    "build_netfault": "netfaults",
    "register_netfault": "netfaults",
    "ChannelClosed": "transport",
    "FramedChannel": "transport",
    "WorkerClient": "worker",
}

__all__ = sorted([
    *_EXPORTS, "WIRE_CODECS",
    "DEFAULT_BIND", "DEFAULT_CONNECT_TIMEOUT_S", "DEFAULT_HEARTBEAT_S",
])


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
