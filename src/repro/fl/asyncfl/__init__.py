"""The virtual clock behind the asynchronous / semi-synchronous modes.

The synchronous loop measures progress in *rounds*; real federations run
on *time*.  :mod:`repro.fl.asyncfl.clock` simulates that time
deterministically: a virtual clock plus an event queue of client-finish
events, ordered by ``(time, client_id, seq)`` so replays are exact (ties
broken by client id, never by heap internals).

The round loop that drives it is :class:`repro.api.engine.Engine` itself:
``mode="semisync"`` (deadline/buffer rounds, FedBuff-style) and
``mode="async"`` (staleness-decayed mixing, FedAsync-style) file each
dispatched task as a finish event priced by
:meth:`repro.fl.systems.SystemModel.duration_s` and close a round on
arrivals instead of a barrier.  Staleness there is *measured* (server
versions elapsed between dispatch and arrival), which is exactly the
quantity FedTrip's ``xi`` approximates by round arithmetic in the
synchronous loop.
"""

from repro.fl.asyncfl.clock import Event, EventQueue, VirtualClock

__all__ = [
    "Event",
    "EventQueue",
    "VirtualClock",
]
