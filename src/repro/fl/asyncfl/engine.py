"""The event-driven federation engine: async and semi-sync server modes.

:class:`AsyncFLEngine` subclasses :class:`~repro.api.engine.Engine` and
replaces the synchronous barrier of ``run_round`` with a virtual-clock
event loop.  Everything else is inherited: construction, callbacks,
``run()``'s early-stop loop, evaluation, and the record/cost bookkeeping
phases — so async histories read exactly like sync ones, plus
``virtual_time_s`` and ``update_staleness``.

How one "round" (= one aggregation = one ``RoundRecord``) happens:

1. **dispatch** — idle clients are handed the *current* global model and
   trained eagerly through the inherited executor; the finished result is
   filed in the event queue at ``now + duration`` where duration is priced
   by the :class:`~repro.fl.asyncfl.timing.ClientTimingModel` from the
   update's measured FLOPs/bytes.  Semi-sync dispatches the sampler's
   selection (minus still-running stragglers — over-selection happens by
   configuring ``clients_per_round > buffer_size``); async keeps
   ``clients_per_round`` clients training at all times, refilling idle
   slots with a seeded uniform draw.
2. **arrivals** — events pop in ``(time, client_id)`` order; each arrival
   records its *measured staleness* (server versions elapsed since its
   dispatch) and lands in the aggregation buffer.
3. **aggregate** — when the buffer holds ``buffer_size`` updates (FedBuff)
   or the semi-sync deadline expires with at least one arrival, the batch
   is applied.  Semi-sync reuses the strategy's own
   ``aggregate``/``post_aggregate`` via the inherited aggregate phase;
   async mixes each update into the global model with the FedAsync-style
   polynomially decayed weight ``alpha * (1 + staleness)^(-poly)``.
   Batches are applied in client-id order so cross-mode runs are
   bit-reproducible.

Determinism: durations are deterministic per client (device profiles +
seeded heterogeneity), event ties break by client id, and the async
dispatcher draws from a seeded :class:`~repro.utils.rng.RngStream` child
keyed by dispatch index — a fixed seed therefore yields byte-identical
histories on repeated runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

import numpy as np

from repro.algorithms.base import Strategy
from repro.data.federated import FederatedData
from repro.fl.robust.aggregators import robust_aggregate
from repro.fl.asyncfl.clock import Event, EventQueue, VirtualClock
from repro.fl.asyncfl.timing import ClientTimingModel
from repro.fl.executor import ClientTaskSpec, TaskResult
from repro.fl.sampling import UniformSampler
from repro.fl.types import ClientUpdate, FLConfig, RoundRecord
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

from repro.api.engine import Engine

__all__ = ["AsyncFLEngine"]

_log = get_logger("fl.asyncfl")


@dataclass
class _InFlight:
    """What rides an event from dispatch to arrival."""

    result: TaskResult
    version: int          # server version the client trained from
    dispatched_s: float


@dataclass
class _Arrival:
    """A buffered update awaiting aggregation."""

    update: ClientUpdate
    staleness: int        # server versions elapsed between dispatch and arrival
    arrived_s: float


class AsyncFLEngine(Engine):
    """Event-driven engine running the ``"async"`` or ``"semisync"`` mode.

    Parameters (beyond :class:`~repro.api.engine.Engine`'s)
    ----------
    timing:
        Per-client task durations (device profiles + heterogeneity).
    mode:
        ``"semisync"`` — deadline-bounded buffered rounds aggregated with
        the strategy's own aggregation (FedAvg weighting etc.);
        ``"async"`` — staleness-decayed mixing per arriving update.
    buffer_size:
        Aggregate once this many updates arrived (FedBuff's K).  Defaults
        to 1 in async mode and ``clients_per_round`` in semi-sync; must
        not exceed ``clients_per_round`` or the loop could starve.
    deadline_s:
        Semi-sync only: aggregate whatever arrived this many simulated
        seconds after the round's dispatches, even if the buffer is short
        (at least one update is always waited for).  ``None`` waits for
        the full buffer.
    async_alpha / async_poly:
        Async mixing weight ``alpha * (1 + staleness)^(-poly)``.
    engine_kwargs:
        Passed through to :class:`~repro.api.engine.Engine` unchanged,
        except that the knobs only the synchronous loop honours
        (``population``, ``state_mmap_mb``, ``system_model``) must be
        unset.
    """

    def __init__(
        self,
        data: FederatedData,
        strategy: Strategy,
        config: FLConfig,
        timing: ClientTimingModel,
        mode: str = "semisync",
        buffer_size: Optional[int] = None,
        deadline_s: Optional[float] = None,
        async_alpha: float = 0.6,
        async_poly: float = 0.5,
        **engine_kwargs: Any,
    ) -> None:
        # All validation happens before super().__init__ builds the
        # executor — raising afterwards would leak a spawned worker pool.
        if mode not in ("async", "semisync"):
            raise ValueError(f"unknown AsyncFLEngine mode {mode!r}")
        sync_only = [
            name for name in ("population", "state_mmap_mb", "system_model")
            if engine_kwargs.get(name) is not None
        ]
        if sync_only:
            raise ValueError(
                f"{', '.join(sync_only)} apply to mode='sync' only; the "
                "event-driven modes price per-client timings on their own "
                "virtual clock"
            )
        sampler = engine_kwargs.get("sampler")
        if strategy.needs_preamble:
            raise ValueError(
                f"{strategy.name} uses a preamble phase (full-batch gradients "
                "at a synchronized global model), which has no analogue in the "
                "event-driven modes; run it with mode='sync'"
            )
        if mode == "async":
            # Async mixing replaces server aggregation entirely: strategies
            # that maintain server state through aggregate/post_aggregate
            # (SCAFFOLD's c, SlowMo's momentum, FedDyn's h, FedNova, FedBN's
            # masked averaging) would silently train a different algorithm.
            overrides_server = (
                type(strategy).aggregate is not Strategy.aggregate
                or type(strategy).post_aggregate is not Strategy.post_aggregate
            )
            if overrides_server:
                raise ValueError(
                    f"{strategy.name} relies on server-side aggregation hooks, "
                    "which mode='async' replaces with staleness-decayed "
                    "mixing; run it with mode='sync' or mode='semisync'"
                )
            if sampler is not None and not isinstance(sampler, UniformSampler):
                raise ValueError(
                    "mode='async' refills idle clients with a seeded uniform "
                    f"draw and would silently ignore the {type(sampler).__name__}; "
                    "sampler policies apply to mode='sync'/'semisync'"
                )
        if timing.n_clients != config.n_clients:
            raise ValueError(
                f"timing model covers {timing.n_clients} clients, "
                f"config has {config.n_clients}"
            )
        if buffer_size is None:
            buffer_size = 1 if mode == "async" else config.clients_per_round
        if not 1 <= buffer_size <= config.clients_per_round:
            raise ValueError(
                "need 1 <= buffer_size <= clients_per_round (the round could "
                f"otherwise starve): got K={buffer_size} with "
                f"{config.clients_per_round} concurrent clients"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if deadline_s is not None and mode == "async":
            raise ValueError("deadline_s applies to semisync rounds only")
        if not 0 < async_alpha <= 1:
            raise ValueError("async_alpha must be in (0, 1]")
        if async_poly < 0:
            raise ValueError("async_poly must be non-negative")
        super().__init__(data, strategy, config, **engine_kwargs)
        self.timing = timing
        self.mode = mode
        self.buffer_size = int(buffer_size)
        self.deadline_s = deadline_s
        self.async_alpha = float(async_alpha)
        self.async_poly = float(async_poly)
        self.clock = VirtualClock()
        self.events = EventQueue()
        self._busy: set = set()
        self._buffer: List[_Arrival] = []
        self._dispatch_seq = 0
        self._dispatch_root = RngStream(config.seed).child("asyncfl", "dispatch")
        #: server version the executor last received a broadcast for —
        #: weights are immutable between aggregations, so one broadcast per
        #: version suffices (the out-of-process backend's broadcast frame
        #: is not free).
        self._broadcast_version: Optional[int] = None
        #: server version at each client's most recent dispatch — the
        #: scheduler-side truth behind the measured xi handed to FedTrip.
        self._last_dispatch_version: dict = {}

    # ------------------------------------------------------------------
    # dispatch / arrival
    # ------------------------------------------------------------------
    def _dispatch_wave(self, client_ids: List[int]) -> None:
        """Train a wave of clients on the current global model now (eagerly,
        as one executor batch so pooled backends overlap them) and file each
        finish event at ``now + simulated duration``."""
        if not client_ids:
            return
        version = self.server.round_idx
        if self._broadcast_version != version:
            payload = self.server.broadcast_payload()
            self.executor.broadcast(self.server.plane, payload)
            self._broadcast_version = version
            if self.obs.enabled:
                from repro.obs import payload_nbytes

                self._obs_payload_nbytes = payload_nbytes(payload)
        if self.obs.enabled:
            # Downlink accounting: every dispatched client adopts the
            # current global model (the executor broadcast is per version,
            # but each client logically downloads it once per dispatch).
            self.obs.broadcast_bytes(
                self.server.plane.layout.total_bytes,
                getattr(self, "_obs_payload_nbytes", 0),
                len(client_ids),
            )
        tasks = []
        for client_id in client_ids:
            previous = self._last_dispatch_version.get(client_id)
            xi_measured = None if previous is None else float(version - previous)
            self._last_dispatch_version[client_id] = version
            tasks.append(
                ClientTaskSpec(
                    client_id=client_id,
                    round_idx=version,
                    state=self.clients[client_id].state,
                    xi_measured=xi_measured,
                )
            )
            self._busy.add(client_id)
        for task, result in zip(tasks, self.executor.run(tasks)):
            self._file_result(task, result, version)

    def _file_result(self, task: ClientTaskSpec, result: TaskResult,
                     version: int) -> None:
        """Screen one dispatch result under the failure policy, retrying
        eagerly (each retry re-runs the single task through the executor,
        with exponential backoff accumulated onto the client's simulated
        finish time), then file the finish event.

        A terminal failure files a *failure marker* — an event whose
        in-flight result still carries the failure: when it pops, the
        client is freed at the failure's virtual time but nothing is
        buffered, so stragglers/crashes delay only themselves, never the
        server.  Event-time bookkeeping is all virtual; no wall sleeping.
        """
        if result.obs is not None:
            # Worker-process shard, merged in task order.
            self.obs.absorb(result.obs)
        backoff_s = 0.0
        failure = self._screen_result(task, result)
        while failure is not None and failure.retryable and task.attempt < self.task_retries:
            if result.state is not None:
                # Timeout: the device trained; keep its state for the retry.
                self._adopt_state(task.client_id, result.state)
            self._round_retried.append(task.client_id)
            backoff_s += self.retry_backoff_base_s * (2.0 ** task.attempt)
            task = replace(
                task,
                state=self.clients[task.client_id].state,
                attempt=task.attempt + 1,
            )
            result = self.executor.run([task])[0]
            if result.obs is not None:
                self.obs.absorb(result.obs)
            failure = self._screen_result(task, result)
        if failure is not None:
            self._round_failed.append(task.client_id)
            if result.state is not None:
                self._adopt_state(task.client_id, result.state)
            # The worker slot is held for the failed attempt's base latency
            # (no compute/transfer made it) plus any backoff already spent.
            duration = self.timing.duration_s(task.client_id, 0.0, 0.0)
        else:
            duration = (
                self.timing.duration_s(
                    task.client_id, result.update.flops, result.update.comm_bytes
                )
                + result.fault_delay_s
            )
        self.events.push(
            Event(
                self.clock.now + duration + backoff_s,
                task.client_id,
                payload=_InFlight(result, version, self.clock.now),
            )
        )

    def _arrive(self, event: Event) -> bool:
        """Advance the clock to the event and process it: a success adopts
        the client's new strategy state and buffers the update with its
        measured staleness (returns True); a failure marker only frees the
        client (returns False)."""
        self.clock.advance_to(event.time_s)
        inflight: _InFlight = event.payload
        client_id = event.client_id
        self._busy.discard(client_id)
        if inflight.result.failure is not None:
            return False
        self._adopt_state(client_id, inflight.result.state)
        self._fire("on_client_update", self.server.round_idx, inflight.result.update)
        self._buffer.append(
            _Arrival(
                update=inflight.result.update,
                staleness=self.server.round_idx - inflight.version,
                arrived_s=event.time_s,
            )
        )
        return True

    def _refill_async(self) -> List[int]:
        """Keep ``clients_per_round`` clients training: fill idle slots with
        a seeded uniform draw over idle clients (sorted; draws keyed by the
        global dispatch index, so replays are exact), then dispatch the
        picks as one wave."""
        picks: List[int] = []
        while len(self._busy) + len(picks) < self.config.clients_per_round:
            idle = sorted(set(range(self.config.n_clients)) - self._busy - set(picks))
            if not idle:
                break
            rng = self._dispatch_root.child(self._dispatch_seq).generator
            picks.append(int(idle[int(rng.integers(len(idle)))]))
            self._dispatch_seq += 1
        self._dispatch_wave(picks)
        return picks

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def _take_batch(self) -> List[_Arrival]:
        """Drain the buffer in client-id order (cross-mode reproducibility;
        arrival order is preserved on the record via ``arrived_s``)."""
        batch = sorted(self._buffer, key=lambda a: a.update.client_id)
        self._buffer.clear()
        return batch

    def _apply_async(self, round_idx: int, batch: List[_Arrival]) -> None:
        """FedAsync-style mixing: sequentially fold each update into the
        global model with weight ``alpha * (1 + staleness)^(-poly)``.

        Runs on the flat parameter vectors — one float64 accumulator folds
        the whole batch, written back to the server's plane once.

        With a robust aggregator attached the per-update fold is replaced by
        *reduce-then-mix*: the robust rule reduces the healthy batch to one
        vector (coordinate medians and Krum selection have no sequential
        formulation), and a single mix lands it with the alpha of the
        freshest accepted update — screened clients therefore contribute
        neither values nor mixing weight.
        """
        updates = [a.update for a in batch]
        self._fire("on_aggregate", round_idx, updates, self.server.weights)
        for observer in self.update_observers:
            observer(updates, self.server.weights)
        self.server.reset_report()
        # A client is never in flight twice, so client ids are unique per batch.
        healthy_ids = {u.client_id for u in self.server.partition_finite(updates)}
        healthy = [a for a in batch if a.update.client_id in healthy_ids]
        if not healthy:
            self.server.skip_round()
            return
        if self.server.aggregator is not None:
            self._apply_async_robust(healthy)
            return
        acc = self.server.plane.flat.astype(np.float64)
        for a in healthy:
            alpha = self.async_alpha * (1.0 + a.staleness) ** (-self.async_poly)
            acc *= 1.0 - alpha
            # cast before scaling so the product is formed in float64
            acc += alpha * a.update.flat_vector().astype(np.float64)
        self.server.plane.copy_from_flat(acc)
        self.server.round_idx += 1

    def _apply_async_robust(self, healthy: List[_Arrival]) -> None:
        """Reduce-then-mix for robust rules in the async mode (see
        :meth:`_apply_async`); ``healthy`` is non-empty and finite."""
        server = self.server
        new_tree, screened = robust_aggregate(
            server.aggregator,
            [a.update for a in healthy],
            server.weights,
            global_flat=server.plane.flat,
        )
        if screened:
            server.last_screened = screened
            _log.info("round %d: %s screened client(s): %s",
                      server.round_idx, server.aggregator.name, screened)
        accepted = [a for a in healthy if a.update.client_id not in set(screened)]
        # Screening rules always keep >= 1 row (enforced at reduce time),
        # so `accepted` is never empty here.
        stale = min(a.staleness for a in accepted)
        alpha = self.async_alpha * (1.0 + stale) ** (-self.async_poly)
        reduced = np.concatenate(
            [np.asarray(a, np.float64).ravel() for a in new_tree]
        )
        server.plane.copy_from_flat(
            (1.0 - alpha) * server.plane.flat.astype(np.float64) + alpha * reduced
        )
        server.round_idx += 1

    # ------------------------------------------------------------------
    # crash-safe resume: unsupported here
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        raise ValueError(
            "crash-safe snapshot/resume supports mode='sync' only: the "
            "event-driven modes hold in-flight results and virtual-clock "
            "events that a crash necessarily loses"
        )

    def restore(self, snapshot: Dict[str, Any]) -> None:
        raise ValueError(
            "crash-safe snapshot/resume supports mode='sync' only: the "
            "event-driven modes hold in-flight results and virtual-clock "
            "events that a crash necessarily loses"
        )

    # ------------------------------------------------------------------
    # the event-driven round
    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        t0 = time.perf_counter()
        round_idx = self.server.round_idx
        self.obs.begin_round(round_idx)
        self._reset_fault_round()
        timings: Dict[str, float] = {}
        t = t0

        if self.mode == "semisync":
            self.obs.begin_phase("sample")
            selected = self._phase_sample(round_idx)
            t = self._end_phase("sample", timings, t, cohort=len(selected))
            self._fire("on_round_start", round_idx, selected)
            t = time.perf_counter()  # callbacks don't bill to any phase
            self.obs.begin_phase("local_train")
            self._dispatch_wave([k for k in selected if k not in self._busy])
            deadline = (
                self.clock.now + self.deadline_s
                if self.deadline_s is not None else math.inf
            )
            while len(self._buffer) < self.buffer_size:
                event = self.events.pop_until(deadline)
                if event is None:
                    break
                self._arrive(event)
            while not self._buffer and len(self.events):
                # Deadline expired with zero arrivals: production servers
                # extend the round to the first report rather than abort.
                # (Failure markers free clients but don't report, hence the
                # loop; a fully drained queue means every in-flight task
                # failed terminally and the round degrades to a skip.)
                self._arrive(self.events.pop())
            if (self._buffer and len(self._buffer) < self.buffer_size
                    and math.isfinite(deadline) and self.clock.now < deadline):
                # A real deadline cut the round short: the server waited it
                # out.  (Without a deadline a short buffer means the sampler
                # offered fewer clients than K — e.g. heavy dropout — and the
                # clock stays at the last arrival; after an extended round
                # the first report already landed past the deadline and the
                # clock must not rewind to it.)
                self.clock.advance_to(deadline)
            batch = self._take_batch()
            t = self._end_phase(
                "local_train", timings, t,
                arrived=len(batch), virtual_s=self.clock.now,
            )
            self.obs.begin_phase("aggregate")
            skip_reason = self._quorum_skip_reason(
                selected, [a.update for a in batch]
            )
            if skip_reason is None:
                self._phase_aggregate(round_idx, [a.update for a in batch])
            else:
                self.server.reset_report()
                self.server.skip_round(reason=skip_reason)
            t = self._end_phase(
                "aggregate", timings, t,
                n_updates=len(batch), virtual_s=self.clock.now,
            )
        else:  # async
            self.obs.begin_phase("sample")
            selected = self._refill_async()
            t = self._end_phase("sample", timings, t, cohort=len(selected))
            self._fire("on_round_start", round_idx, selected)
            t = time.perf_counter()  # callbacks don't bill to any phase
            self.obs.begin_phase("local_train")
            while len(self._buffer) < self.buffer_size and len(self.events):
                # Failure markers pop without buffering; a drained queue
                # (every in-flight task failed terminally) ends the wait —
                # the freed slots refill with fresh fault draws next round.
                self._arrive(self.events.pop())
            batch = self._take_batch()
            t = self._end_phase(
                "local_train", timings, t,
                arrived=len(batch), virtual_s=self.clock.now,
            )
            self.obs.begin_phase("aggregate")
            skip_reason = None
            if self._policy_active:
                if not batch:
                    skip_reason = "no_updates"
                elif len(batch) < math.ceil(self.quorum_fraction * self.buffer_size):
                    skip_reason = "quorum"
            if skip_reason is None:
                self._apply_async(round_idx, batch)
            else:
                self.server.reset_report()
                self.server.skip_round(reason=skip_reason)
            t = self._end_phase(
                "aggregate", timings, t,
                n_updates=len(batch), virtual_s=self.clock.now,
            )

        self._virtual_time_s = self.clock.now
        self.obs.begin_phase("evaluate")
        acc, loss = self._phase_evaluate(round_idx)
        t = self._end_phase("evaluate", timings, t)
        return self._phase_record(
            round_idx,
            [a.update.client_id for a in batch],
            [a.update for a in batch],
            acc, loss, t0,
            update_staleness=[a.staleness for a in batch],
            phase_seconds=timings,
        )
