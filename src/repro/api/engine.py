"""The callback-driven FL round engine (Algorithm 1's outer structure).

Each round runs seven named phases::

    sample -> broadcast -> preamble -> local_train -> aggregate -> evaluate -> record

1. **sample** — the sampler picks K clients (line 2);
2. **broadcast** — the server snapshots the payload shipped with the global
   model (e.g. SCAFFOLD's control variate);
3. **preamble** — FedDANE/MimeLite collect full-batch gradients at the global
   model and the server combines them;
4. **local_train** — every selected client trains locally from the global
   weights (lines 3-10), through a pluggable serial or fleet executor;
5. **aggregate** — the server aggregates (line 12) and the strategy
   post-processes;
6. **evaluate** — the global model is scored on the held-out test set (every
   ``eval_every`` rounds and on the last round) by the executor: on the
   serial worker's model, or in shards by the fleet;
7. **record** — a :class:`~repro.fl.types.RoundRecord` is appended to the
   history, including cumulative computation (FLOPs) and communication
   (bytes) — the quantities Tables IV and V report.

:class:`~repro.api.callbacks.Callback` hooks observe the loop between
phases; see that module for the lifecycle.  ``FLConfig.target_accuracy``
is honoured by auto-attaching an
:class:`~repro.api.callbacks.EarlyStopping` callback.

Server modes
------------
One ``run_round`` serves all three server modes.  ``"sync"`` is the
barrier round above; ``"semisync"`` (deadline/buffer rounds, FedBuff-style)
and ``"async"`` (FedAsync-style staleness-decayed mixing) run the same
phases on a virtual clock (:mod:`repro.fl.asyncfl.clock`): a dispatched
client trains eagerly, its finish event is filed at ``now + duration``
(priced by the :class:`~repro.fl.systems.SystemModel` from the update's
measured FLOPs/bytes), and the round drains events in ``(time,
client_id)`` order.  The modes differ in four rules, each a branch inside
a shared phase:

1. **who is dispatched** (sample / local_train) — sync: the sampler's
   selection; semisync: the selection minus clients still busy; async: a
   seeded uniform refill of the idle slots;
2. **when the round closes** (local_train) — sync: when every dispatched
   task resolved; semisync: at ``buffer_size`` arrivals or the deadline
   (waiting for the first arrival if none came); async: at
   ``buffer_size`` arrivals;
3. **how the batch lands** (aggregate) — sync/semisync:
   ``server.apply_updates`` (Eq. 2 plus ``post_aggregate``); async: the
   staleness-decayed mix (reduce-then-mix under a robust rule);
4. **clock and record** (record) — sync: ``system_model.observe`` prices
   the round and ``selected`` is the selection; event modes: each arrival
   advances the virtual clock and ``selected`` lists the arrivals (client-id
   order) with their measured staleness.

Everything else — dispatch, the retry runner, the quorum gate, evaluation,
the record and the callbacks — is one code path.  Determinism: durations
are deterministic per client, event ties break by client id, and the async
refill draws from a seeded :class:`~repro.utils.rng.RngStream` child keyed
by dispatch index, so a fixed seed yields byte-identical histories.

:func:`run_experiment` is the declarative front door.
"""

from __future__ import annotations

import copy
import math
import pickle
import time
from dataclasses import replace
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import Strategy
from repro.data.federated import FederatedData
from repro.fl.asyncfl.clock import Event, EventQueue, VirtualClock
from repro.fl.client import Client
from repro.fl.evaluation import full_batch_gradient
from repro.fl.executor import (
    ClientTaskSpec,
    TaskResult,
    TaskRuntime,
    WorkerSpec,
    build_clients,
    build_round_context,
    make_optimizer,
    make_worker_context,
    registry_model_fn,
)
from repro.fl.faults import TaskFailure
from repro.fl.history import History
from repro.fl.params import as_flat, default_pool, reset_default_pool
from repro.fl.population import ClientDirectory, FlatStateArena, PopulationSampler
from repro.fl.robust.aggregators import robust_aggregate
from repro.fl.sampling import UniformSampler
from repro.fl.server import Server
from repro.fl.types import ClientUpdate, FLConfig, RoundRecord
from repro.models import profile_model
from repro.models.fedmodel import FedModel
from repro.obs import NULL_RECORDER, payload_nbytes
from repro.utils.blas import quiet_blas_threads
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

from repro.api.callbacks import Callback, EarlyStopping, ProgressLogger
from repro.api.registry import build_executor, build_mode
from repro.api.spec import check_knobs, resolve_buffer_size

__all__ = ["Engine", "run_experiment", "make_optimizer"]

_log = get_logger("api.engine")

#: engine snapshot format written by :meth:`Engine.snapshot`.  Format 2:
#: strategy server state holds ``(P,)`` vectors (format 1 held per-layer
#: lists, which the flat server hooks cannot read; restore refuses it).
SNAPSHOT_FORMAT = 2


class Engine:
    """Wire a dataset, a model architecture and a strategy into a round loop.

    Parameters
    ----------
    data:
        Partitioned federated dataset.
    strategy:
        Algorithm instance (see :mod:`repro.algorithms`).
    config:
        Round/optimizer configuration.
    model_name:
        Registry key ("mlp" / "cnn" / "alexnet"); ignored if ``model_fn``.
    model_fn:
        Custom factory ``() -> FedModel``, overriding the registry.
    sampler:
        Client-selection policy; defaults to the paper's uniform K-of-N.
    client_latency_s:
        Optional per-client wall-clock latency (seconds) charged inside
        every client task, emulating device/network time so scheduling
        benchmarks can measure how well a backend overlaps clients.  Zero
        (the default) disables it; it never affects the trained numbers.
    system_model:
        Optional :class:`~repro.fl.systems.SystemModel` pricing each
        synchronous round at the slowest selected client's
        compute + transfer time; when attached, every
        :class:`~repro.fl.types.RoundRecord` carries the cumulative
        simulated clock in ``virtual_time_s`` (the
        ``ExperimentSpec.device_profile`` field builds one from the
        wifi/4g/iot presets).  In sync mode it is purely observational —
        trained numbers are unaffected.  The event-driven modes require one: it prices each
        client task (:meth:`~repro.fl.systems.SystemModel.duration_s`) and
        so decides which updates arrive when.
    callbacks:
        :class:`~repro.api.callbacks.Callback` instances observing the loop.
        If ``config.target_accuracy`` is set and no
        :class:`~repro.api.callbacks.EarlyStopping` is supplied, one is
        attached automatically so the loop actually stops at the target.
    aggregator:
        Optional :class:`~repro.fl.robust.aggregators.RobustAggregator`
        replacing the strategy's weighted-mean ``aggregate`` hook (built
        from ``ExperimentSpec.aggregator`` via the aggregator registry).
        ``None`` keeps the legacy strategy path byte-identical.
    adversary:
        Optional :class:`~repro.fl.robust.adversaries.Adversary`: poisons
        roster clients' datasets at construction and corrupts their uploads
        inside the executor path (built from ``ExperimentSpec.adversary``).
    population:
        Optional :class:`~repro.fl.population.Population`: replaces the
        eager client list with a lazy :class:`ClientDirectory` over a
        virtual id space (id -> data shard ``id % n_shards``), and the
        default sampler with the O(K) :class:`PopulationSampler`.  Memory
        and startup cost become O(touched clients) instead of
        O(population).
    recorder:
        Optional :class:`~repro.obs.Recorder` capturing phase/task spans
        and run metrics (built from ``ExperimentSpec.trace`` /
        ``metrics_out``).  ``None`` (the default) installs the shared
        no-op null recorder: hot-path instrumentation reduces to one
        attribute check and zero allocations.  Purely observational —
        recording never touches RNG state or reduction order, so
        histories are byte-identical with and without it.
    fault_injector:
        Optional :class:`~repro.fl.faults.FaultInjector` failing client
        tasks inside the shared executor path (built from
        ``ExperimentSpec.fault``).  ``None`` injects nothing; the engine
        still screens timeouts and non-finite losses.
    n_workers, executor, mode, buffer_size, deadline_s, async_alpha, \
    async_poly, task_retries, task_timeout_s, quorum_fraction, \
    retry_backoff_base_s, state_mmap_mb:
        The :class:`~repro.api.spec.ExperimentSpec` knobs of the same names
        (their help there is the one description; ``engine_kwargs()`` hands
        them over), checked by :func:`~repro.api.spec.check_knobs` exactly
        as the spec is.  The event modes price every task on
        ``system_model``; the fleet executors need a registry-built model
        (no custom ``model_fn`` closure).
    """

    def __init__(
        self,
        data: FederatedData,
        strategy: Strategy,
        config: FLConfig,
        model_name: str = "cnn",
        model_fn: Optional[Callable[[], FedModel]] = None,
        sampler=None,
        n_workers: int = 1,
        executor: str = "auto",
        client_latency_s: float = 0.0,
        system_model=None,
        callbacks: Iterable[Callback] = (),
        aggregator=None,
        adversary=None,
        population=None,
        state_mmap_mb: Optional[int] = None,
        recorder=None,
        fault_injector=None,
        task_retries: int = 0,
        task_timeout_s: Optional[float] = None,
        quorum_fraction: float = 0.0,
        retry_backoff_base_s: float = 1.0,
        net_options: Optional[Dict[str, Any]] = None,
        mode: str = "sync",
        buffer_size: Optional[int] = None,
        deadline_s: Optional[float] = None,
        async_alpha: float = 0.6,
        async_poly: float = 0.5,
    ) -> None:
        blas = quiet_blas_threads()  # first: a forked worker inherits it
        # Validate before any executor is built: a late raise would leak a
        # spawned worker pool (close() is unreachable from __init__).
        check_knobs(
            dict(vars(config), mode=mode, executor=executor, n_workers=n_workers,
                 buffer_size=buffer_size, deadline_s=deadline_s,
                 async_alpha=async_alpha, async_poly=async_poly,
                 task_retries=task_retries, task_timeout_s=task_timeout_s,
                 quorum_fraction=quorum_fraction,
                 retry_backoff_base_s=retry_backoff_base_s,
                 state_mmap_mb=state_mmap_mb),
            lambda: dict(strategy=strategy, sampler=sampler, aggregator=aggregator,
                         adversary=adversary, fault=fault_injector,
                         system_model=system_model, population=population),
        )
        # What remains are checks on built objects the spec never sees.
        if config.n_clients != data.n_clients:
            raise ValueError(
                f"config.n_clients={config.n_clients} but data has {data.n_clients} shards"
            )
        if mode != "sync" and system_model is None:
            raise ValueError(
                f"mode={mode!r} prices every client task on a system_model; "
                "pass one (ExperimentSpec defaults to the wifi preset)"
            )
        if system_model is not None and len(system_model.profiles) != config.n_clients:
            raise ValueError(
                f"system model covers {len(system_model.profiles)} clients, "
                f"config has {config.n_clients}"
            )
        self.data = data
        self.strategy = strategy
        self.config = config
        self.client_latency_s = float(client_latency_s)
        self._custom_model_fn = model_fn is not None
        self._model_name = model_name
        if model_fn is None:
            model_fn = registry_model_fn(model_name, data.spec, config.seed)
        self._model_fn = model_fn
        canonical = model_fn()
        self.profile = profile_model(canonical)
        self.server = Server(canonical.get_weights(), strategy, config,
                             aggregator=aggregator)
        self.adversary = adversary
        if adversary is not None and adversary.n_clients != config.n_clients:
            raise ValueError(
                f"adversary roster was drawn over {adversary.n_clients} clients, "
                f"config has {config.n_clients}"
            )
        self.population = population
        if population is not None:
            # Lazy roster: clients (and their strategy state) materialize on
            # first touch; nothing here is O(population).  Flat state interns
            # into a heap-then-mmap arena sized by state_mmap_mb.
            self.clients = ClientDirectory(
                population, data, seed=config.seed,
                state_factory=strategy.init_client_state,
                arena=FlatStateArena(
                    threshold_bytes=None if state_mmap_mb is None
                    else int(state_mmap_mb) << 20),
            )
        else:
            self.clients: List[Client] = build_clients(
                data, config.seed, adversary=adversary
            )
            for c in self.clients:
                c.state = strategy.init_client_state(c.id)
        if sampler is not None:
            self.sampler = sampler
        elif population is not None:
            self.sampler = PopulationSampler(
                population, config.clients_per_round, seed=config.seed
            )
        else:
            self.sampler = UniformSampler(
                config.n_clients, config.clients_per_round, seed=config.seed
            )
        opt_name = strategy.local_optimizer or config.optimizer
        self._opt_name = opt_name
        self.make_worker = partial(make_worker_context, model_fn, opt_name, config)
        #: the run's observability sink (shared null recorder when off).
        self.obs = recorder if recorder is not None else NULL_RECORDER
        if self.obs.enabled:
            self.obs.metrics.gauge("fl_blas_thread_timeout_log2", "log2 idle-spin cycles "
                                   "of OpenBLAS threads (0: not set)").set(blas["timeout_log2"])
        self.fault_injector = fault_injector
        self.task_retries = int(task_retries)
        self.task_timeout_s = task_timeout_s
        self.quorum_fraction = float(quorum_fraction)
        self.retry_backoff_base_s = float(retry_backoff_base_s)
        #: network-executor options (bind, fleet, injector, codec, cell_key);
        #: stored before build_executor so the factory can read them.
        self.net_options = net_options
        # Per-round fault bookkeeping, reset by _reset_fault_round().
        self._round_failed: List[int] = []
        self._round_retried: List[int] = []
        self._round_fault_extra_s = 0.0
        self.runtime = TaskRuntime(
            clients=self.clients,
            strategy=strategy,
            config=config,
            fp_flops=float(self.profile.forward_flops),
            global_weights=self.server.plane.tree,
            global_flat=self.server.plane.flat,
            adversary=adversary,
            fault_injector=fault_injector,
            recorder=self.obs,
        )
        self.executor = build_executor(executor, engine=self, n_workers=n_workers)
        self.history = History()
        self.callbacks: List[Callback] = list(callbacks)
        if config.target_accuracy is not None and not any(
            isinstance(cb, EarlyStopping) for cb in self.callbacks
        ):
            self.callbacks.append(EarlyStopping(target_accuracy=config.target_accuracy))
        # Legacy observers called with (updates, global_weights_before_
        # aggregation) every round; superseded by Callback.on_aggregate but
        # kept so existing attach()-style diagnostics keep working.  Same
        # contract as that hook: the weight arrays are live views into the
        # server's flat buffer — consume or copy, don't retain.
        self.update_observers: List = []
        self._stop_reason: Optional[str] = None
        self.system_model = system_model
        #: cumulative simulated clock stamped onto round records; None until
        #: a device/network model observes a round (the event modes read it
        #: off their virtual clock instead).
        self._virtual_time_s: Optional[float] = None
        self.mode = mode
        self.buffer_size = resolve_buffer_size(mode, buffer_size, config.clients_per_round)
        self.deadline_s = deadline_s
        self.async_alpha = float(async_alpha)
        self.async_poly = float(async_poly)
        # Event-mode state: the virtual clock, finish events in flight, the
        # clients training, the arrivals awaiting aggregation.
        self.clock = VirtualClock()
        self.events = EventQueue()
        self._busy: set = set()
        self._buffer: List[Tuple[ClientUpdate, int]] = []
        self._dispatch_seq = 0
        self._dispatch_root = RngStream(config.seed).child("asyncfl", "dispatch")
        #: server version and payload the executor last received: weights
        #: are immutable between aggregations, so one broadcast per version
        #: suffices (the out-of-process broadcast frame is not free).
        self._broadcast_version: Optional[int] = None
        self._broadcast_payload: Optional[Dict] = None
        #: server version at each client's most recent dispatch, the
        #: scheduler-side truth behind the measured xi handed to FedTrip.
        self._last_dispatch_version: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # callback / stop plumbing
    # ------------------------------------------------------------------
    def add_callback(self, callback: Callback) -> "Engine":
        self.callbacks.append(callback)
        return self

    def request_stop(self, reason: str) -> None:
        """Ask the loop to stop once the current round completes.

        The first reason wins; it is recorded on ``history.stop_reason``.
        """
        if self._stop_reason is None:
            self._stop_reason = reason

    @property
    def stop_requested(self) -> bool:
        return self._stop_reason is not None

    def _fire(self, hook: str, *args) -> None:
        for cb in self.callbacks:
            getattr(cb, hook)(self, *args)

    # ------------------------------------------------------------------
    # executor plumbing
    # ------------------------------------------------------------------
    def worker_spec(self) -> WorkerSpec:
        """The picklable recipe an out-of-process worker uses to rebuild
        model, optimizer and clients."""
        if self._custom_model_fn:
            raise ValueError(
                "the worker-process fleet (executor 'process' or 'network', "
                "or 'auto' above one worker) rebuilds models from the registry "
                "and cannot ship a custom model_fn closure across processes; use "
                "a registered model name or executor='serial'"
            )
        return WorkerSpec(
            data=self.data,
            strategy=self.strategy,
            config=self.config,
            model_name=self._model_name,
            opt_name=self._opt_name,
            fp_flops=float(self.profile.forward_flops),
            layout=self.server.plane.layout,
            adversary=self.adversary,
            population=self.population,
            obs_enabled=self.obs.enabled,
            obs_spans=getattr(self.obs, "exporter", None) is not None,
            fault_injector=self.fault_injector,
        )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def _phase_sample(self, round_idx: int) -> List[int]:
        """Phase 1 (rule 1): pick this round's participants — the sampler's
        K clients, or in async mode a seeded uniform draw filling each idle
        slot so ``clients_per_round`` clients keep training (draws keyed by
        the global dispatch index, so replays are exact)."""
        if self.mode != "async":
            return self.sampler.select(round_idx)
        picks: List[int] = []
        while len(self._busy) + len(picks) < self.config.clients_per_round:
            idle = sorted(set(range(self.config.n_clients)) - self._busy - set(picks))
            if not idle:
                break
            rng = self._dispatch_root.child(self._dispatch_seq).generator
            picks.append(int(idle[int(rng.integers(len(idle)))]))
            self._dispatch_seq += 1
        return picks

    def _phase_broadcast(self) -> Dict:
        """Phase 2: the server-side payload shipped with the global model."""
        return self.server.broadcast_payload()

    def _phase_preamble(
        self, selected: List[int], round_idx: int, broadcast: Dict
    ) -> Tuple[Dict, Dict[int, float]]:
        """Phase 3: full-batch gradients at the global model (FedDANE/MimeLite).

        Returns the (possibly refreshed) broadcast payload and the FLOPs
        each preamble client spent.
        """
        if not self.strategy.needs_preamble:
            return broadcast, {}
        worker = self.executor.borrow_worker()
        if worker is None:  # pragma: no cover - constructor already rejects this
            raise RuntimeError("preamble phase requires serial execution")
        payloads: Dict[int, Dict] = {}
        preamble_flops: Dict[int, float] = {}
        for k in selected:
            client = self.clients[k]
            ctx = build_round_context(
                worker, self.runtime, client.id, round_idx, broadcast, client.state
            )
            grad = as_flat(full_batch_gradient(
                worker.model, client.dataset, self.config.eval_batch_size))
            payloads[k] = self.strategy.client_preamble(ctx, grad)
            # full-batch grad = one fwd+bwd pass over the shard (3x forward).
            preamble_flops[k] = 3.0 * client.num_samples * self.profile.forward_flops
        self.server.run_preamble(payloads)
        return self.server.broadcast_payload(), preamble_flops

    def _phase_local_train(
        self,
        selected: List[int],
        round_idx: int,
        broadcast: Dict,
        preamble_flops: Dict[int, float],
    ) -> Tuple[List[ClientUpdate], Optional[List[int]]]:
        """Phase 4: dispatch, train under the retry policy, and close the
        round (rule 2).  Returns the round's updates and, in the event
        modes, each one's measured staleness.

        Sync closes when every task resolved: updates in selection order.
        The event modes file each resolved task as a finish event on the
        virtual clock and close on arrivals (see :meth:`_await_arrivals`).
        """
        if self.mode == "semisync":
            # Stragglers dispatched in earlier rounds are still training.
            selected = [k for k in selected if k not in self._busy]
        resolved = self._run_tasks(
            self._dispatch(selected, round_idx, broadcast, preamble_flops))
        if self.mode != "sync":
            for task, result in resolved:
                self._file_event(task, result)
            batch = self._await_arrivals()
            return [u for u, _ in batch], [stale for _, stale in batch]
        updates_by_client: Dict[int, ClientUpdate] = {}
        for task, result in resolved:
            if result.failure is None:
                # The fleet trained on a copy of the client state;
                # adopt the returned dict so strategy state survives the
                # round trip.
                self._adopt_state(task.client_id, result.state)
                updates_by_client[task.client_id] = result.update
                self._fire("on_client_update", round_idx, result.update)
        return [updates_by_client[k] for k in selected if k in updates_by_client], None

    def _dispatch(
        self,
        client_ids: List[int],
        round_idx: int,
        broadcast: Dict,
        preamble_flops: Dict[int, float],
    ) -> List[ClientTaskSpec]:
        """Hand the global weights + server payload to the backend (once per
        server version) and build one picklable task per client.  The
        server's flat plane is handed over as-is: the serial backend aliases
        it (zero copies) and the out-of-process backend ships it as one
        flat byte run.  The event modes also mark each client busy and
        hand it its measured staleness ``xi`` (server versions since its
        previous dispatch)."""
        if not client_ids:
            return []
        self._broadcast(broadcast)
        if self.obs.enabled:
            # Downlink accounting: each dispatched client adopts the global
            # model once (the executor broadcast is per version).
            self.obs.broadcast_bytes(
                self.server.plane.layout.total_bytes,
                payload_nbytes(broadcast),
                len(client_ids),
            )
        tasks = []
        for k in client_ids:
            xi_measured = None
            if self.mode != "sync":
                previous = self._last_dispatch_version.get(k)
                xi_measured = None if previous is None else float(round_idx - previous)
                self._last_dispatch_version[k] = round_idx
                self._busy.add(k)
            tasks.append(ClientTaskSpec(
                client_id=k,
                round_idx=round_idx,
                state=self.clients[k].state,
                preamble_flops=preamble_flops.get(k, 0.0),
                emulate_seconds=self.client_latency_s,
                xi_measured=xi_measured,
            ))
        return tasks

    def _broadcast(self, payload: Dict) -> None:
        """Hand the server plane and ``payload`` to the backend unless it
        already holds this server version with the same payload (a fleet
        evaluation ships the post-aggregation plane, and the next round's
        dispatch reuses it)."""
        version = self.server.round_idx
        if version == self._broadcast_version and (
                pickle.dumps(payload) == pickle.dumps(self._broadcast_payload)):
            return
        self.executor.broadcast(self.server.plane, payload)
        self._broadcast_version, self._broadcast_payload = version, payload

    def _run_tasks(
        self, tasks: List[ClientTaskSpec]
    ) -> List[Tuple[ClientTaskSpec, TaskResult]]:
        """The retry runner: run ``tasks`` in waves under the failure policy.

        A retryable failure within the budget is re-dispatched in the next
        wave; wave n is preceded by exponential backoff and stretched by
        its slowest injected straggler delay, both priced on the sync
        round's virtual clock (no wall sleep).  Returns every task's final
        attempt in resolution order; a terminal failure's result carries
        it on ``result.failure``.
        """
        resolved: List[Tuple[ClientTaskSpec, TaskResult]] = []
        wave = 0
        while tasks:
            if wave > 0:
                self._round_fault_extra_s += self.retry_backoff_base_s * (2.0 ** (wave - 1))
            retry: List[ClientTaskSpec] = []
            wave_delay = 0.0
            for task, result in zip(tasks, self.executor.run(tasks)):
                if result.obs is not None:
                    # Worker-process shard: merge in task order so the
                    # combined metrics are deterministic.
                    self.obs.absorb(result.obs)
                wave_delay = max(wave_delay, result.fault_delay_s)
                failure = self._screen_result(task, result)
                if failure is not None:
                    if result.state is not None:
                        # Timeout: the device trained (state advanced
                        # on-device) but the report missed the deadline —
                        # adopt the state, discard the update.
                        self._adopt_state(task.client_id, result.state)
                    if failure.retryable and task.attempt < self.task_retries:
                        self._round_retried.append(task.client_id)
                        retry.append(replace(
                            task,
                            state=self.clients[task.client_id].state,
                            attempt=task.attempt + 1,
                        ))
                        continue
                    self._round_failed.append(task.client_id)
                resolved.append((task, result))
            self._round_fault_extra_s += wave_delay
            tasks = retry
            wave += 1
        return resolved

    def _file_event(self, task: ClientTaskSpec, result: TaskResult) -> None:
        """File one resolved task's finish event at ``now + duration + its
        own retry backoff``.  A terminal failure files a *failure marker*:
        its pop frees the client without buffering anything, so stragglers
        and crashes delay only themselves, never the server; the slot was
        held for the base latency (no compute/transfer made it)."""
        backoff_s = 0.0
        for attempt in range(task.attempt):
            backoff_s += self.retry_backoff_base_s * (2.0 ** attempt)
        if result.failure is not None:
            duration = self.system_model.duration_s(task.client_id, 0.0, 0.0)
        else:
            duration = (
                self.system_model.duration_s(
                    task.client_id, result.update.flops, result.update.comm_bytes)
                + result.fault_delay_s
            )
        self.events.push(Event(
            self.clock.now + duration + backoff_s,
            task.client_id,
            payload=(task.round_idx, result),
        ))

    def _await_arrivals(self) -> List[Tuple[ClientUpdate, int]]:
        """Event modes, rule 2: pop arrivals until ``buffer_size`` updates
        are buffered, the semisync deadline passes, or nothing is in
        flight; then drain the buffer in client-id order (cross-mode
        reproducibility) as ``(update, staleness)`` pairs."""
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
            # loop; a fully drained queue means every in-flight task failed
            # terminally and the round degrades to a skip.)
            self._arrive(self.events.pop())
        if (self._buffer and len(self._buffer) < self.buffer_size
                and math.isfinite(deadline) and self.clock.now < deadline):
            # A real deadline cut the round short: the server waited it out.
            # (Without a deadline a short buffer means the sampler offered
            # fewer clients than K — e.g. heavy dropout — and the clock
            # stays at the last arrival; after an extended round the first
            # report already landed past the deadline and the clock must
            # not rewind to it.)
            self.clock.advance_to(deadline)
        batch = sorted(self._buffer, key=lambda arrival: arrival[0].client_id)
        self._buffer.clear()
        return batch

    def _arrive(self, event: Event) -> None:
        """Advance the clock to the event and free its client; a success
        adopts the client's new strategy state and buffers the update with
        its measured staleness (server versions since its dispatch)."""
        self.clock.advance_to(event.time_s)
        version, result = event.payload
        self._busy.discard(event.client_id)
        if result.failure is not None:
            return
        self._adopt_state(event.client_id, result.state)
        self._fire("on_client_update", self.server.round_idx, result.update)
        self._buffer.append((result.update, self.server.round_idx - version))

    def _adopt_state(self, client_id: int, state: Dict) -> None:
        """Land a post-round client state dict.  The lazy directory routes
        it through its arena (stable per-key slots); the eager list simply
        rebinds — both end with byte-equal state values."""
        adopt = getattr(self.clients, "adopt_state", None)
        if adopt is not None:
            adopt(client_id, state)
        else:
            self.clients[client_id].state = state

    # ------------------------------------------------------------------
    # failure policy
    # ------------------------------------------------------------------
    def _reset_fault_round(self) -> None:
        """Clear the per-round fault bookkeeping (called at round start)."""
        self._round_failed = []
        self._round_retried = []
        self._round_fault_extra_s = 0.0

    def _screen_result(self, task: ClientTaskSpec,
                       result: TaskResult) -> Optional[TaskFailure]:
        """The engine side of the failure policy: decide whether one task
        result is usable.

        Injector-made failures arrive ready on ``result.failure``; this
        additionally turns an over-deadline straggler delay into a
        ``"timeout"`` failure and a non-finite training loss into a
        non-retryable ``"nonfinite"`` one (training is deterministic —
        retraining reproduces the divergence, so the retry budget is not
        spent on it).  Every backend screens the same way, so a diverging
        run records the same History on each.
        """
        failure = result.failure
        if failure is None and result.update is not None:
            if (
                self.task_timeout_s is not None
                and result.fault_delay_s > self.task_timeout_s
            ):
                failure = TaskFailure(
                    kind="timeout",
                    client_id=task.client_id,
                    round_idx=task.round_idx,
                    attempt=task.attempt,
                    detail=(
                        f"report took {result.fault_delay_s:.3f}s simulated, "
                        f"deadline {self.task_timeout_s:.3f}s"
                    ),
                )
            elif not math.isfinite(result.update.train_loss):
                failure = TaskFailure(
                    kind="nonfinite",
                    client_id=task.client_id,
                    round_idx=task.round_idx,
                    attempt=task.attempt,
                    retryable=False,
                    detail="non-finite training loss",
                )
            if failure is not None:
                result.failure = failure
        if failure is not None and self.obs.enabled:
            self.obs.metrics.counter(
                "fl_task_failures_total", "client task attempts that failed",
                labels={"kind": failure.kind},
            ).inc()
            if result.flops_wasted:
                self.obs.metrics.counter(
                    "fl_flops_wasted_total",
                    "client FLOPs burned by failed attempts (mid-train crashes)",
                ).inc(result.flops_wasted)
        return failure

    def _quorum_skip_reason(self, n_expected: int, n_updates: int) -> Optional[str]:
        """Why aggregation must be skipped this round, or None to proceed.

        An all-fail round always skips — there is nothing to aggregate;
        fewer than ``quorum_fraction`` of the ``n_expected`` reports skips
        with ``"quorum"`` (quorum 0 is the trivial gate).
        """
        if not n_updates:
            return "no_updates"
        if n_updates < math.ceil(self.quorum_fraction * n_expected):
            return "quorum"
        return None

    def _phase_aggregate(self, round_idx: int, updates: List[ClientUpdate],
                         staleness: Optional[List[int]]) -> None:
        """Phase 5 (rule 3): observers see (updates, pre-aggregation
        weights), then the batch lands — Eq. 2 plus the strategy's
        post-processing, or in async mode the staleness-decayed mix."""
        self._fire("on_aggregate", round_idx, updates, self.server.weights)
        for observer in self.update_observers:
            observer(updates, self.server.weights)
        if self.mode == "async":
            self._mix_async(updates, staleness)
        else:
            self.server.apply_updates(updates)

    def _mix_async(self, updates: List[ClientUpdate], staleness: List[int]) -> None:
        """FedAsync-style mixing: fold each update into the global model in
        turn with weight ``alpha * (1 + staleness)^(-poly)``, in one float64
        accumulator written back to the server's plane once.

        With a robust aggregator the per-update fold becomes
        *reduce-then-mix*: the robust rule reduces the healthy batch to one
        vector (coordinate medians and Krum selection have no sequential
        formulation), and a single mix lands it with the alpha of the
        freshest accepted update — screened clients therefore contribute
        neither values nor mixing weight.
        """
        server = self.server
        server.reset_report()
        # A client is never in flight twice, so client ids are unique per batch.
        healthy_ids = {u.client_id for u in server.partition_finite(updates)}
        healthy = [(u, s) for u, s in zip(updates, staleness) if u.client_id in healthy_ids]
        if not healthy:
            server.skip_round()
            return
        if server.aggregator is None:
            acc = server.plane.flat.astype(np.float64)
            for u, stale in healthy:
                alpha = self.async_alpha * (1.0 + stale) ** (-self.async_poly)
                acc *= 1.0 - alpha
                # cast before scaling so the product is formed in float64
                acc += alpha * u.flat_vector().astype(np.float64)
            server.plane.copy_from_flat(acc)
        else:
            reduced, screened = robust_aggregate(
                server.aggregator, [u for u, _ in healthy], server.plane.flat)
            if screened:
                server.last_screened = screened
                _log.info("round %d: %s screened client(s): %s",
                          server.round_idx, server.aggregator.name, screened)
            # Screening rules always keep >= 1 row (enforced at reduce
            # time), so the minimum is over a non-empty set.
            stale = min(s for u, s in healthy if u.client_id not in set(screened))
            alpha = self.async_alpha * (1.0 + stale) ** (-self.async_poly)
            server.plane.copy_from_flat(
                (1.0 - alpha) * server.plane.flat.astype(np.float64)
                + alpha * reduced.astype(np.float64)
            )
        server.round_idx += 1

    def _phase_evaluate(self, round_idx: int) -> Tuple[Optional[float], Optional[float]]:
        """Phase 6: score the new global model on the held-out test split."""
        evaluate = (
            round_idx % self.config.eval_every == 0 or round_idx == self.config.rounds - 1
        )
        if not evaluate:
            return None, None
        acc, loss = self.evaluate_global()
        self._fire("on_evaluate", round_idx, acc, loss)
        return acc, loss

    def _observe_virtual_time(self, updates: List[ClientUpdate]) -> None:
        """Rule 4's clock: the event modes read their virtual clock; a sync
        round with a system model attached advances the simulated clock by
        its duration (slowest selected client, plus any injected straggler
        delays and retry backoff)."""
        if self.mode != "sync":
            self._virtual_time_s = self.clock.now
            return
        if self.system_model is None:
            return
        self.system_model.observe(
            updates, self.server.weights, extra_s=self._round_fault_extra_s
        )
        self._virtual_time_s = self.system_model.total_seconds()

    def _phase_record(
        self,
        round_idx: int,
        selected: List[int],
        updates: List[ClientUpdate],
        acc: Optional[float],
        loss: Optional[float],
        t0: float,
        update_staleness: Optional[List[int]] = None,
        phase_seconds: Optional[Dict[str, float]] = None,
    ) -> RoundRecord:
        """Phase 7: cost bookkeeping + append the round record.

        The aggregation-health fields come straight off the server's
        per-round report (dropped/screened/skipped); the adversary labels
        intersect this round's participants with the static roster.
        """
        self._observe_virtual_time(updates)
        round_flops = sum(u.flops for u in updates)
        round_comm = sum(u.comm_bytes for u in updates)
        prev = self.history.records[-1] if self.history.records else None
        record = RoundRecord(
            round_idx=round_idx,
            selected=selected,
            test_accuracy=acc,
            test_loss=loss,
            mean_train_loss=(
                float(np.mean([u.train_loss for u in updates]))
                if updates else float("nan")
            ),
            cumulative_flops=(prev.cumulative_flops if prev else 0.0) + round_flops,
            cumulative_comm_bytes=(prev.cumulative_comm_bytes if prev else 0.0) + round_comm,
            wall_seconds=time.perf_counter() - t0,
            virtual_time_s=self._virtual_time_s,
            update_staleness=(
                update_staleness
                if update_staleness is not None
                else ([0] * len(updates) if self._virtual_time_s is not None else None)
            ),
            dropped_clients=list(self.server.last_dropped),
            screened_clients=list(self.server.last_screened),
            adversary_clients=(
                sorted(
                    u.client_id for u in updates
                    if self.adversary.is_adversary(u.client_id)
                )
                if self.adversary is not None else None
            ),
            round_skipped=self.server.last_skipped,
            phase_seconds=phase_seconds,
            failed_clients=sorted(self._round_failed),
            retried_clients=list(self._round_retried),
            skip_reason=self.server.last_skip_reason,
        )
        self.history.append(record)
        if self.obs.enabled:
            self._observe_gauges()
            # Round metrics land before on_round_end so callbacks reading
            # the registry (ProgressLogger) see this round included.
            self.obs.end_round(record)
        self._fire("on_round_end", record)
        return record

    def _observe_gauges(self) -> None:
        """Refresh end-of-round gauges: the population directory's state
        arena (heap vs mmap residency) and the aggregation scratch pool's
        peak shape.  Only called with a live recorder."""
        m = self.obs.metrics
        arena = getattr(self.clients, "arena", None)
        if arena is not None:
            stats = arena.stats()
            m.gauge("fl_arena_heap_bytes",
                    "flat client state resident on the heap").set(stats["heap_bytes"])
            m.gauge("fl_arena_mapped_bytes",
                    "flat client state spilled to mmap'd files").set(stats["mapped_bytes"])
            m.gauge("fl_arena_slots", "interned flat state slots").set(stats["n_slots"])
        rows, cols = default_pool().peak_shape
        if rows:
            m.gauge("fl_matrix_pool_peak_rows",
                    "peak K of pooled (K, P) aggregation scratch").set(rows)
            m.gauge("fl_matrix_pool_peak_cols",
                    "peak P of pooled (K, P) aggregation scratch").set(cols)

    # ------------------------------------------------------------------
    # round loop
    # ------------------------------------------------------------------
    def _end_phase(self, name: str, timings: Dict[str, float], t_start: float,
                   **attrs) -> float:
        """Close the phase opened by ``obs.begin_phase``: stamp its wall
        time into ``timings`` (always — RoundRecord.phase_seconds is not
        opt-in) and emit the span when a recorder is live.  Returns now, so
        callers chain phases without re-reading the clock."""
        now = time.perf_counter()
        timings[name] = now - t_start
        self.obs.end_phase(now - t_start, **attrs)
        return now

    def run_round(self) -> RoundRecord:
        t0 = time.perf_counter()
        obs = self.obs
        round_idx = self.server.round_idx
        obs.begin_round(round_idx)
        self._reset_fault_round()
        timings: Dict[str, float] = {}

        obs.begin_phase("sample")
        selected = self._phase_sample(round_idx)
        self._end_phase("sample", timings, t0, cohort=len(selected))
        self._fire("on_round_start", round_idx, selected)

        t = time.perf_counter()  # callbacks don't bill to any phase
        obs.begin_phase("broadcast")
        broadcast = self._phase_broadcast()
        t = self._end_phase("broadcast", timings, t)

        obs.begin_phase("preamble")
        broadcast, preamble_flops = self._phase_preamble(selected, round_idx, broadcast)
        t = self._end_phase("preamble", timings, t, n_clients=len(preamble_flops))

        obs.begin_phase("local_train")
        updates, staleness = self._phase_local_train(
            selected, round_idx, broadcast, preamble_flops)
        t = self._end_phase("local_train", timings, t, n_updates=len(updates))

        obs.begin_phase("aggregate")
        expected = self.buffer_size if self.mode == "async" else len(selected)
        skip_reason = self._quorum_skip_reason(expected, len(updates))
        if skip_reason is None:
            self._phase_aggregate(round_idx, updates, staleness)
        else:
            # Graceful degradation: keep the global model, record why, and
            # advance the round (apply_updates rejects empty sets, so the
            # aggregate phase is bypassed entirely).
            self.server.reset_report()
            self.server.skip_round(reason=skip_reason)
        t = self._end_phase(
            "aggregate", timings, t,
            dropped=len(self.server.last_dropped),
            screened=len(self.server.last_screened),
        )

        obs.begin_phase("evaluate")
        acc, loss = self._phase_evaluate(round_idx)
        self._end_phase("evaluate", timings, t)

        if self.mode != "sync":
            # Rule 4: an event round records its arrivals.
            selected = [u.client_id for u in updates]
        return self._phase_record(
            round_idx, selected, updates, acc, loss, t0,
            update_staleness=staleness, phase_seconds=timings,
        )

    def run(self, progress: bool = False) -> History:
        """Run the remaining rounds (honouring early stop) and return the
        history; fires ``on_fit_end`` exactly once per call."""
        if progress:
            logger = ProgressLogger()
            self.callbacks.append(logger)
        try:
            while len(self.history) < self.config.rounds and not self.stop_requested:
                self.run_round()
        finally:
            if progress:
                self.callbacks.remove(logger)
        if self._stop_reason is not None:
            self.history.stop_reason = self._stop_reason
            _log.info("[%s] early stop: %s", self.strategy.name, self._stop_reason)
        self._fire("on_fit_end", self.history)
        return self.history

    # ------------------------------------------------------------------
    # crash-safe snapshot / resume
    # ------------------------------------------------------------------
    def _client_state_snapshot(self) -> Dict[int, Dict[str, Any]]:
        snapshot = getattr(self.clients, "state_snapshot", None)
        if snapshot is not None:
            # Lazy directory: only touched clients carry state; untouched
            # ones re-materialize deterministically from their factory.
            return snapshot()
        return {c.id: copy.deepcopy(c.state) for c in self.clients}

    def _require_sync_snapshot(self) -> None:
        if self.mode != "sync":
            raise ValueError(
                "crash-safe snapshot/resume supports mode='sync' only: the "
                "event-driven modes hold in-flight results and virtual-clock "
                "events that a crash necessarily loses"
            )

    def snapshot(self) -> Dict[str, Any]:
        """Everything needed to resume this run byte-identically.

        Covers the mutable run state: global weights, strategy server
        state, per-client strategy state, History, the round counters and
        the virtual clock.  Nothing RNG-shaped is saved *by design* —
        every random draw in the system (sampling, client batching, fault
        coins, adversaries) derives statelessly from ``(seed, purpose,
        round, ...)`` through the RngStream tree, so round N+1's draws are
        identical whether rounds 0..N ran in this process or a dead one.
        Callback-internal state (e.g. ``EarlyStopping`` patience counters)
        is *not* captured — a resumed run re-accumulates it from the
        resume point.  Sync mode only; the event modes raise.
        """
        self._require_sync_snapshot()
        return {
            "format": SNAPSHOT_FORMAT,
            "cell_key": getattr(self, "_cell_key", None),
            "round_idx": self.server.round_idx,
            "skipped_rounds": self.server.skipped_rounds,
            "global_flat": np.array(self.server.flat_weights, copy=True),
            "server_state": copy.deepcopy(self.server.state),
            "client_states": self._client_state_snapshot(),
            "history_records": copy.deepcopy(self.history.records),
            "stop_reason": self._stop_reason,
            "system_round_times": (
                list(self.system_model.round_times)
                if self.system_model is not None else None
            ),
            "virtual_time_s": self._virtual_time_s,
        }

    def restore(self, snapshot: Dict[str, Any]) -> None:
        """Load a :meth:`snapshot` back into a freshly built engine.

        The engine must have been constructed from the same experiment
        (same spec/seed/data) — :func:`run_experiment` enforces that via
        the snapshot's ``cell_key``.  After restoring, :meth:`run`
        continues from the next round exactly as an uninterrupted run
        would have.
        """
        self._require_sync_snapshot()
        fmt = snapshot.get("format")
        if fmt != SNAPSHOT_FORMAT:
            raise ValueError(
                f"unsupported engine snapshot format {fmt!r} "
                f"(this build reads format {SNAPSHOT_FORMAT})"
            )
        if len(self.history):
            raise ValueError("restore() requires a freshly built engine")
        np.copyto(self.server.flat_weights, snapshot["global_flat"])
        self.server.state = copy.deepcopy(snapshot["server_state"])
        self.server.round_idx = int(snapshot["round_idx"])
        self.server.skipped_rounds = int(snapshot["skipped_rounds"])
        for client_id, state in snapshot["client_states"].items():
            self._adopt_state(int(client_id), copy.deepcopy(state))
        for record in snapshot["history_records"]:
            self.history.append(record)
        self._stop_reason = snapshot["stop_reason"]
        if self.system_model is not None and snapshot["system_round_times"] is not None:
            self.system_model.round_times = list(snapshot["system_round_times"])
        self._virtual_time_s = snapshot["virtual_time_s"]
        self._broadcast_version = None  # the plane changed under any broadcast

    # ------------------------------------------------------------------
    # inspection / lifecycle
    # ------------------------------------------------------------------
    def _load_global(self, model: FedModel) -> FedModel:
        """Copy the server's flat weights into ``model``."""
        model.set_weights_flat(self.server.plane.flat)
        return model

    def evaluate_global(self) -> Tuple[float, float]:
        """Accuracy/loss of the current global weights on the test split."""
        test, batch = self.data.test, self.config.eval_batch_size
        if self.executor.borrow_worker() is None and len(test) > batch:
            # The fleet scores the split in shards on its installed
            # broadcast, so ship the post-aggregation plane now.
            self._broadcast(self.server.broadcast_payload())
        return self.executor.evaluate(self.server.plane, test, batch)

    def global_model(self) -> FedModel:
        """A fresh model instance loaded with the current global weights."""
        return self._load_global(self._model_fn())

    def close(self) -> None:
        """Release the executor, observability sinks and scratch memory.

        Idempotent: callbacks and ``with`` blocks may both reach it."""
        if getattr(self, "_closed", False):
            return
        self._closed = True
        # Finalize observability first: derived gauges (rounds/sec) and the
        # metrics exposition file want the run complete but the scratch
        # pool's peak still intact.
        self.obs.close()
        self.executor.close()
        # Release per-experiment scratch: pooled (K, P) matrices would
        # otherwise outlive the experiment on this thread (the shape-keyed
        # pool never shrinks on its own), and a lazy roster's state arena
        # holds mmap chunks open.
        reset_default_pool()
        directory_close = getattr(self.clients, "close", None)
        if directory_close is not None:
            directory_close()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def run_experiment(
    spec,
    callbacks: Iterable[Callback] = (),
    progress: bool = False,
    data: Optional[FederatedData] = None,
    resume_from: Optional[str] = None,
) -> History:
    """Train one :class:`~repro.api.spec.ExperimentSpec` and return its history.

    The declarative front door: builds the data, strategy, config and
    sampler from the spec, resolves ``spec.mode`` through the mode registry
    (``"sync"``, ``"semisync"`` or ``"async"``, all an :class:`Engine`),
    runs the engine to completion (early stop included) and releases the
    executor.  ``data`` optionally supplies a prebuilt dataset equal to
    ``spec.build_data()`` — a cache hook for callers training many methods
    on one partition; the caller is responsible for it actually matching
    the spec's data fields.

    ``resume_from`` names an engine snapshot written by
    :class:`~repro.api.callbacks.Checkpointer` (``engine_state=True``):
    the snapshot is restored into the freshly built engine and training
    continues from the next round, producing a History byte-identical to
    the uninterrupted run.  The snapshot's recorded ``cell_key`` must
    match this spec's — resuming under different experiment parameters is
    an error, not a silent divergence.  Sync mode only (the event-driven
    modes carry in-flight queue state that a crash loses).
    """
    engine = build_mode(
        spec.mode,
        spec=spec,
        data=data if data is not None else spec.build_data(),
        callbacks=callbacks,
    )
    # Stamped onto snapshots so a resume can prove it targets the same
    # experiment cell (the key hashes every behaviour-bearing spec field).
    engine._cell_key = spec.cell_key()
    with engine:
        if resume_from is not None:
            from repro.io.persistence import load_engine_snapshot

            snapshot = load_engine_snapshot(resume_from)
            stored = snapshot.get("cell_key")
            if stored is not None and stored != engine._cell_key:
                raise ValueError(
                    f"snapshot {resume_from!r} was written by experiment cell "
                    f"{stored}, but this spec is cell {engine._cell_key}; "
                    "resume requires the identical experiment"
                )
            engine.restore(snapshot)
        return engine.run(progress=progress)
