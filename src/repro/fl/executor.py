"""Client-round execution backends and the picklable task layer.

An FL round trains K independent clients.  The engine describes each one as
a :class:`ClientTaskSpec` — a plain-data payload (client id, round index,
persistent strategy state, server broadcast blob) that any backend can
execute, including out-of-process ones — and hands the batch to an executor:

* :class:`SerialExecutor` — one worker context, clients trained in order.
  The default, and the only backend that supports the preamble phase.
* :class:`~repro.fl.net.coordinator.NetworkExecutor` — N worker
  *processes* served over framed sockets, with the global weights broadcast
  once per round as one flat byte run (see :mod:`repro.fl.net`).

All backends return results in task order, so a fixed seed produces
byte-identical round records on every backend (verified by tests).  The
executor registry in :mod:`repro.api.registry` resolves backends by name
(``"serial"`` / ``"process"`` / ``"network"``, and ``"auto"`` choosing
between serial and the loopback fleet by worker count).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.base import ClientRoundContext, Strategy
from repro.data.federated import FederatedData
from repro.fl.client import Client, run_client_round
from repro.fl.evaluation import evaluate_model
from repro.fl.faults import FaultInjector, TaskFailure
from repro.fl.params import ParamPlane, WeightLayout
from repro.fl.population import ClientDirectory, Population
from repro.fl.robust.adversaries import Adversary
from repro.fl.types import ClientUpdate, FLConfig
from repro.obs import NULL_RECORDER, WorkerShardRecorder
from repro.models import build_model
from repro.models.fedmodel import FedModel
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD, Adam
from repro.optim.base import Optimizer
from repro.utils.blas import quiet_blas_threads
from repro.utils.rng import RngStream

__all__ = [
    "WorkerContext",
    "WorkerSpec",
    "ClientTaskSpec",
    "TaskResult",
    "TaskRuntime",
    "SerialExecutor",
    "build_clients",
    "build_round_context",
    "build_worker_half",
    "execute_task",
    "make_optimizer",
    "make_worker_context",
    "registry_model_fn",
    "upload_nbytes",
]


def make_optimizer(name: str, model: FedModel, config: FLConfig):
    """Build the local optimizer the paper pairs with each method.

    The model is materialized onto weight/grad planes first and the
    optimizer gets their flat state: the fused ``(P,)`` update path every
    worker context uses.
    """
    model.materialize_flat()
    flat_state = model.flat_state()
    params = model.parameters()
    key = name.lower()
    if key == "sgdm":
        return SGD(params, lr=config.lr, momentum=config.momentum, flat_state=flat_state)
    if key == "sgd":
        return SGD(params, lr=config.lr, momentum=0.0, flat_state=flat_state)
    if key == "adam":
        return Adam(params, lr=config.lr, flat_state=flat_state)
    raise ValueError(f"unknown optimizer {name!r}")


@dataclass
class WorkerContext:
    """Per-worker mutable resources; never shared across threads/processes."""

    model: FedModel
    frozen: FedModel
    optimizer: Optimizer
    criterion: CrossEntropyLoss
    #: scratch arrays strategies reuse across this worker's tasks (handed
    #: to each task as ``ClientRoundContext.workspace``).
    workspace: Dict[str, np.ndarray] = field(default_factory=dict)


def registry_model_fn(model_name: str, data_spec, seed: int) -> Callable[[], FedModel]:
    """The seeded registry model factory the engine and every rebuilt
    worker share."""
    root = RngStream(seed)

    def model_fn() -> FedModel:
        # A fresh child generator per call -> every replica (the engine's
        # canonical model, each worker's pair) gets the same deterministic
        # initial weights.
        return build_model(
            model_name,
            data_spec.input_shape,
            data_spec.num_classes,
            rng=root.child("model-init").generator,
        )

    return model_fn


def make_worker_context(
    model_fn: Callable[[], FedModel], opt_name: str, config: FLConfig
) -> WorkerContext:
    """One worker's model / frozen twin / optimizer / criterion."""
    model = model_fn()
    frozen = model_fn()
    frozen.eval()
    # Handing the model (not its parameter list) re-homes it onto
    # weight/grad planes and gives the optimizer the fused flat
    # update path; see repro.fl.params.materialize_parameters.
    return WorkerContext(
        model, frozen, make_optimizer(opt_name, model, config), CrossEntropyLoss()
    )


def build_clients(
    data: FederatedData,
    seed: int,
    population: Optional[Population] = None,
    adversary: Optional[Adversary] = None,
):
    """The stateless client roster: an eager list (one :class:`Client` per
    data shard, poisoned by ``adversary`` when set) or, with a
    ``population``, a lazy :class:`~repro.fl.population.ClientDirectory`
    whose clients materialize on first touch.  Deterministic, so the engine
    and every rebuilt worker see identical shards."""
    if population is not None:
        return ClientDirectory(population, data, seed=seed)
    clients = [Client(k, data.client_dataset(k), seed=seed) for k in range(data.n_clients)]
    if adversary is not None:
        adversary.poison_clients(clients, data.spec.num_classes)
    return clients


@dataclass
class ClientTaskSpec:
    """One client's work order for one round — plain data, picklable.

    ``state`` is the client's persistent strategy state (historical model,
    control variates, ...): the executor hands it to the strategy hooks and
    returns the (possibly replaced) dict on the :class:`TaskResult`, which
    is how state round-trips across process boundaries.  The server's
    round broadcast payload is deliberately *not* part of the task — it is
    shipped once per round through ``executor.broadcast`` (so the
    out-of-process backend never pickles it per client).  ``emulate_seconds`` optionally
    charges a wall-clock sleep per task, modelling device/network latency
    (see :mod:`repro.fl.systems`) so scheduling benchmarks can measure
    backend overlap independently of raw FLOPs.  ``xi_measured`` is the
    scheduler-observed staleness of this client (server versions since its
    last dispatch) when an event-driven mode runs the round; ``None`` in
    the synchronous mode, where staleness is round arithmetic.
    ``attempt`` counts retries of this task under the engine's failure
    policy (0 = first dispatch); the fault injector keys its coin on it,
    so a retried task re-draws its fate deterministically.
    """

    client_id: int
    round_idx: int
    state: Dict[str, Any]
    preamble_flops: float = 0.0
    emulate_seconds: float = 0.0
    xi_measured: Optional[float] = None
    attempt: int = 0


@dataclass
class TaskResult:
    """What an executor returns per task: the update + the new client state.

    ``obs`` is an out-of-process worker's drained observability shard (span
    records + metric deltas, plain picklable dicts) when the run has
    tracing/metrics enabled; ``None`` otherwise and for in-process
    backends, which record straight into the engine's recorder.

    A *failed* task carries a :class:`~repro.fl.faults.TaskFailure` in
    ``failure`` instead of a usable update: ``update`` is then ``None``
    (or, for corruption faults, the mangled payload kept for inspection —
    never aggregated) and ``state`` is ``None`` when the client's state was
    never touched.  ``fault_delay_s`` is a straggler injector's extra
    simulated report latency (virtual clock only — no wall sleep);
    ``flops_wasted`` is compute burned by a mid-train crash, surfaced
    through obs but never billed to the cost model.
    """

    update: Optional[ClientUpdate]
    state: Optional[Dict[str, Any]]
    obs: Optional[Dict[str, Any]] = None
    failure: Optional[TaskFailure] = None
    fault_delay_s: float = 0.0
    flops_wasted: float = 0.0


@dataclass
class TaskRuntime:
    """Everything a backend needs to turn a :class:`ClientTaskSpec` into a
    :class:`TaskResult`.

    In-process executors share the engine's runtime (``global_weights``,
    ``global_flat`` and ``server_broadcast`` are rebound by
    :meth:`SerialExecutor.broadcast` each round); each out-of-process worker
    builds its own from the picklable :class:`WorkerSpec`, with
    ``global_weights``/``global_flat`` pointing at read-only views of its
    broadcast buffer and ``server_broadcast``
    refreshed once per round from the ``BROADCAST`` frame.
    """

    #: client roster, indexed by client id.  Either the engine's eager list
    #: or a lazy :class:`~repro.fl.population.ClientDirectory` (population
    #: mode) — backends only ever do ``clients[client_id]``, which both
    #: support (the directory materializes on first touch, thread-safely).
    clients: Sequence[Client]
    strategy: Strategy
    config: FLConfig
    fp_flops: float
    global_weights: List[np.ndarray]
    #: the same global weights as one ``(P,)`` vector (aliasing
    #: ``global_weights``); workers adopt each broadcast with one flat copy.
    global_flat: np.ndarray
    server_broadcast: Dict[str, Any] = field(default_factory=dict)
    #: optional :class:`~repro.fl.robust.adversaries.Adversary` corrupting
    #: roster clients' uploads inside :func:`execute_task` — the one code
    #: path every backend shares, so the attack composes identically with
    #: the serial and fleet executors and sync/semisync/async modes.
    adversary: Optional[Adversary] = None
    #: optional :class:`~repro.fl.faults.FaultInjector` failing tasks at the
    #: same choke point — also shared by every backend, so a fixed seed
    #: produces the identical failure pattern on all of them.
    fault_injector: Optional[FaultInjector] = None
    #: True only inside a worker process its executor spawned and will
    #: replace (see ``build_worker_half``); lets the worker-death fault
    #: actually kill the process there while every other backend
    #: synthesizes the equivalent failure.
    in_pool_worker: bool = False
    #: observability sink for per-task spans/metrics (see :mod:`repro.obs`).
    #: The serial backend shares the engine's recorder; each
    #: out-of-process worker gets its own shard recorder whose output
    #: pickles home on the task result.  Defaults to the no-op null recorder, which
    #: hot-path call sites skip with a single attribute check.
    recorder: Any = NULL_RECORDER


@dataclass
class WorkerSpec:
    """Everything an out-of-process worker needs to rebuild its half of
    the engine.

    Must stay picklable: it crosses the boundary once per registration,
    inside the ``WELCOME`` frame.  Transport-only values (heartbeat
    cadence, upload codec, ``cell_key``) travel beside it, not in it.
    """

    data: FederatedData
    strategy: Strategy
    config: FLConfig
    model_name: str
    opt_name: str
    fp_flops: float
    #: the engine's weight-plane layout: workers view their broadcast
    #: buffer (the BROADCAST frame's bytes) through it.
    layout: WeightLayout
    #: optional Byzantine adversary — picklable by construction (holds only
    #: plain numbers and its roster tuple); workers re-apply its data
    #: poisoning to their locally rebuilt clients.
    adversary: Optional[Adversary] = None
    #: optional virtual population — pure arithmetic (size, n_shards), so
    #: pickling it is free; workers rebuild a lazy ClientDirectory over it
    #: instead of an eager client list.  Client state still travels with
    #: each task, so worker-side directories only serve shards and RNG.
    population: Optional[Population] = None
    #: observability (repro.obs): when true, each worker builds a
    #: WorkerShardRecorder whose per-task metric deltas (and, with
    #: obs_spans, span records) pickle home on every TaskResult; the engine
    #: absorbs them in task order so merged metrics are deterministic.
    obs_enabled: bool = False
    obs_spans: bool = False
    #: optional deterministic fault injector (repro.fl.faults) — stateless
    #: (seed + name + kwargs), so pickling ships the exact coin streams the
    #: serial backend draws from.
    fault_injector: Optional[FaultInjector] = None


def build_worker_half(
    spec: WorkerSpec, buf, *, in_pool_worker: bool
) -> Tuple[WorkerContext, TaskRuntime]:
    """Rebuild model, optimizer, clients and task runtime from ``spec``
    with the engine's seeded RNG streams, so a fixed seed yields
    byte-identical results no matter which worker served a task.

    ``buf`` is where the worker lands the round broadcast (a local
    bytearray); the runtime reads the global weights through read-only
    views of it.  ``in_pool_worker`` is True only inside a worker process
    its executor spawned and will replace, where the worker-death fault
    may really kill the hosting process; a worker started by hand passes
    False and *synthesizes* that failure (like serial) — nobody
    respawns it, so a real exit would permanently shrink the fleet and
    break cross-backend byte-identity.
    """
    quiet_blas_threads()  # a spawn-started or remote worker has not run it yet
    layout = spec.layout
    model_fn = registry_model_fn(spec.model_name, spec.data.spec, spec.config.seed)
    worker = make_worker_context(model_fn, spec.opt_name, spec.config)
    runtime = TaskRuntime(
        # No state factory for a lazy roster — strategy state arrives with
        # each task and returns with its result.
        clients=build_clients(
            spec.data, spec.config.seed, spec.population, spec.adversary
        ),
        strategy=spec.strategy,
        config=spec.config,
        fp_flops=spec.fp_flops,
        global_weights=layout.views(buf, writeable=False),
        global_flat=layout.flat_view(buf, writeable=False),
        adversary=spec.adversary,
        fault_injector=spec.fault_injector,
        in_pool_worker=in_pool_worker,
    )
    if spec.obs_enabled:
        runtime.recorder = WorkerShardRecorder(with_spans=spec.obs_spans)
    return worker, runtime


def build_round_context(
    worker: WorkerContext,
    runtime: TaskRuntime,
    client_id: int,
    round_idx: int,
    broadcast: Dict[str, Any],
    state: Dict[str, Any],
    xi_measured: Optional[float] = None,
) -> ClientRoundContext:
    """Load the global weights into the worker model and assemble the
    per-client round context every strategy hook receives.

    Broadcast adoption is one ``np.copyto`` of the flat vector into the
    worker model's weight plane."""
    client = runtime.clients[client_id]
    flat = runtime.global_flat
    worker.model.set_weights_flat(flat)
    return ClientRoundContext(
        client_id=client.id,
        round_idx=round_idx,
        global_weights=runtime.global_weights,
        model=worker.model,
        frozen=worker.frozen,
        optimizer=worker.optimizer,
        criterion=worker.criterion,
        config=runtime.config,
        state=state,
        rng_source=functools.partial(client.round_rng, round_idx),
        n_samples=client.num_samples,
        fp_flops_per_sample=runtime.fp_flops,
        server_broadcast=dict(broadcast),
        xi_measured=xi_measured,
        global_flat=flat,
        workspace=worker.workspace,
    )


def upload_nbytes(update: ClientUpdate) -> int:
    """Actual bytes an update puts on the (simulated) uplink: the flat
    weight vector plus any ndarray extras.  Distinct from the cost model's
    ``comm_bytes`` (which prices a whole round trip per the paper)."""
    total = int(update.flat_vector().nbytes)
    for value in update.extras.values():
        if isinstance(value, np.ndarray):
            total += int(value.nbytes)
    return total


def execute_task(task: ClientTaskSpec, worker: WorkerContext, runtime: TaskRuntime) -> TaskResult:
    """Run one client task on one worker context (any backend, any process).

    When the runtime carries an adversary and this client is on its roster,
    the honest update is corrupted *here*, at upload time — after local
    training, before the result leaves the worker — so every backend and
    server mode sees the identical crafted update.

    This is also the observability choke point: with a live recorder on
    the runtime, every backend's tasks emit the same per-client span and
    metric updates.  The disabled path is one attribute check — no timer,
    no allocations.
    """
    recorder = runtime.recorder
    t_start = time.perf_counter() if recorder.enabled else 0.0
    injector = runtime.fault_injector
    fault_fires = injector is not None and injector.fires(
        task.client_id, task.round_idx, task.attempt
    )
    if fault_fires:
        failed = injector.pre_train(task, runtime)
        if failed is not None:
            # Crash-style fault: no training happened, no state changed —
            # the same no-op on the in-place serial backend and the
            # copy-shipping out-of-process backend, which is what keeps
            # retries byte-identical across them.
            return failed
    if task.emulate_seconds > 0.0:
        time.sleep(task.emulate_seconds)
    client = runtime.clients[task.client_id]
    ctx = build_round_context(
        worker, runtime, task.client_id, task.round_idx,
        runtime.server_broadcast, task.state, xi_measured=task.xi_measured,
    )
    update = run_client_round(client, runtime.strategy, ctx)
    update.flops += task.preamble_flops
    adversary = runtime.adversary
    if adversary is not None and adversary.is_adversary(task.client_id):
        update = adversary.corrupt_update(
            update, task.round_idx, runtime.global_flat, runtime.global_weights
        )
    if recorder.enabled:
        recorder.client_task(
            client_id=task.client_id,
            round_idx=task.round_idx,
            dur_s=time.perf_counter() - t_start,
            n_samples=update.num_samples,
            flops=update.flops,
            bytes_up=upload_nbytes(update),
            staleness=task.xi_measured,
        )
    result = TaskResult(update=update, state=ctx.state)
    if fault_fires:
        # Straggler-style fault: training was honest, only the simulated
        # report time stretches.  Whether the delay becomes a timeout
        # failure is the engine's policy call, not the worker's.
        result.fault_delay_s = injector.delay_s(task)
    return result


class SerialExecutor:
    """Run client tasks one after another on a single worker context,
    pointed at each round's broadcast through the engine's
    :class:`TaskRuntime`."""

    name = "serial"

    def __init__(
        self,
        make_worker: Callable[[], WorkerContext],
        runtime: Optional[TaskRuntime] = None,
    ) -> None:
        self._worker = make_worker()
        self.runtime = runtime

    @property
    def n_workers(self) -> int:
        return 1

    def _require_runtime(self) -> TaskRuntime:
        if self.runtime is None:
            raise RuntimeError("executor was constructed without a TaskRuntime")
        return self.runtime

    def broadcast(self, plane: ParamPlane,
                  payload: Optional[Dict[str, Any]] = None) -> None:
        """Point this round's tasks at the server's global weight plane and
        server broadcast payload (no copies)."""
        runtime = self._require_runtime()
        runtime.global_weights = plane.tree
        runtime.global_flat = plane.flat
        runtime.server_broadcast = payload if payload is not None else {}

    def borrow_worker(self) -> Optional[WorkerContext]:
        """The resident worker context, for out-of-band single-threaded work
        (preamble passes).  Serial execution has exactly one; callers must
        not hold it across ``run()`` calls."""
        return self._worker

    def evaluate(self, plane: ParamPlane, dataset, batch_size: int) -> Tuple[float, float]:
        """``(accuracy_percent, mean_loss)`` of ``plane`` on ``dataset``,
        scored on the resident worker's model."""
        model = self._worker.model
        model.set_weights_flat(plane.flat)
        return evaluate_model(model, dataset, batch_size)

    def run(self, tasks: Sequence[ClientTaskSpec]) -> List[TaskResult]:
        runtime = self._require_runtime()
        return [execute_task(t, self._worker, runtime) for t in tasks]

    def close(self) -> None:  # symmetry with the fleet backend
        pass
