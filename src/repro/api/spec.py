"""One declarative, hashable description of a training run.

:class:`ExperimentSpec` is the single source of truth the CLI, the sweep
grid and the benchmark harness all construct and hand to
:func:`~repro.api.engine.run_experiment`.  It is frozen (usable as a dict
key, safe to share across threads), serializable (``to_dict`` /
``from_dict`` round-trip through JSON), and content-addressed
(:meth:`cell_key` is a stable hash suitable for run caches and experiment
stores).
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields, replace
from types import SimpleNamespace
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms import STRATEGY_CLASSES, available_strategies, build_strategy
from repro.algorithms.base import Strategy
from repro.algorithms.registry import check_overrides
from repro.data import available_datasets, build_federated_data, get_spec
from repro.data.partition import check_n_clusters
from repro.fl import net
from repro.fl.faults import FaultInjector, available_faults, build_fault
from repro.fl.net import WIRE_CODECS
from repro.fl.net.netfaults import available_netfaults, build_netfault
from repro.fl.robust import (
    available_adversaries,
    available_aggregators,
    build_adversary,
    build_aggregator,
)
from repro.fl.sampling import UniformSampler
from repro.fl.systems import NETWORK_PRESETS, SystemModel
from repro.fl.types import FLConfig
from repro.io.persistence import ExperimentStore
from repro.models import available_models

from repro.api.registry import (
    available_executors,
    available_modes,
    available_samplers,
    build_sampler,
    runs_on_fleet,
)

__all__ = ["ExperimentSpec", "check_knobs", "resolve_buffer_size"]

Pairs = Union[Tuple[Tuple[str, Any], ...], Mapping[str, Any]]


def _canon_value(value: Any) -> Any:
    """Lists/tuples become (nested) tuples so the spec stays hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_canon_value(v) for v in value)
    return value


def _as_pairs(value: Pairs, name: str) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a mapping or pair-tuple to a sorted, hashable pair-tuple."""
    items = dict(value)
    for key in items:
        if not isinstance(key, str):
            raise TypeError(f"{name} keys must be strings, got {key!r}")
    return tuple(sorted((k, _canon_value(v)) for k, v in items.items()))


def _knob(
    default: Any,
    group: str,
    help: str,
    *,
    cli: Union[bool, Tuple[str, ...]] = True,
    choices: Union[None, Sequence[str], Callable[[], Sequence[str]]] = None,
    metavar: Optional[str] = None,
    domain: Optional[str] = None,
    kv: bool = False,
    topology: bool = False,
    engine: bool = False,
    switch: Optional[Dict[str, str]] = None,
) -> Any:
    """Declare one experiment knob — the only place it is ever spelled.

    Everything that used to re-list fields loops over this metadata
    instead (see "Adding a knob" in ``docs/api.md``):

    ``help``      the field's documentation *and* its ``--help`` text.
    ``group``     which subsystem the knob configures; a group with an entry
                  in ``_GROUP_GUARDS`` (and a field with one in
                  ``_FIELD_GUARDS``) rejects a set value while that
                  subsystem is off.
    ``cli``       ``True`` derives the flag from the field name
                  (``--task-retries``; ``--fault-arg`` for a ``kv`` field),
                  a tuple spells the flag(s) out, ``False`` keeps the knob
                  library-only.
    ``choices``   valid names: a sequence, or a registry's ``available_*``
                  function read when the parser is built and when a spec is
                  validated.
    ``metavar``   the flag's value placeholder in ``--help``.
    ``domain``    a key of ``_DOMAINS`` the value (when not None) must lie
                  in; the key doubles as the error text ("must be ...").
    ``kv``        a KEY=VALUE mapping: canonicalized to a sorted pair-tuple,
                  serialized as a dict, repeatable on the command line.
    ``topology``  where a run executes or writes, never what it computes:
                  excluded from :meth:`ExperimentSpec.cell_key`.
    ``engine``    handed to the engine constructor under its own name
                  (:meth:`ExperimentSpec.engine_kwargs`).
    ``switch``    this knob names an optional component configured by a
                  ``<name>_kwargs`` field and (optionally) a ``rate`` field;
                  see :func:`_check_switch`.
    """
    return field(default=default, metadata={
        "help": help, "group": group, "cli": cli, "choices": choices,
        "metavar": metavar, "domain": domain, "kv": kv, "topology": topology,
        "engine": engine, "switch": switch,
    })


#: numeric domains a knob can declare; spelled the way the error reads.
_DOMAINS: Dict[str, Callable[[Any], bool]] = {
    "positive": lambda v: v > 0,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
    "in (0, 1]": lambda v: 0.0 < v <= 1.0,
}

#: A guard is (does the knob act in this run?, the error for setting it
#: while it does not).  A knob that silently does nothing would change the
#: experiment the user believes they ran (same philosophy as from_dict's
#: unknown-key rejection), so inapplicable fields are errors, not no-ops.
#: Messages format with ``name`` (the field), ``names`` (its group's
#: fields), ``value`` and the predicate's arguments.

#: group -> (predicate over the knobs ``v``, error) for every knob of it.
_GROUP_GUARDS: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "event": (
        lambda v: v.mode != "sync",
        "{names} apply to the event-driven modes; set mode='semisync' or 'async'",
    ),
    "async": (
        lambda v: v.mode == "async",
        "{names} apply to mode='async' only (the staleness-decayed mix)",
    ),
    "net": (
        lambda v: v.executor == "network",
        "{name} applies to the network executor; set executor='network'",
    ),
}

#: field -> (predicate over the knobs ``v`` and the built parts ``p`` of
#: :func:`check_knobs`, error) for that one knob.
_FIELD_GUARDS: Dict[str, Tuple[Callable[[Any, Any], bool], str]] = {
    "alpha": (lambda v, p: v.partition == "dirichlet",
              "alpha is the Dirichlet concentration; set partition='dirichlet'"),
    "n_clusters": (lambda v, p: v.partition == "orthogonal",
                   "n_clusters counts orthogonal clusters; set partition='orthogonal'"),
    "optimizer": (lambda v, p: p.strategy.local_optimizer in (None, v.optimizer),
                  "{p.strategy.name} pins its local optimizer to {p.optimizer!r}, "
                  "so optimizer={value!r} would do nothing"),
    "momentum": (lambda v, p: p.optimizer == "sgdm",
                 "momentum applies to the 'sgdm' local optimizer only; this run "
                 "trains with {p.optimizer!r}"),
    "n_workers": (lambda v, p: v.executor != "serial",
                  "executor='serial' trains on one worker context, so n_workers="
                  "{value} would do nothing; use executor='process' for a fleet of "
                  "worker processes"),
    "heterogeneity": (lambda v, p: v.mode != "sync" or v.device_profile is not None,
                      "heterogeneity scales a device profile's compute speeds; sync "
                      "mode without device_profile has no profile to spread"),
    "deadline_s": (lambda v, p: v.mode != "async",
                   "deadline_s applies to semisync rounds only"),
    "task_retries": (lambda v, p: p.fleet or p.fails_tasks,
                     "task_retries re-dispatches failed tasks, and nothing in this "
                     "run fails one: set a fault that does (e.g. fault='crash'), or "
                     "run on the fleet, where a lost connection is retried"),
    "retry_backoff_base_s": (lambda v, p: p.fleet or (v.task_retries > 0 and p.clock),
                             "retry_backoff_base_s prices retries on the virtual "
                             "clock: set task_retries and a device_profile or an "
                             "event-driven mode, or run on the fleet, whose "
                             "workers also pace reconnects with it"),
    "task_timeout_s": (lambda v, p: p.delays_reports,
                       "task_timeout_s measures injected report delays; without a "
                       "fault that delays reports no task can ever exceed it — set "
                       "fault= (e.g. 'straggler')"),
    "state_mmap_mb": (lambda v, p: p.population is not None,
                      "state_mmap_mb budgets the population directory's state "
                      "arena; set population_size"),
}

#: the rules across knobs and built parts: (is it broken?, error).
_RULES: Tuple[Tuple[Callable[[Any, Any], bool], str], ...] = (
    (lambda v, p: p.fault is not None and not (p.fails_tasks or p.clock),
     "fault={p.fault.name!r} only delays reports, and nothing in this run reads "
     "a delay: set task_timeout_s, a device_profile or an event-driven mode"),
    (lambda v, p: p.population is not None and (
        v.mode != "sync" or p.adversary is not None or p.system_model is not None),
     "population mode runs synchronous rounds and does not compose with "
     "adversaries or device profiles: each enumerates the fleet per client id"),
    (lambda v, p: p.strategy.needs_preamble and v.mode != "sync",
     "{p.strategy.name} uses a preamble phase (full-batch gradients at a "
     "synchronized global model), which has no analogue in the event-driven "
     "modes; run it with mode='sync'"),
    (lambda v, p: p.strategy.needs_preamble and p.fleet,
     "{p.strategy.name} uses a preamble phase, which needs the serial backend's "
     "resident worker; run with executor='serial' (got executor={v.executor!r}, "
     "n_workers={v.n_workers})"),
    (lambda v, p: p.buffer is not None and p.buffer > v.clients_per_round,
     "need 1 <= buffer_size <= clients_per_round (the round could otherwise "
     "starve): got K={p.buffer} with {v.clients_per_round} concurrent clients"),
    (lambda v, p: p.aggregator is not None and p.own_aggregate,
     "robust aggregator {p.aggregator.name!r} would silently override "
     "{p.strategy.name}.aggregate; robust aggregation composes only with "
     "strategies that use the default weighted mean"),
    # Async mixing replaces server aggregation entirely: strategies that
    # override aggregate/post_aggregate (SCAFFOLD's c, SlowMo's momentum,
    # FedDyn's h, FedNova's normalized average, AdaptiveFedTrip's mu
    # schedule) would silently train a different algorithm.
    (lambda v, p: v.mode == "async" and p.server_hooks,
     "{p.strategy.name} relies on server-side aggregation hooks, which "
     "mode='async' replaces with staleness-decayed mixing; run it with "
     "mode='sync' or mode='semisync'"),
    (lambda v, p: v.mode == "async" and p.sampler is not None
     and not isinstance(p.sampler, UniformSampler),
     "mode='async' refills idle clients with a seeded uniform draw and would "
     "silently ignore the {p.sampler.__class__.__name__}; sampler policies "
     "apply to mode='sync'/'semisync'"),
)


@dataclass(frozen=True)
class ExperimentSpec:
    """A fully specified (dataset, partition, model, method, loop) cell.

    Every field is declared once, with :func:`_knob`; the CLI flags,
    ``to_dict``/``cell_key`` treatment, inapplicable-knob validation and
    engine construction all derive from that declaration.  Mapping-valued
    fields (``overrides``, ``*_kwargs``) accept either a dict or a tuple of
    pairs; they are canonicalized to sorted tuples so equal specs always
    hash and serialize identically.
    """

    # -- workload -----------------------------------------------------------
    dataset: str = _knob(
        "mini_mnist", "workload", "dataset registry name",
        choices=available_datasets)
    model: str = _knob(
        "mlp", "workload", "model registry name", choices=available_models)
    method: str = _knob(
        "fedtrip", "workload",
        "federated algorithm registry name (see repro.algorithms)",
        choices=available_strategies)
    # -- data partition -----------------------------------------------------
    partition: str = _knob(
        "dirichlet", "partition", "how samples are split across clients",
        choices=("iid", "dirichlet", "orthogonal"))
    alpha: Optional[float] = _knob(
        0.5, "partition", "Dirichlet concentration")
    n_clusters: int = _knob(
        5, "partition", "orthogonal cluster count", cli=("--clusters",))
    samples_per_client: Optional[int] = _knob(
        None, "partition",
        "cap on each client's shard size; None = an even split", cli=False)
    feature_skew: bool = _knob(
        False, "partition",
        "additionally perturb each client's features (per-client transform)",
        cli=False)
    # -- round loop / local optimizer --------------------------------------
    n_clients: int = _knob(
        10, "loop", "number of data shards / roster clients",
        cli=("--clients",))
    clients_per_round: int = _knob(
        4, "loop", "clients selected per round (K)")
    rounds: int = _knob(20, "loop", "communication rounds")
    batch_size: int = _knob(50, "loop", "local minibatch size")
    local_epochs: int = _knob(1, "loop", "local epochs per round")
    lr: float = _knob(0.05, "loop", "local learning rate")
    momentum: float = _knob(0.9, "loop", "local SGD momentum", cli=False)
    optimizer: str = _knob(
        "sgdm", "loop",
        "local optimizer (sgdm | sgd | adam) unless the method pins its own",
        cli=False)
    eval_every: int = _knob(
        1, "loop", "evaluate the global model every N rounds (and the last)",
        cli=False)
    eval_batch_size: int = _knob(
        256, "loop", "evaluation minibatch size", cli=False)
    seed: int = _knob(0, "loop", "root seed of every random stream", domain=">= 0")
    target_accuracy: Optional[float] = _knob(
        None, "loop", "stop training once this test accuracy % is reached")
    max_grad_norm: Optional[float] = _knob(
        None, "loop", "clip local gradients to this global norm", cli=False)
    # -- strategy hyperparameter overrides (e.g. {"mu": 0.8}) ---------------
    overrides: Pairs = _knob(
        (), "strategy", "strategy hyperparameter overrides, e.g. {'mu': 0.8}",
        cli=False, kv=True)
    # -- client sampling & execution backend --------------------------------
    sampler: str = _knob(
        "uniform", "execution", "client-selection policy",
        choices=available_samplers)
    sampler_kwargs: Pairs = _knob(
        (), "execution",
        "policy parameter, repeatable (e.g. dropout=0.2)", kv=True)
    n_workers: int = _knob(
        1, "execution",
        "worker processes in the fleet ('process', 'network', or 'auto' "
        "above 1); serial takes exactly 1",
        cli=("--workers", "--n-workers"), engine=True)
    executor: str = _knob(
        "auto", "execution",
        "execution backend (auto = serial at 1 worker, 'process' above; "
        "'process' and 'network' are one fleet of worker processes served "
        "over framed sockets: 'process' always forks its own on loopback, "
        "'network' takes the --net-* knobs and remote workers)",
        choices=available_executors, engine=True)
    # -- network executor (repro.fl.net) -------------------------------------
    net_bind: str = _knob(
        net.DEFAULT_BIND, "net",
        "coordinator listen address for --executor network; port 0 picks an "
        "ephemeral port.  A loopback host starts (and replaces) its worker "
        "processes itself; any other host waits for externally started "
        "``python -m repro.fl.net.worker`` processes to register",
        metavar="HOST:PORT", topology=True)
    net_workers: Optional[int] = _knob(
        None, "net",
        "worker connections the network round waits for (default: --workers)",
        domain=">= 1", topology=True)
    net_connect_timeout_s: float = _knob(
        net.DEFAULT_CONNECT_TIMEOUT_S, "net",
        "network registration patience, per-task wall-clock ceiling and "
        "empty-fleet grace period in seconds", domain="positive", topology=True)
    net_heartbeat_s: float = _knob(
        net.DEFAULT_HEARTBEAT_S, "net",
        "worker liveness beacon cadence in seconds; a connection silent for "
        "max(5 * heartbeat, 3.0) seconds while holding a task is declared dead",
        domain="positive", topology=True)
    net_fault: Optional[str] = _knob(
        None, "net",
        "deterministic wire fault for --executor network (requires "
        "--net-fault-rate > 0); None = a clean wire.  Coins are seeded per "
        "frame like repro.fl.faults",
        choices=available_netfaults,
        switch={"rate": "net_fault_rate", "idle": "never fires",
                "what": "an injector name"})
    net_fault_rate: float = _knob(
        0.0, "net", "per-frame probability that the wire fault fires",
        domain="in [0, 1]")
    net_fault_kwargs: Pairs = _knob(
        (), "net",
        "wire-fault parameter, repeatable (e.g. max_delay_s=0.5 for "
        "delay_frame)", kv=True)
    net_codec: Optional[str] = _knob(
        None, "net",
        "upload wire codec for --executor network: workers ship their update "
        "as a compressed delta against the round broadcast.  Lossy — trades "
        "the byte-identity contract for bytes on the wire",
        choices=WIRE_CODECS,
        switch={"what": " or ".join(repr(c) for c in WIRE_CODECS)})
    net_codec_kwargs: Pairs = _knob(
        (), "net",
        "codec parameter, repeatable (e.g. fraction=0.05 for topk, bits=8 "
        "for quantization)", kv=True)
    retry_backoff_base_s: float = _knob(
        1.0, "fault",
        "base of the exponential retry backoff curve (simulated seconds per "
        "retry wave; also paces network-worker reconnects); the default 1.0 "
        "reproduces the historical constant byte-for-byte",
        domain="positive", engine=True)
    # -- server mode & simulated systems model ------------------------------
    mode: str = _knob(
        "sync", "mode",
        "server mode: sync barrier rounds, semisync deadline/buffer rounds, "
        "or async staleness-decayed mixing (the latter two on the "
        "virtual-clock event scheduler, repro.fl.asyncfl)",
        choices=available_modes)
    deadline_s: Optional[float] = _knob(
        None, "event",
        "semisync: aggregate whatever arrived this many simulated seconds "
        "after dispatch (default: wait for the full buffer)",
        domain="positive", engine=True)
    buffer_size: Optional[int] = _knob(
        None, "event",
        "aggregation buffer size K (FedBuff); default: 1 in async, "
        "clients-per-round in semisync.  Over-selection = configuring "
        "clients_per_round > buffer_size", domain=">= 1", engine=True)
    device_profile: Optional[str] = _knob(
        None, "mode",
        "device/network preset pricing simulated time (records "
        "virtual_time_s; see repro.fl.systems.NETWORK_PRESETS).  Drives the "
        "event scheduler's per-client durations in async/semisync modes, "
        "which default to wifi when unset",
        choices=lambda: sorted(NETWORK_PRESETS))
    heterogeneity: float = _knob(
        1.0, "mode",
        "compute-speed spread h >= 1: clients run at a seeded factor in "
        "[1/h, 1] of the profile speed (the straggler knob)")
    async_alpha: float = _knob(
        0.6, "async",
        "async mixing weight: alpha * (1 + staleness)^(-poly)", cli=False,
        domain="in (0, 1]", engine=True)
    async_poly: float = _knob(
        0.5, "async", "async staleness-decay exponent (see async_alpha)",
        cli=False, domain=">= 0", engine=True)
    # -- Byzantine robustness (repro.fl.robust) ------------------------------
    aggregator: str = _knob(
        "mean", "robust",
        "server aggregation rule: 'mean' is the default weighted average "
        "(and keeps the legacy strategy.aggregate path byte-identical); the "
        "others are Byzantine-robust reductions over the stacked client "
        "matrix (see repro.fl.robust)",
        choices=available_aggregators,
        switch={"what": "a robust aggregation rule"})
    aggregator_kwargs: Pairs = _knob(
        (), "robust",
        "aggregation-rule parameter, repeatable (e.g. beta=0.25 for "
        "trimmed_mean, f=2 for krum)", kv=True)
    adversary: Optional[str] = _knob(
        None, "robust",
        "Byzantine attack model corrupting a seeded subset of clients "
        "(requires --adversary-fraction > 0); None = no attack",
        choices=available_adversaries,
        switch={"rate": "adversary_fraction", "idle": "attacks nobody",
                "what": "an attack model"})
    adversary_fraction: float = _knob(
        0.0, "robust",
        "fraction of the n_clients roster acting maliciously (f/K)",
        domain="in [0, 1]")
    adversary_kwargs: Pairs = _knob(
        (), "robust",
        "attack parameter, repeatable (e.g. gamma=5 for sign_flip/scale, "
        "sigma=0.5 for gauss_noise)", kv=True)
    # -- fault tolerance (repro.fl.faults) -----------------------------------
    fault: Optional[str] = _knob(
        None, "fault",
        "deterministic fault injector applied to client tasks (requires "
        "--fault-rate > 0); see repro.fl.faults.  Faults are per-(client, "
        "round, attempt) coin flips, so they compose with population mode "
        "(no fleet enumeration)",
        choices=available_faults,
        switch={"rate": "fault_rate", "idle": "never fires",
                "what": "an injector name"})
    fault_rate: float = _knob(
        0.0, "fault",
        "per-(client, round, attempt) probability that the injector fires",
        domain="in [0, 1]")
    fault_kwargs: Pairs = _knob(
        (), "fault",
        "fault parameter, repeatable (e.g. mode=truncate for corrupt, "
        "max_delay_s=30 for straggler)", kv=True)
    task_retries: int = _knob(
        0, "fault",
        "retry budget per client task per round: retryable failures are "
        "re-dispatched up to this many times, re-drawing the fault coin per "
        "attempt and pricing exponential backoff on the virtual clock",
        domain=">= 0", engine=True)
    task_timeout_s: Optional[float] = _knob(
        None, "fault",
        "per-task report deadline: an injected straggler delay beyond this "
        "many simulated seconds becomes a 'timeout' failure (requires "
        "--fault; only injected delays can exceed it)",
        domain="positive", engine=True)
    quorum_fraction: float = _knob(
        0.0, "fault",
        "skip aggregation (global model kept, skip_reason recorded) when "
        "fewer than ceil(fraction * K) of the cohort delivered usable "
        "updates; in async mode the fraction applies to the buffer size",
        domain="in [0, 1]", engine=True)
    # -- population scale (repro.fl.population) ------------------------------
    population_size: Optional[int] = _knob(
        None, "population",
        "virtual fleet size: client ids in [0, N) map onto the --clients "
        "data shards (id % n_clients) and materialize lazily, so memory "
        "stays O(cohort), not O(N); the default sampler becomes the O(K) "
        "PopulationSampler.  None = the eager roster.  Sync mode only; does "
        "not compose with adversaries or device profiles (both enumerate "
        "the fleet per client id)")
    state_mmap_mb: Optional[int] = _knob(
        None, "population",
        "heap budget (MiB) for lazy per-client strategy state before "
        "spilling to mmap'd temp files (requires --population-size); "
        "None = heap only", domain=">= 0", engine=True)
    # -- observability (repro.obs) -------------------------------------------
    trace: Optional[str] = _knob(
        None, "obs",
        "write a JSONL span trace (round -> phase -> client-task, wall + "
        "virtual timings, payload bytes) to PATH; off by default — the "
        "engine then carries the shared no-op recorder, zero allocations on "
        "the hot path", metavar="PATH", topology=True)
    metrics_out: Optional[str] = _knob(
        None, "obs",
        "write end-of-run metrics (Prometheus text exposition plus a "
        "commented summary table) to PATH.  Either observability flag "
        "alone turns the metrics registry on", metavar="PATH", topology=True)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.metadata["kv"]:
                object.__setattr__(
                    self, f.name, _as_pairs(getattr(self, f.name), f.name)
                )
        check_knobs(vars(self), self._parts)

    def _parts(self) -> Dict[str, Any]:
        """The built components :func:`check_knobs` reads.  Each is cheap
        at validation size, and building it runs its constructor's own
        checks (``FLConfig``'s ranges, an aggregator's or fault's kwargs)
        before any data is built."""
        return dict(
            config=self.build_config(),
            strategy=STRATEGY_CLASSES[self.method],
            sampler=self.build_sampler(),
            aggregator=self.build_aggregator(),
            adversary=self.build_adversary(),
            fault=self.build_fault_injector(),
            system_model=self.build_system_model(),
            population=self.build_population(),
        )

    # ------------------------------------------------------------------
    # axes / serialization
    # ------------------------------------------------------------------
    def with_axis(self, name: str, value: Any) -> "ExperimentSpec":
        """Return a copy with one axis changed; unknown names go to the
        strategy overrides."""
        if name in self.__dataclass_fields__ and name != "overrides":
            return replace(self, **{name: value})
        pairs = dict(self.overrides)
        pairs[name] = value
        return replace(self, overrides=tuple(sorted(pairs.items())))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; ``from_dict`` inverts it exactly."""
        return {
            f.name: dict(getattr(self, f.name)) if f.metadata["kv"]
            else getattr(self, f.name)
            for f in fields(self)
        }

    # Legacy ``ExperimentCell`` spelling, kept for the sweep store.
    config_dict = to_dict

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown keys raise — a typo'd field silently ignored would change
        the experiment being run.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        return cls(**dict(payload))

    def cell_key(self) -> str:
        """Stable 16-hex-digit content hash of this spec.

        Shared with :meth:`repro.io.persistence.ExperimentStore.key` so a
        sweep store written by one runner is readable by any other.

        Fields declared ``topology=True`` do not participate.  The
        observability outputs (``trace`` / ``metrics_out``): where a run
        writes its spans does not change the experiment being run, and
        existing store keys stay stable.  The network *topology* knobs
        (bind address, fleet size, timeouts, heartbeat cadence) for the
        same reason — the determinism contract says they cannot change the
        History.  The behavior-bearing network knobs (``net_fault*``,
        ``net_codec*``, ``retry_backoff_base_s``) stay in: an injected
        partition or a lossy codec is a different experiment.
        """
        d = self.to_dict()
        for f in fields(self):
            if f.metadata["topology"]:
                del d[f.name]
        return ExperimentStore.key(d)

    # ------------------------------------------------------------------
    # builders — the one place run construction logic lives
    # ------------------------------------------------------------------
    def partition_kwargs(self) -> Dict[str, Any]:
        kwargs: Dict[str, Any] = {}
        if self.partition == "dirichlet" and self.alpha is not None:
            kwargs["alpha"] = self.alpha
        elif self.partition == "orthogonal":
            kwargs["n_clusters"] = self.n_clusters
        return kwargs

    def build_data(self):
        """Materialize the partitioned federated dataset."""
        return build_federated_data(
            self.dataset,
            n_clients=self.n_clients,
            partition=self.partition,
            seed=self.seed,
            samples_per_client=self.samples_per_client,
            feature_skew=self.feature_skew,
            **self.partition_kwargs(),
        )

    def build_config(self) -> FLConfig:
        """The ``loop`` group is, field for field, the engine's FLConfig."""
        return FLConfig(**{
            f.name: getattr(self, f.name) for f in fields(self)
            if f.metadata["group"] == "loop"
        })

    def build_strategy(self):
        return build_strategy(
            self.method, model=self.model, dataset=self.dataset, **dict(self.overrides)
        )

    def build_sampler(self):
        """The client-selection policy, or ``None`` to let the engine pick
        its default (uniform K-of-N; the O(K) population sampler when a
        population is set — a ``UniformSampler`` over 10⁶ ids would pay an
        O(N) permutation per round)."""
        if self.population_size is not None and self.sampler == "uniform":
            return None
        return build_sampler(
            self.sampler,
            n_clients=(self.n_clients if self.population_size is None
                       else self.population_size),
            clients_per_round=self.clients_per_round,
            seed=self.seed,
            **dict(self.sampler_kwargs),
        )

    def build_population(self):
        """The virtual :class:`~repro.fl.population.Population`, or ``None``
        for the eager roster."""
        if self.population_size is None:
            return None
        from repro.fl.population import Population

        return Population(self.population_size, n_shards=self.n_clients)

    def build_aggregator(self):
        """The robust aggregation rule, or ``None`` for the default mean.

        Returning ``None`` (rather than a ``MeanAggregator``) keeps the
        legacy ``strategy.aggregate`` path — and its byte-identical
        histories — completely untouched when no robust rule is requested.
        """
        if self.aggregator == "mean":
            return None
        return build_aggregator(self.aggregator, **dict(self.aggregator_kwargs))

    def build_adversary(self):
        """The seeded adversary model, or ``None`` when no attack is set."""
        if self.adversary is None:
            return None
        return build_adversary(
            self.adversary,
            n_clients=self.n_clients,
            fraction=self.adversary_fraction,
            seed=self.seed,
            **dict(self.adversary_kwargs),
        )

    def build_fault_injector(self):
        """The seeded fault injector, or ``None`` when no fault is set."""
        if self.fault is None:
            return None
        return build_fault(
            self.fault,
            rate=self.fault_rate,
            seed=self.seed,
            **dict(self.fault_kwargs),
        )

    def build_net_options(self) -> Optional[Dict[str, Any]]:
        """Everything the fleet executor factory (``"process"`` /
        ``"network"``, or ``"auto"`` above one worker) needs, or ``None``
        for the serial backend.  Off ``"network"`` the ``net`` group guard
        has pinned every value to its declared default.

        Includes :meth:`cell_key` because the engine does not otherwise
        know its spec at executor-build time — the coordinator uses it to
        refuse worker processes aimed at a different experiment.
        """
        if not runs_on_fleet(self.executor, self.n_workers):
            return None
        injector = None
        if self.net_fault is not None:
            injector = build_netfault(
                self.net_fault,
                rate=self.net_fault_rate,
                seed=self.seed,
                **dict(self.net_fault_kwargs),
            )
        return {
            "bind": self.net_bind,
            "net_workers": self.net_workers,
            "connect_timeout_s": self.net_connect_timeout_s,
            "heartbeat_s": self.net_heartbeat_s,
            "injector": injector,
            "codec": self.net_codec,
            "codec_kwargs": dict(self.net_codec_kwargs),
            "cell_key": self.cell_key(),
        }

    def build_recorder(self):
        """The live :class:`repro.obs.Recorder`, or ``None`` when both
        observability outputs are unset (the engine then keeps the shared
        no-op recorder and the hot path allocates nothing)."""
        if self.trace is None and self.metrics_out is None:
            return None
        from repro.obs import Recorder

        return Recorder.create(trace_path=self.trace, metrics_path=self.metrics_out)

    def build_system_model(self, default: Optional[str] = None) -> Optional[SystemModel]:
        """The device/network model implied by ``device_profile``.

        ``default`` supplies a preset when the spec leaves the profile
        unset (the event-driven modes need one); returns ``None`` when
        both are unset — sync runs then skip virtual-time accounting.
        """
        profile = self.device_profile if self.device_profile is not None else default
        if profile is None:
            return None
        return SystemModel(
            profile,
            n_clients=self.n_clients,
            heterogeneity=self.heterogeneity,
            seed=self.seed,
        )

    def engine_kwargs(self) -> Dict[str, Any]:
        """Every :class:`~repro.api.engine.Engine` constructor argument this
        spec determines for *any* server mode — the one spec -> engine
        mapping.  The mode factory adds only the mode and the system model,
        whose default preset depends on the mode."""
        kwargs = {
            f.name: getattr(self, f.name) for f in fields(self)
            if f.metadata["engine"]
        }
        kwargs.update(
            model_name=self.model,
            sampler=self.build_sampler(),
            aggregator=self.build_aggregator(),
            adversary=self.build_adversary(),
            population=self.build_population(),
            recorder=self.build_recorder(),
            fault_injector=self.build_fault_injector(),
            net_options=self.build_net_options(),
        )
        return kwargs


_FIELDS = fields(ExperimentSpec)
_DEFAULTS = {f.name: f.default for f in _FIELDS}


def resolve_buffer_size(mode: str, buffer_size: Optional[int],
                        clients_per_round: int) -> Optional[int]:
    """The event modes' aggregation buffer K: as set, else 1 in async and
    ``clients_per_round`` in semisync; ``None`` in sync, which has none."""
    if mode == "sync":
        return None
    if buffer_size is not None:
        return buffer_size
    return 1 if mode == "async" else clients_per_round


def check_knobs(knobs: Mapping[str, Any],
                parts: Callable[[], Dict[str, Any]]) -> None:
    """The rule book: every rule about knob values, written once.

    ``ExperimentSpec`` validation and ``Engine.__init__`` both call it, so
    a hand-built engine is refused with the spec's words.  ``knobs`` maps
    field names to values; a name it leaves out holds its declared default
    (the engine is handed only some knobs, and a default passes every
    rule).  ``parts`` builds the run's components — ``strategy`` (class
    or instance), ``sampler``, ``aggregator``, ``adversary``, ``fault``,
    ``system_model`` and ``population``, each ``None`` when unset, plus any
    built only for its constructor's own checks — and is called once every
    name and switch has passed.
    """
    v = SimpleNamespace(**{**_DEFAULTS, **knobs})
    for f in _FIELDS:
        value, group, domain = (
            getattr(v, f.name), f.metadata["group"], f.metadata["domain"])
        unset = value is None or value == f.default
        guard = _GROUP_GUARDS.get(group)
        if guard and not unset and not guard[0](v):
            names = "/".join(g.name for g in _FIELDS if g.metadata["group"] == group)
            raise ValueError(guard[1].format(name=f.name, names=names))
        if domain and value is not None and not _DOMAINS[domain](value):
            raise ValueError(f"{f.name} must be {domain}, got {value}")
        choices = f.metadata["choices"]
        if choices and not unset:
            valid = choices() if callable(choices) else choices
            if value not in valid:
                raise ValueError(
                    f"unknown {f.name} {value!r}; available: {list(valid)}")
    for f in _FIELDS:
        if f.metadata["switch"]:
            _check_switch(v, f)
    p = SimpleNamespace(**parts())
    strategy = p.strategy if isinstance(p.strategy, type) else type(p.strategy)
    p.own_aggregate = strategy.aggregate is not Strategy.aggregate
    p.server_hooks = p.own_aggregate or strategy.post_aggregate is not Strategy.post_aggregate
    p.fleet = runs_on_fleet(v.executor, v.n_workers)
    p.clock = v.mode != "sync" or p.system_model is not None
    p.optimizer = p.strategy.local_optimizer or v.optimizer
    p.buffer = resolve_buffer_size(v.mode, v.buffer_size, v.clients_per_round)
    fault = type(p.fault)
    p.delays_reports = p.fault is not None and fault.delay_s is not FaultInjector.delay_s
    p.fails_tasks = p.fault is not None and (
        fault.pre_train is not FaultInjector.pre_train
        or (p.delays_reports and v.task_timeout_s is not None))
    for name, (applies, error) in _FIELD_GUARDS.items():
        value = getattr(v, name)
        if value is not None and value != _DEFAULTS[name] and not applies(v, p):
            raise ValueError(error.format(value=value, v=v, p=p))
    for broken, error in _RULES:
        if broken(v, p):
            raise ValueError(error.format(v=v, p=p))
    check_overrides(v.method, dict(v.overrides))
    if v.partition == "orthogonal":
        check_n_clusters(v.n_clusters, get_spec(v.dataset).num_classes)
    if p.aggregator is not None:
        p.aggregator.check_cohort(v.clients_per_round if p.buffer is None else p.buffer)


def _check_switch(v, f: Field) -> None:
    """Validate one optional component: the ``switch`` field naming it,
    its ``<name>_kwargs`` and (when it has one) its firing ``rate``.

    A rate or kwargs set while the switch is at its default — or a
    switch armed at rate zero — describes a run that never happens.
    """
    name, value, switch = f.name, getattr(v, f.name), f.metadata["switch"]
    article = "an" if name[0] in "aeiou" else "a"
    rate = switch.get("rate")
    if rate is not None:
        r = getattr(v, rate)
        if value is not None and r == 0.0:
            raise ValueError(
                f"{name}={value!r} with {rate}=0 {switch['idle']}; "
                f"set a positive {rate.rpartition('_')[2]}"
            )
        if value is None and r != 0.0:
            raise ValueError(
                f"{rate} without {article} {name} does nothing; "
                f"set {name}= to {switch['what']}"
            )
    if value == f.default and getattr(v, f"{name}_kwargs"):
        if f.default is None:
            raise ValueError(
                f"{name}_kwargs without {article} {name} do nothing; "
                f"set {name}= to {switch['what']}"
            )
        raise ValueError(
            f"{name}_kwargs apply to {switch['what']}; the default "
            f"{f.default!r} takes none — pick {article} {name}"
        )
