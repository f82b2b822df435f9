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
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.algorithms import build_strategy
from repro.data import available_datasets, build_federated_data
from repro.fl import net
from repro.fl.faults import available_faults, build_fault
from repro.fl.net import WIRE_CODECS
from repro.fl.net.netfaults import available_netfaults, build_netfault
from repro.fl.robust import (
    available_adversaries,
    available_aggregators,
    build_adversary,
    build_aggregator,
)
from repro.fl.systems import NETWORK_PRESETS, SystemModel
from repro.fl.types import FLConfig
from repro.io.persistence import ExperimentStore
from repro.models import available_models

from repro.api.registry import (
    available_executors,
    available_modes,
    available_samplers,
    build_sampler,
)

__all__ = ["ExperimentSpec"]

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
                  in ``_GROUP_GUARDS`` rejects non-default values while that
                  subsystem is off.
    ``cli``       ``True`` derives the flag from the field name
                  (``--task-retries``; ``--fault-arg`` for a ``kv`` field),
                  a tuple spells the flag(s) out, ``False`` keeps the knob
                  library-only.
    ``choices``   valid names for the flag: a sequence, or a registry's
                  ``available_*`` function read when the parser is built.
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
                  see :meth:`ExperimentSpec._check_switch`.
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
}

#: group -> (is that subsystem on for this spec?, the error for a knob of
#: the group set while it is off).  A knob that silently does nothing would
#: change the experiment the user believes they ran (same philosophy as
#: from_dict's unknown-key rejection), so inapplicable fields are errors,
#: not no-ops.
_GROUP_GUARDS: Dict[str, Tuple[Callable[["ExperimentSpec"], bool], str]] = {
    "event": (
        lambda spec: spec.mode != "sync",
        "{names} apply to the event-driven modes; set mode='semisync' or 'async'",
    ),
    "net": (
        lambda spec: spec.executor == "network",
        "{name} applies to the network executor; set executor='network'",
    ),
}


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
        "federated algorithm registry name (see repro.algorithms)")
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
        1, "execution", "worker count for the pooled backends",
        cli=("--workers", "--n-workers"), engine=True)
    executor: str = _knob(
        "auto", "execution",
        "execution backend (auto = serial at 1 worker, threaded above; "
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
        "after dispatch (default: wait for the full buffer)")
    buffer_size: Optional[int] = _knob(
        None, "event",
        "aggregation buffer size K (FedBuff); default: 1 in async, "
        "clients-per-round in semisync.  Over-selection = configuring "
        "clients_per_round > buffer_size")
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
        0.6, "mode",
        "async mixing weight: alpha * (1 + staleness)^(-poly)", cli=False)
    async_poly: float = _knob(
        0.5, "mode", "async staleness-decay exponent (see async_alpha)",
        cli=False)
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
        knobs = fields(self)
        for f in knobs:
            if f.metadata["kv"]:
                object.__setattr__(
                    self, f.name, _as_pairs(getattr(self, f.name), f.name)
                )
        for f in knobs:
            value, group, domain = (
                getattr(self, f.name), f.metadata["group"], f.metadata["domain"])
            guard = _GROUP_GUARDS.get(group)
            if guard and value != f.default and not guard[0](self):
                names = [g.name for g in knobs if g.metadata["group"] == group]
                raise ValueError(guard[1].format(name=f.name, names="/".join(names)))
            if domain and value is not None and not _DOMAINS[domain](value):
                raise ValueError(f"{f.name} must be {domain}, got {value}")
        # After the guards: off its subsystem a switch's rate/kwargs were
        # already pinned to their defaults, so these checks need no gate.
        for f in knobs:
            if f.metadata["switch"]:
                self._check_switch(f)
        if (self.mode == "sync" and self.device_profile is None
                and self.heterogeneity != 1.0):
            raise ValueError(
                "heterogeneity scales a device profile's compute speeds; "
                "sync mode without device_profile has no profile to spread"
            )
        if self.net_codec is not None and self.net_codec not in WIRE_CODECS:
            raise ValueError(
                f"unknown net_codec {self.net_codec!r}; available: "
                f"{list(WIRE_CODECS)}"
            )
        if self.task_timeout_s is not None and self.fault is None:
            raise ValueError(
                "task_timeout_s measures injected report delays; without "
                "a fault no task can ever exceed it — set fault= (e.g. "
                "'straggler')"
            )
        if self.state_mmap_mb is not None and self.population_size is None:
            raise ValueError(
                "state_mmap_mb budgets the population directory's state "
                "arena; set population_size"
            )
        if self.population_size is not None:
            if self.population_size < self.n_clients:
                raise ValueError(
                    f"population_size={self.population_size} smaller than the "
                    f"{self.n_clients} data shards it maps onto"
                )
            if self.mode != "sync":
                raise ValueError(
                    "population mode runs synchronous rounds only; the "
                    "event-driven modes enumerate per-client timings"
                )
            if self.adversary is not None:
                raise ValueError(
                    "population mode does not compose with adversaries: the "
                    "roster would be drawn over the whole population"
                )
            if self.device_profile is not None:
                raise ValueError(
                    "population mode does not compose with device profiles "
                    "(per-client system models enumerate the fleet)"
                )

    def _check_switch(self, f: Field) -> None:
        """Validate one optional component: the ``switch`` field naming it,
        its ``<name>_kwargs`` and (when it has one) its firing ``rate``.

        A rate or kwargs set while the switch is at its default — or a
        switch armed at rate zero — describes a run that never happens.
        """
        name, value, switch = f.name, getattr(self, f.name), f.metadata["switch"]
        article = "an" if name[0] in "aeiou" else "a"
        rate = switch.get("rate")
        if rate is not None:
            r = getattr(self, rate)
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
        if value == f.default and getattr(self, f"{name}_kwargs"):
            if f.default is None:
                raise ValueError(
                    f"{name}_kwargs without {article} {name} do nothing; "
                    f"set {name}= to {switch['what']}"
                )
            raise ValueError(
                f"{name}_kwargs apply to {switch['what']}; the default "
                f"{f.default!r} takes none — pick {article} {name}"
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
        ``"network"``) needs, or ``None`` for the in-process backends.  On
        ``"process"`` the ``net`` group guard has pinned every value to its
        declared default.

        Includes :meth:`cell_key` because the engine does not otherwise
        know its spec at executor-build time — the coordinator uses it to
        refuse worker processes aimed at a different experiment.
        """
        if self.executor not in ("process", "network"):
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
        mapping.  Mode factories add only what is theirs (the sync system
        model; the event-driven timing and buffer knobs)."""
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
