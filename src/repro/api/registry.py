"""Declarative registries: client samplers, execution backends, server modes.

Both registries exist for the same reason: heterogeneous constructors hidden
behind one factory signature, so a policy can be chosen from an
:class:`~repro.api.spec.ExperimentSpec` field or a CLI flag instead of being
hardwired.

**Samplers** (:mod:`repro.fl.sampling` / :mod:`repro.fl.availability`) —
a weighted sampler wants a weight vector, a diurnal sampler wants a phase
count::

    sampler = build_sampler("dropout", n_clients=10, clients_per_round=4,
                            seed=0, dropout=0.2)

Third-party policies plug in with :func:`register_sampler`; the only contract
is ``select(round_idx) -> List[int]`` plus ``n_clients`` /
``clients_per_round`` / ``participation_rate`` attributes.

**Executors** (:mod:`repro.fl.executor` / :mod:`repro.fl.net`) —
resolved from the spec's ``executor`` field or the ``--executor`` CLI flag::

    executor = build_executor("process", engine=engine, n_workers=4)

An executor factory receives the live :class:`~repro.api.engine.Engine`
(factories read ``engine.make_worker``, ``engine.runtime``, and for the
out-of-process backends the picklable ``engine.worker_spec()``) plus the
requested worker count, and returns an object with the executor contract:
``run(tasks) -> results``, ``broadcast(weights)``,
``evaluate(plane, dataset, batch_size) -> (accuracy, loss)``,
``borrow_worker()``, ``n_workers``, ``close()``.  ``"auto"`` is serial at ``n_workers<=1`` and
the loopback fleet (``"process"``) above.

**Modes** (:mod:`repro.api.engine`) — resolved from the spec's ``mode``
field or the ``--mode`` CLI flag::

    engine = build_mode("semisync", spec=spec, data=data, callbacks=[])

A mode factory receives the full :class:`~repro.api.spec.ExperimentSpec`,
the prebuilt dataset and the callback list, and returns a ready-to-run
engine.  Built-ins: ``"sync"`` (barrier rounds), ``"semisync"``
(deadline/buffer rounds) and ``"async"`` (staleness-decayed mixing), the
latter two on the virtual clock; all three are one
:class:`~repro.api.engine.Engine` factory, imported lazily so the registry
stays import-cycle-free.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List

from repro.fl.availability import DiurnalSampler, DropoutSampler
from repro.fl.executor import SerialExecutor
from repro.fl.sampling import FixedSampler, UniformSampler, WeightedSampler

__all__ = [
    "available_samplers",
    "build_sampler",
    "register_sampler",
    "available_executors",
    "build_executor",
    "register_executor",
    "available_modes",
    "build_mode",
    "register_mode",
]

#: factory(n_clients, clients_per_round, seed, **kwargs) -> sampler
SamplerFactory = Callable[..., Any]

_SAMPLERS: Dict[str, SamplerFactory] = {}


def register_sampler(name: str, factory: SamplerFactory) -> None:
    """Register (or replace) a sampler factory under ``name``."""
    _SAMPLERS[name.lower()] = factory


def available_samplers() -> List[str]:
    return sorted(_SAMPLERS)


def build_sampler(
    name: str, *, n_clients: int, clients_per_round: int, seed: int = 0, **kwargs
):
    """Instantiate the sampler registered under ``name``.

    ``kwargs`` are policy-specific (``dropout=``, ``phases=``, ``weights=``,
    ...) and forwarded to the factory; an unknown name or a kwarg the policy
    does not accept raises ``ValueError``.
    """
    try:
        factory = _SAMPLERS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; available: {available_samplers()}"
        ) from None
    try:
        return factory(
            n_clients=n_clients, clients_per_round=clients_per_round, seed=seed, **kwargs
        )
    except TypeError as exc:
        raise ValueError(f"bad arguments for sampler {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Built-in policies.
# ---------------------------------------------------------------------------

def _uniform(n_clients: int, clients_per_round: int, seed: int) -> UniformSampler:
    return UniformSampler(n_clients, clients_per_round, seed=seed)


def _weighted(n_clients: int, clients_per_round: int, seed: int, weights) -> WeightedSampler:
    if len(weights) != n_clients:
        raise ValueError(
            f"weighted sampler needs {n_clients} weights, got {len(weights)}"
        )
    return WeightedSampler(weights, clients_per_round, seed=seed)


def _fixed(n_clients: int, clients_per_round: int, seed: int, schedule) -> FixedSampler:
    return FixedSampler(schedule, n_clients=n_clients)


def _dropout(
    n_clients: int, clients_per_round: int, seed: int, dropout: float = 0.1
) -> DropoutSampler:
    return DropoutSampler(n_clients, clients_per_round, dropout=dropout, seed=seed)


def _diurnal(
    n_clients: int, clients_per_round: int, seed: int, phases: int = 2, window: int = 5
) -> DiurnalSampler:
    return DiurnalSampler(
        n_clients, clients_per_round, phases=phases, window=window, seed=seed
    )


register_sampler("uniform", _uniform)
register_sampler("weighted", _weighted)
register_sampler("fixed", _fixed)
register_sampler("dropout", _dropout)
register_sampler("diurnal", _diurnal)


# ---------------------------------------------------------------------------
# Execution-backend registry.
# ---------------------------------------------------------------------------

#: factory(engine, n_workers) -> executor
ExecutorFactory = Callable[..., Any]

_EXECUTORS: Dict[str, ExecutorFactory] = {}


def register_executor(name: str, factory: ExecutorFactory) -> None:
    """Register (or replace) an execution backend factory under ``name``."""
    _EXECUTORS[name.lower()] = factory


def available_executors() -> List[str]:
    return sorted(_EXECUTORS)


def build_executor(name: str, *, engine, n_workers: int = 1):
    """Instantiate the execution backend registered under ``name``.

    ``engine`` is the :class:`~repro.api.engine.Engine` under construction;
    factories pull worker recipes and the task runtime off it.  An unknown
    name raises ``ValueError`` listing the alternatives.
    """
    try:
        factory = _EXECUTORS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; available: {available_executors()}"
        ) from None
    return factory(engine, n_workers)


def runs_on_fleet(executor: str, n_workers: int) -> bool:
    """Whether the backend ``executor`` names runs its tasks in worker
    processes at ``n_workers``: ``"process"``, ``"network"``, or ``"auto"``
    above one worker."""
    name = executor.lower()
    return name in ("process", "network") or (name == "auto" and n_workers > 1)


def _serial_executor(engine, n_workers: int) -> SerialExecutor:
    return SerialExecutor(engine.make_worker, runtime=engine.runtime)


def _fleet_executor(name: str, engine, n_workers: int):
    """``"process"`` and ``"network"`` are one backend — a coordinator and
    worker processes on framed sockets — under two names: ``"process"`` is
    always its own loopback fleet on the declared topology defaults,
    ``"network"`` is what the ``net_*`` knobs configure."""
    # Lazy import: the socket stack only loads when a run asks for it.
    from repro.fl.net.coordinator import NetworkExecutor

    opts = dict(getattr(engine, "net_options", None) or {})
    fleet = opts.pop("net_workers", None)
    executor = NetworkExecutor(
        engine, max(1, fleet if fleet is not None else n_workers), **opts
    )
    executor.name = name
    return executor


def _auto_executor(engine, n_workers: int):
    """Serial on one worker, the loopback fleet above."""
    if n_workers <= 1:
        return _serial_executor(engine, n_workers)
    return _fleet_executor("process", engine, n_workers)


register_executor("auto", _auto_executor)
register_executor("serial", _serial_executor)
register_executor("process", partial(_fleet_executor, "process"))
register_executor("network", partial(_fleet_executor, "network"))


# ---------------------------------------------------------------------------
# Server-mode registry.
# ---------------------------------------------------------------------------

#: factory(spec, data, callbacks) -> engine
ModeFactory = Callable[..., Any]

_MODES: Dict[str, ModeFactory] = {}


def register_mode(name: str, factory: ModeFactory) -> None:
    """Register (or replace) a server-mode factory under ``name``."""
    _MODES[name.lower()] = factory


def available_modes() -> List[str]:
    return sorted(_MODES)


def build_mode(name: str, *, spec, data, callbacks=()):
    """Instantiate the engine for the mode registered under ``name``.

    ``spec`` is the full :class:`~repro.api.spec.ExperimentSpec`; ``data``
    the prebuilt federated dataset matching it.  An unknown name raises
    ``ValueError`` listing the alternatives.
    """
    try:
        factory = _MODES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown mode {name!r}; available: {available_modes()}"
        ) from None
    return factory(spec, data, callbacks)


def _engine_mode(mode: str, spec, data, callbacks):
    from repro.api.engine import Engine

    return Engine(
        data,
        spec.build_strategy(),
        spec.build_config(),
        # The event modes price every task; without an explicit device
        # profile they run on the homogeneous wifi preset.
        system_model=spec.build_system_model(default=None if mode == "sync" else "wifi"),
        callbacks=callbacks,
        mode=mode,
        **spec.engine_kwargs(),
    )


for _mode in ("sync", "semisync", "async"):
    register_mode(_mode, partial(_engine_mode, _mode))
