"""Every ``ExperimentSpec`` knob is live or rejected.

A knob the code silently ignores changes the experiment the user thinks
they ran.  This harness is driven by ``dataclasses.fields(ExperimentSpec)``,
so a new field without an entry here fails it.  Each field has either

* a :class:`Probe`: a non-default value (plus companion kwargs) and the
  context where it must change the History; or
* an entry in ``INERT``: a written reason it never changes the History.

Each probe is then tried in four contexts (plain sync, semisync/iot,
async/iot, crash faults with retries).  In every one it must be rejected
when the spec is built, change the History, or be declared inert for that
context in ``INERT_IN``.  Runs are tiny: 2 rounds of an MLP on ``tiny``.

The second half pins the cells that used to run inert or fail only after
the data was built: each now fails in ``ExperimentSpec(...)``, and a
hand-built ``Engine`` given the same knob raises the same words.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict

import pytest

import repro.api.spec as spec_module
from repro.algorithms import build_strategy
from repro.api import Engine, ExperimentSpec, run_experiment
from repro.data import build_federated_data
from repro.fl.availability import DropoutSampler
from repro.fl.faults import build_fault
from repro.fl.population import Population
from repro.fl.robust import build_adversary, build_aggregator
from repro.fl.systems import SystemModel
from repro.fl.types import FLConfig

BASE = dict(dataset="tiny", model="mlp", method="fedtrip", n_clients=8,
            clients_per_round=4, rounds=2, batch_size=20, lr=0.05)

CONTEXTS: Dict[str, Dict[str, Any]] = {
    "sync": {},
    "semisync": dict(mode="semisync", device_profile="iot"),
    "async": dict(mode="async", device_profile="iot"),
    "crash": dict(fault="crash", fault_rate=0.3, task_retries=2),
}

#: the fleet context: probes that only act on the network executor run
#: there alone (each run starts two loopback worker processes).
FLEET = dict(executor="network", n_workers=2)


@dataclass(frozen=True)
class Probe:
    """``set`` (the field's non-default value, plus companions it needs)
    applied over ``base``; it must change the History in context ``live``.
    The History it is compared with is the context plus ``base``."""

    set: Dict[str, Any]
    live: str = "sync"
    base: Dict[str, Any] = field(default_factory=dict)


#: a straggler fault whose delays something reads (the iot clock), with no
#: retry budget to go dead under it.
STRAGGLER = dict(fault="straggler", fault_rate=0.5, device_profile="iot",
                 task_retries=0)

PROBES: Dict[str, Probe] = {
    "dataset": Probe({"dataset": "tiny_rgb"}),
    "model": Probe({"model": "cnn"}),
    "method": Probe({"method": "fedavg"}),
    "partition": Probe({"partition": "iid"}),
    "alpha": Probe({"alpha": 0.1}),
    "n_clusters": Probe({"n_clusters": 4},
                        base={"partition": "orthogonal", "n_clusters": 2}),
    "samples_per_client": Probe({"samples_per_client": 20}),
    "feature_skew": Probe({"feature_skew": True}),
    "n_clients": Probe({"n_clients": 10}),
    "clients_per_round": Probe({"clients_per_round": 6}),
    "rounds": Probe({"rounds": 3}),
    "batch_size": Probe({"batch_size": 10}),
    "local_epochs": Probe({"local_epochs": 2}),
    "lr": Probe({"lr": 0.1}),
    "momentum": Probe({"momentum": 0.5}),
    "optimizer": Probe({"optimizer": "adam"}),
    "eval_every": Probe({"eval_every": 2}, base={"rounds": 3}),
    "eval_batch_size": Probe({"eval_batch_size": 30}),
    "seed": Probe({"seed": 1}),
    "target_accuracy": Probe({"target_accuracy": 1.0}),
    "max_grad_norm": Probe({"max_grad_norm": 0.01}),
    "overrides": Probe({"overrides": {"mu": 0.5}}, base={"method": "fedprox"}),
    "sampler": Probe({"sampler": "dropout"}),
    "sampler_kwargs": Probe({"sampler_kwargs": {"dropout": 0.5}},
                            base={"sampler": "dropout"}),
    "net_codec": Probe({"net_codec": "topk"}, live="fleet"),
    "net_codec_kwargs": Probe({"net_codec_kwargs": {"fraction": 0.5}}, live="fleet",
                              base={"net_codec": "topk"}),
    "retry_backoff_base_s": Probe({"retry_backoff_base_s": 0.5}, live="semisync",
                                  base=dict(fault="crash", fault_rate=0.3,
                                            task_retries=2)),
    "mode": Probe({"mode": "semisync"}),
    "deadline_s": Probe({"deadline_s": 0.05}, live="semisync"),
    "buffer_size": Probe({"buffer_size": 2}, live="semisync"),
    "device_profile": Probe({"device_profile": "4g"}),
    "heterogeneity": Probe({"heterogeneity": 4.0}, live="semisync"),
    "async_alpha": Probe({"async_alpha": 0.3}, live="async"),
    "async_poly": Probe({"async_poly": 2.0}, live="async"),
    "aggregator": Probe({"aggregator": "coordinate_median"}),
    "aggregator_kwargs": Probe({"aggregator_kwargs": {"tau": 0.01}},
                               base={"aggregator": "norm_clip",
                                     "aggregator_kwargs": {"tau": 1.0}}),
    "adversary": Probe({"adversary": "sign_flip", "adversary_fraction": 0.25}),
    "adversary_fraction": Probe({"adversary_fraction": 0.5},
                                base={"adversary": "sign_flip",
                                      "adversary_fraction": 0.25}),
    "adversary_kwargs": Probe({"adversary_kwargs": {"gamma": 5.0}},
                              base={"adversary": "sign_flip",
                                    "adversary_fraction": 0.25}),
    "fault": Probe({"fault": "corrupt", "fault_rate": 0.3}),
    "fault_rate": Probe({"fault_rate": 0.6}, live="crash"),
    "fault_kwargs": Probe({"fault_kwargs": {"max_delay_s": 30.0}}, live="semisync",
                          base=STRAGGLER),
    "task_retries": Probe({"task_retries": 1}, live="crash"),
    "task_timeout_s": Probe({"task_timeout_s": 5.0}, base=STRAGGLER),
    "quorum_fraction": Probe({"quorum_fraction": 1.0}, live="crash",
                             base={"task_retries": 0}),
    "population_size": Probe({"population_size": 16}),
}

_TOPOLOGY = ("where the run executes, never what it computes: the History is "
             "identical on every backend and fleet shape by contract "
             "(tests/test_net.py TestFleetEvaluation), and cell_key excludes it")
_WIRE_FAULT = ("a wire fault the transport absorbs below the engine: resend "
               "timers and the worker result cache keep the History equal to "
               "the serial run's (tests/test_net.py "
               "test_drop_frame_with_retries_matches_serial); rejected off "
               "executor='network'")

#: field -> why no value of it ever changes the History.
INERT: Dict[str, str] = {
    "executor": "the backend: " + _TOPOLOGY,
    "n_workers": "the fleet size: " + _TOPOLOGY,
    "net_bind": "the coordinator address: " + _TOPOLOGY,
    "net_workers": "the connections a round waits for: " + _TOPOLOGY,
    "net_connect_timeout_s": "a wall-clock patience: " + _TOPOLOGY,
    "net_heartbeat_s": "a wall-clock liveness cadence: " + _TOPOLOGY,
    "net_fault": _WIRE_FAULT,
    "net_fault_rate": _WIRE_FAULT,
    "net_fault_kwargs": _WIRE_FAULT,
    "state_mmap_mb": ("a memory budget: lazy client state lives on the heap "
                      "or in mmap'd files, with the same bytes either way "
                      "(tests/test_population_scale.py); rejected without "
                      "population_size"),
    "trace": "where spans are written; observation never touches RNG state "
             "or reduction order, and cell_key excludes it",
    "metrics_out": "where metrics are written; see trace",
}

_NO_FAILURES = ("with no fault nothing misses the quorum but a diverging "
                "client, and these runs do not diverge; the knob stays "
                "accepted because divergence can happen in any run")
_FIRST_ARRIVALS = ("async aggregates one arrival per round, and two rounds "
                   "land the two earliest on-time reports: the knob moves "
                   "only late ones (retried or delayed), which longer runs reach")

#: (field, context) -> why the probe may leave the History alone there.
INERT_IN: Dict[tuple, str] = {
    ("quorum_fraction", "sync"): _NO_FAILURES,
    ("quorum_fraction", "semisync"): _NO_FAILURES,
    ("quorum_fraction", "async"): _NO_FAILURES,
    ("retry_backoff_base_s", "async"): _FIRST_ARRIVALS,
    ("fault_kwargs", "async"): _FIRST_ARRIVALS,
}


def _digest(history) -> str:
    """sha256 over every record minus its two host-time fields."""
    records = []
    for record in history.records:
        d = record.to_dict()
        del d["wall_seconds"], d["phase_seconds"]
        records.append(d)
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def outcome():
    """``outcome(probe, context)``: 'rejected', 'changed', 'unchanged', or
    'pinned' (the context already sets the probe's values, so there is
    nothing to compare).  Datasets and digests are shared across probes."""
    data: Dict[tuple, Any] = {}
    digests: Dict[ExperimentSpec, str] = {}

    def run(spec: ExperimentSpec) -> str:
        if spec not in digests:
            key = (spec.dataset, spec.n_clients, spec.partition, spec.seed,
                   spec.samples_per_client, spec.feature_skew,
                   tuple(sorted(spec.partition_kwargs().items())))
            if key not in data:
                data[key] = spec.build_data()
            digests[spec] = _digest(run_experiment(spec, data=data[key]))
        return digests[spec]

    def outcome(probe: Probe, context: Dict[str, Any]) -> str:
        base = {**BASE, **context, **probe.base}
        if all(base.get(k) == v for k, v in probe.set.items()):
            return "pinned"
        try:
            spec = ExperimentSpec(**{**base, **probe.set})
        except ValueError:
            return "rejected"
        return "changed" if run(spec) != run(ExperimentSpec(**base)) else "unchanged"

    return outcome


FIELD_NAMES = [f.name for f in fields(ExperimentSpec)]


def test_every_field_has_a_probe_or_an_inert_reason():
    covered = set(PROBES) | set(INERT)
    assert not set(PROBES) & set(INERT)
    assert covered == set(FIELD_NAMES), (
        f"missing: {sorted(set(FIELD_NAMES) - covered)}; "
        f"stale: {sorted(covered - set(FIELD_NAMES))}")
    for name, probe in PROBES.items():
        default = ExperimentSpec.__dataclass_fields__[name].default
        assert probe.set[name] != {**BASE, **probe.base}.get(name, default), name
        assert probe.live in (*CONTEXTS, "fleet"), name
    assert all(reason.strip() for reason in (*INERT.values(), *INERT_IN.values()))
    assert set(INERT_IN) <= {(f, c) for f in PROBES for c in CONTEXTS}


@pytest.mark.parametrize("name", [n for n in FIELD_NAMES if n in PROBES])
def test_every_probe_is_live_or_rejected(name, outcome):
    probe = PROBES[name]
    for context_name, context in CONTEXTS.items():
        got = outcome(probe, context)
        where = f"{name}={probe.set[name]!r} in context {context_name!r}"
        if context_name == probe.live:
            assert got == "changed", f"{where}: {got}, must change the History"
        elif (name, context_name) in INERT_IN:
            assert got in ("unchanged", "changed"), f"{where}: declared inert but {got}"
        else:
            assert got in ("rejected", "changed", "pinned"), (
                f"{where} is accepted and leaves the History unchanged: reject "
                "it when the spec is built, or declare it in INERT_IN")


@pytest.mark.parametrize("name", [n for n, p in PROBES.items() if p.live == "fleet"])
def test_fleet_probes_change_the_history_on_the_network_executor(name):
    probe = PROBES[name]
    base = {**BASE, **FLEET, **probe.base}
    probed = ExperimentSpec(**{**base, **probe.set})
    assert (_digest(run_experiment(probed))
            != _digest(run_experiment(ExperimentSpec(**base))))


# ---------------------------------------------------------------------------
# cells that ran inert, or failed only after the data was built, now fail
# when the spec is built
# ---------------------------------------------------------------------------

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=8,
            clients_per_round=4, rounds=2, batch_size=20)


def _engine_with(strategy="fedavg", mode="sync", config=None, **engine_kwargs):
    """A hand-built engine on valid tiny parts plus the knob under test."""
    data = build_federated_data("tiny", n_clients=8, seed=0)
    config = config or _config()
    engine_kwargs.setdefault("system_model",
                             None if mode == "sync" else SystemModel("wifi", 8))
    Engine(data, build_strategy(strategy, model="mlp", dataset="tiny"), config,
           model_name="mlp", mode=mode, **engine_kwargs)


def _fault(name):
    return build_fault(name, rate=0.3, seed=0)


def _config(**kwargs):
    return FLConfig(n_clients=8, clients_per_round=4, rounds=2, **kwargs)


#: (spec kwargs over TINY, hand-built engine call or None, error words).
#: An engine call is given only where Engine takes the knob itself.
REFUSED = [
    # accepted, and the History equal to the run without the knob
    (dict(partition="iid", alpha=0.3), None, "alpha is the Dirichlet concentration"),
    (dict(n_clusters=3), None, "n_clusters counts orthogonal clusters"),
    *[(dict(optimizer=opt, momentum=0.5),
       lambda opt=opt: _engine_with(config=_config(optimizer=opt, momentum=0.5)),
       f"momentum applies to the 'sgdm' local optimizer only; this run trains with '{opt}'")
      for opt in ("sgd", "adam")],
    *[(dict(method=method, optimizer="adam"),
       lambda method=method: _engine_with(method, config=_config(optimizer="adam")),
       f"{method} pins its local optimizer to 'sgd'")
      for method in ("feddyn", "slowmo", "scaffold", "mimelite")],
    (dict(method="scaffold", momentum=0.5),
     lambda: _engine_with("scaffold", config=_config(momentum=0.5)),
     "this run trains with 'sgd'"),
    (dict(task_retries=2), lambda: _engine_with(task_retries=2),
     "nothing in this run fails one"),
    (dict(retry_backoff_base_s=0.5), lambda: _engine_with(retry_backoff_base_s=0.5),
     "retry_backoff_base_s prices retries"),
    (dict(fault="crash", fault_rate=0.3, task_retries=2, retry_backoff_base_s=0.5),
     lambda: _engine_with(fault_injector=_fault("crash"), task_retries=2,
                          retry_backoff_base_s=0.5),
     "retry_backoff_base_s prices retries"),
    (dict(fault="crash", fault_rate=0.3, task_timeout_s=5.0),
     lambda: _engine_with(fault_injector=_fault("crash"), task_timeout_s=5.0),
     "without a fault that delays reports"),
    (dict(fault="straggler", fault_rate=0.3),
     lambda: _engine_with(fault_injector=_fault("straggler")), "only delays reports"),
    (dict(population_size=16, mode="async"),
     lambda: _engine_with(mode="async", population=Population(16, n_shards=8)),
     "population mode runs synchronous rounds"),
    (dict(population_size=16, device_profile="iot"),
     lambda: _engine_with(population=Population(16, n_shards=8),
                          system_model=SystemModel("iot", 8)),
     "does not compose with adversaries or device profiles"),
    (dict(population_size=16, adversary="sign_flip", adversary_fraction=0.25),
     lambda: _engine_with(population=Population(16, n_shards=8),
                          adversary=build_adversary("sign_flip", n_clients=8,
                                                    fraction=0.25, seed=0)),
     "does not compose with adversaries or device profiles"),
    (dict(aggregator="trimmed_mean"),
     lambda: _engine_with(aggregator=build_aggregator("trimmed_mean")),
     r"floor\(beta \* K\) = 0"),
    (dict(mode="async", aggregator="coordinate_median"),
     lambda: _engine_with(mode="async", aggregator=build_aggregator("coordinate_median")),
     "coordinate_median over a cohort of 1 returns the plain mean"),
    # accepted by the spec, refused only after the data was built

    (dict(mode="semisync", buffer_size=5),
     lambda: _engine_with(mode="semisync", buffer_size=5), "buffer_size <= clients_per_round"),
    (dict(mode="semisync", deadline_s=0.0),
     lambda: _engine_with(mode="semisync", deadline_s=0.0), "deadline_s must be positive"),
    (dict(mode="async", deadline_s=5.0),
     lambda: _engine_with(mode="async", deadline_s=5.0), "deadline_s applies to semisync"),
    (dict(mode="async", async_alpha=1.5),
     lambda: _engine_with(mode="async", async_alpha=1.5), r"async_alpha must be in \(0, 1\]"),
    (dict(mode="async", async_alpha=0.0),
     lambda: _engine_with(mode="async", async_alpha=0.0), r"async_alpha must be in \(0, 1\]"),
    (dict(mode="async", async_poly=-1.0),
     lambda: _engine_with(mode="async", async_poly=-1.0), "async_poly must be >= 0"),
    (dict(mode="async", sampler="dropout"),
     lambda: _engine_with(mode="async", sampler=DropoutSampler(8, 4, seed=0)),
     "refills idle clients"),
    *[(dict(mode="async", method=method),
       lambda method=method: _engine_with(method, mode="async"), "server-side aggregation")
      for method in ("scaffold", "slowmo", "feddyn", "fednova", "fedtrip_adaptive")],
    (dict(partition="orthogonal"),
     lambda: build_federated_data("tiny", n_clients=8, partition="orthogonal",
                                  n_clusters=5),
     r"n_clusters must be in \[1, 4\], got 5"),
    (dict(aggregator="krum", aggregator_kwargs={"f": 2}),
     lambda: _engine_with(aggregator=build_aggregator("krum", f=2)), "needs at least f \\+ 3"),
    (dict(aggregator="norm_screen", aggregator_kwargs={"f": 4}),
     lambda: _engine_with(aggregator=build_aggregator("norm_screen", f=4)),
     "would drop every one of 4"),
    (dict(method="fednova", aggregator="coordinate_median"),
     lambda: _engine_with("fednova", aggregator=build_aggregator("coordinate_median")),
     "would silently override fednova.aggregate"),
    # any name
    (dict(mode="bogus"), lambda: _engine_with(mode="bogus"), "unknown mode 'bogus'"),
    (dict(executor="bogus"), lambda: _engine_with(executor="bogus"),
     "unknown executor 'bogus'"),
    (dict(optimizer="bogus"), lambda: FLConfig(optimizer="bogus"),
     "unknown optimizer 'bogus'"),
    *[(dict([(name, "bogus")]), None, f"unknown {name} 'bogus'")
      for name in ("dataset", "model", "sampler", "partition", "device_profile",
                   "method")],
]


@pytest.mark.parametrize(
    "kwargs,engine,words", REFUSED,
    ids=["-".join(f"{k}={v}" for k, v in kw.items()) for kw, _, _ in REFUSED])
def test_refused_cells_fail_when_the_spec_is_built(monkeypatch, kwargs, engine, words):
    def no_data(*args, **kw):
        raise AssertionError("validation built data")

    monkeypatch.setattr(spec_module, "build_federated_data", no_data)
    with pytest.raises(ValueError, match=words):
        ExperimentSpec(**{**TINY, **kwargs})
    monkeypatch.undo()
    if engine is not None:
        with pytest.raises(ValueError, match=words):
            engine()


def test_engine_init_keeps_no_range_check_of_a_declared_domain():
    """The engine's copy of the rules is gone: no knob whose field declares
    a domain is range-checked by name in Engine.__init__."""
    import inspect

    source = inspect.getsource(Engine.__init__)
    for f in fields(ExperimentSpec):
        if f.metadata["domain"]:
            assert f"{f.name} <" not in source and f"{f.name} >" not in source, f.name
            assert f"<= {f.name}" not in source and f"< {f.name}" not in source, f.name
