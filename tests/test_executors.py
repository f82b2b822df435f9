"""Execution backends: registry resolution, the per-round broadcast, and the
cross-backend determinism contract (fixed seed => byte-identical records on
the serial and process executors)."""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.api import (
    ExperimentSpec,
    available_executors,
    build_executor,
    register_executor,
    run_experiment,
)
from repro.api.engine import Engine
from repro.fl.executor import ClientTaskSpec, SerialExecutor
from repro.fl.params import ParamPlane, WeightLayout

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=2, batch_size=20, lr=0.05)

BACKENDS = [("serial", 1), ("process", 2)]


def tiny_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**TINY, **overrides})


def assert_identical_records(a, b, context=""):
    """Byte-identical round records (wall time is the one nondeterministic
    field and is excluded)."""
    assert len(a) == len(b), context
    for ra, rb in zip(a.records, b.records):
        assert ra.round_idx == rb.round_idx, context
        assert ra.selected == rb.selected, context
        assert ra.test_accuracy == rb.test_accuracy, context
        assert ra.test_loss == rb.test_loss, context
        assert ra.mean_train_loss == rb.mean_train_loss, context
        assert ra.cumulative_flops == rb.cumulative_flops, context
        assert ra.cumulative_comm_bytes == rb.cumulative_comm_bytes, context


def _records(history):
    """Every round-record field but the two host-time ones."""
    return [{k: v for k, v in rec.items() if k not in ("wall_seconds", "phase_seconds")}
            for rec in history.to_dict()["records"]]


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_executors()) == {"auto", "serial", "process", "network"}

    def test_unknown_name_raises(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="unknown executor"):
            run_experiment(spec.with_axis("executor", "gpu"))

    def test_custom_backend_registers_and_runs(self):
        calls = []

        def _tracing_serial(engine, n_workers):
            calls.append(n_workers)
            return SerialExecutor(engine.make_worker, runtime=engine.runtime)

        register_executor("tracing", _tracing_serial)
        try:
            hist = run_experiment(tiny_spec(executor="tracing"))
            assert len(hist) == TINY["rounds"]
            assert calls == [1]
        finally:
            from repro.api.registry import _EXECUTORS

            _EXECUTORS.pop("tracing", None)

    def test_auto_resolves_by_worker_count(self):
        spec = tiny_spec()
        e1 = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                    model_name="mlp", n_workers=1)
        e2 = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                    model_name="mlp", n_workers=2)
        try:
            assert e1.executor.name == "serial"
            assert e2.executor.name == "process"
            assert e2.executor.n_workers == 2
            records = [_records(e.run()) for e in (e1, e2)]
        finally:
            e1.close()
            e2.close()
        assert records[0] == records[1]

    def test_auto_fleet_from_spec_carries_the_cell_key(self):
        spec = tiny_spec(n_workers=2)
        options = spec.build_net_options()
        assert options["cell_key"] == spec.cell_key()
        assert options["net_workers"] is None  # the fleet is n_workers wide
        assert tiny_spec().build_net_options() is None


class TestSpecAndCLI:
    def test_spec_field_round_trips(self):
        spec = tiny_spec(executor="process", n_workers=2)
        back = ExperimentSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.executor == "process"

    def test_executor_changes_cell_key(self):
        assert tiny_spec().cell_key() != tiny_spec(executor="process").cell_key()

    def test_cli_flags(self, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(["train", "--dataset", "tiny", "--model", "mlp",
                       "--method", "fedavg", "--clients", "4",
                       "--clients-per-round", "2", "--rounds", "2",
                       "--batch-size", "20", "--executor", "process",
                       "--n-workers", "2"])
        assert rc == 0
        assert "best accuracy" in capsys.readouterr().out


class TestDeterminismAcrossBackends:
    """The tentpole contract: one seed, three backends, identical history."""

    @pytest.mark.parametrize("method,overrides", [
        ("fedavg", {}),
        ("fedtrip", {"mu": 0.4}),   # persistent per-client state
        ("moon", {}),               # frozen-model forwards + extras
        ("scaffold", {}),           # model-sized server broadcast payload
    ])
    def test_backends_match_serial(self, method, overrides):
        spec = tiny_spec(method=method, overrides=overrides, rounds=3,
                         n_clients=6, clients_per_round=3, seed=1)
        reference = run_experiment(spec.with_axis("executor", "serial"))
        for executor, n_workers in BACKENDS[1:]:
            hist = run_experiment(
                spec.with_axis("executor", executor).with_axis("n_workers", n_workers)
            )
            assert_identical_records(reference, hist, context=f"{method}/{executor}")

    def test_client_state_round_trips_processes(self):
        """FedTrip's historical model must survive the pickle round trip."""
        spec = tiny_spec(method="fedtrip", rounds=2, clients_per_round=4,
                         executor="process", n_workers=2)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", sampler=spec.build_sampler(),
                        n_workers=2, executor="process")
        try:
            engine.run()
            states = [c.state for c in engine.clients]
        finally:
            engine.close()
        assert all(state for state in states), "client state lost across processes"

    def test_end_to_end_smoke_on_selected_backend(self, executor_name, aggregator_name):
        """The backend chosen with ``pytest --executor`` trains end to end,
        under the aggregation rule chosen with ``pytest --aggregator``.

        CI re-runs the tier-1 suite once with ``--executor process`` and
        once with ``--aggregator trimmed_mean`` so the pooled path and the
        robust-aggregation path both see the full smoke regularly.
        """
        n_workers = 1 if executor_name in ("auto", "serial") else 2
        # A cohort of 4 every rule acts on: trimmed_mean at beta=0.25 trims
        # floor(0.25 * 4) = 1 update per side, and krum needs K >= f + 3.
        robust = {"beta": 0.25} if aggregator_name == "trimmed_mean" else {}
        hist = run_experiment(tiny_spec(executor=executor_name, n_workers=n_workers,
                                        clients_per_round=4, aggregator=aggregator_name,
                                        aggregator_kwargs=robust))
        assert len(hist) == TINY["rounds"]
        assert np.isfinite(hist.accuracies()).all()


class TestProcessExecutorContracts:
    def test_borrow_worker_is_none_and_evaluation_still_works(self):
        spec = tiny_spec(executor="process", n_workers=2)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", n_workers=2, executor="process")
        try:
            assert engine.executor.borrow_worker() is None
            engine.run_round()
            acc, loss = engine.evaluate_global()
            assert np.isfinite(acc) and np.isfinite(loss)
        finally:
            engine.close()

    def test_preamble_strategy_rejected(self):
        spec = tiny_spec(method="mimelite")
        for executor in ("auto", "process"):
            with pytest.raises(ValueError, match="preamble"):
                Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                       model_name="mlp", n_workers=2, executor=executor)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("method", ["mimelite", "feddane"])
    def test_preamble_strategy_rejected_by_the_spec(self, method):
        """Spec validation refuses a preamble strategy wherever the fleet
        would run it, before any data is built."""
        for executor, n_workers in [("process", 2), ("network", 2), ("auto", 2),
                                    ("process", 1)]:
            with pytest.raises(ValueError, match="preamble.*executor='serial'"):
                tiny_spec(method=method, executor=executor, n_workers=n_workers)
        for executor in ("serial", "auto"):
            assert tiny_spec(method=method, executor=executor).executor == executor

    def test_serial_rejects_more_than_one_worker(self):
        with pytest.raises(ValueError, match="executor='process'"):
            tiny_spec(executor="serial", n_workers=4)
        assert tiny_spec(executor="serial", n_workers=1).n_workers == 1

    def test_hand_built_serial_engine_rejects_more_than_one_worker(self):
        """The spec's words, from the one shared check: a hand-built
        engine may not take a worker count it would ignore."""
        spec = tiny_spec()
        with pytest.raises(ValueError, match="n_workers=4 would do nothing"):
            Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                   model_name="mlp", executor="serial", n_workers=4)

    def test_custom_model_fn_rejected(self):
        from repro.models import build_mlp

        spec = tiny_spec()
        data = spec.build_data()
        for executor in ("process", "auto"):
            with pytest.raises(ValueError, match="custom model_fn.*executor='serial'"):
                Engine(data, spec.build_strategy(), spec.build_config(),
                       model_fn=lambda: build_mlp(data.spec.input_shape,
                                                  data.spec.num_classes),
                       n_workers=2, executor=executor)
        assert multiprocessing.active_children() == []

    def test_task_spec_is_picklable(self):
        task = ClientTaskSpec(client_id=3, round_idx=7,
                              state={"w": [np.ones(4)]})
        back = pickle.loads(pickle.dumps(task))
        assert back.client_id == 3 and back.round_idx == 7
        np.testing.assert_array_equal(back.state["w"][0], np.ones(4))

    def test_weight_layout_round_trip(self):
        weights = [np.arange(6, dtype=np.float32).reshape(2, 3),
                   np.ones(3, dtype=np.float32),
                   np.array(2.5, dtype=np.float32)]  # 0-d
        layout = WeightLayout.from_weights(weights)
        buf = bytearray(layout.total_bytes)
        views = layout.views(buf, writeable=True)
        for view, w in zip(views, weights):
            np.copyto(view, w)
        reread = layout.views(buf, writeable=False)
        for view, w in zip(reread, weights):
            np.testing.assert_array_equal(view, w)
            assert view.dtype == w.dtype
            assert not view.flags.writeable

    def test_shared_memory_broadcast_updates_workers(self):
        """Weights written between rounds must be what workers read next."""
        spec = tiny_spec(executor="process", n_workers=2, rounds=3)
        serial = run_experiment(tiny_spec(executor="serial", rounds=3))
        pooled = run_experiment(spec)
        # Round 2+ accuracy depends on round 1's aggregated weights reaching
        # the workers; identical trajectories prove the broadcast works.
        assert_identical_records(serial, pooled, context="broadcast")

    def test_executor_close_is_idempotent(self):
        spec = tiny_spec(executor="process", n_workers=2)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", n_workers=2, executor="process")
        engine.run_round()
        engine.close()
        engine.close()  # must not raise

    def test_process_executor_standalone_rejects_bad_weight_count(self):
        spec = tiny_spec()
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name="mlp", n_workers=2, executor="process")
        try:
            with pytest.raises(ValueError, match="weight tree"):
                engine.executor.broadcast(ParamPlane.from_tree(engine.server.weights[:-1]))
        finally:
            engine.close()
