"""The unified ExperimentSpec + callback-driven Engine front door."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import (
    Callback,
    Checkpointer,
    DriftTracker,
    EarlyStopping,
    Engine,
    ExperimentSpec,
    available_samplers,
    build_mode,
    build_sampler,
    register_sampler,
    run_experiment,
)
from repro.algorithms import build_strategy
from repro.cli import main as cli_main
from repro.data import build_federated_data
from repro.fl import FLConfig
from repro.fl.availability import DropoutSampler
from repro.fl.executor import SerialExecutor, WorkerContext
from repro.io import load_checkpoint, load_history, save_history
from repro.models import build_mlp

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=2, batch_size=20, lr=0.05)
#: TINY on a method that takes hyperparameter overrides (FedAvg takes none).
TINY_TRIP = {**TINY, "method": "fedtrip"}


def tiny_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**TINY, **overrides})


class TestExperimentSpec:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(**TINY_TRIP, overrides={"mu": 0.4},
                              sampler="dropout", sampler_kwargs={"dropout": 0.2})
        back = ExperimentSpec.from_dict(spec.to_dict())
        assert back == spec
        assert back.cell_key() == spec.cell_key()

    def test_to_dict_is_json_serializable(self):
        spec = ExperimentSpec(**TINY_TRIP, overrides={"mu": 0.4})
        payload = json.loads(json.dumps(spec.to_dict()))
        assert ExperimentSpec.from_dict(payload) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentSpec.from_dict({"dataset": "tiny", "typo_field": 1})

    def test_negative_seed_rejected_at_validation(self):
        # Not later, inside build_data, with NumPy's SeedSequence error.
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ExperimentSpec(**{**TINY, "seed": -1})
        assert ExperimentSpec(**{**TINY, "seed": 0}).seed == 0

    def test_overrides_a_strategy_does_not_take_are_rejected_at_validation(self):
        """Not later, after the data build, as the constructor's
        ``TypeError``; the error names the keys the strategy takes."""
        with pytest.raises(ValueError, match="fedavg takes no hyperparameter 'mu'; "
                                             "it accepts no overrides"):
            ExperimentSpec(method="fedavg", overrides={"mu": 0.1})
        with pytest.raises(ValueError, match="'tau'; it accepts mu, xi_mode, xi_value, "
                                             "participation_rate, historical_source"):
            ExperimentSpec(method="fedtrip", overrides={"tau": 0.5})
        # AdaptiveFedTrip forwards **kwargs to FedTrip: those keys are its too.
        assert ExperimentSpec(method="fedtrip_adaptive",
                              overrides={"xi_mode": "constant"}).overrides
        with pytest.raises(ValueError, match="fedavg takes no hyperparameter"):
            build_strategy("fedavg", mu=0.1)

    def test_overrides_normalized_to_sorted_pairs(self):
        a = ExperimentSpec(**TINY_TRIP, overrides={"xi_value": 0.1, "mu": 0.4})
        b = ExperimentSpec(**TINY_TRIP, overrides=(("xi_value", 0.1), ("mu", 0.4)))
        assert a == b
        assert a.overrides == (("mu", 0.4), ("xi_value", 0.1))

    def test_spec_is_frozen_and_hashable(self):
        spec = ExperimentSpec(**TINY)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.lr = 0.1
        assert spec in {spec}

    def test_list_valued_kwargs_stay_hashable(self):
        spec = ExperimentSpec(**TINY, sampler="weighted",
                              sampler_kwargs={"weights": [1.0, 2.0, 1.0, 1.0]})
        assert spec in {spec}  # lists canonicalized to tuples
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
        hist = run_experiment(spec)
        assert len(hist) == TINY["rounds"]

    def test_run_experiment_accepts_prebuilt_data(self):
        spec = ExperimentSpec(**TINY)
        data = spec.build_data()
        h1 = run_experiment(spec, data=data)
        h2 = run_experiment(spec)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())

    def test_cell_key_stable_and_discriminating(self):
        spec = ExperimentSpec(**TINY_TRIP)
        assert spec.cell_key() == ExperimentSpec(**TINY_TRIP).cell_key()
        assert spec.cell_key() != spec.with_axis("lr", 0.06).cell_key()
        assert spec.cell_key() != spec.with_axis("mu", 0.4).cell_key()
        # 16-hex-digit blake2b digest; independent of construction order.
        assert len(spec.cell_key()) == 16
        int(spec.cell_key(), 16)

    def test_with_axis_unknown_name_goes_to_overrides(self):
        spec = ExperimentSpec(**TINY_TRIP)
        cell = spec.with_axis("mu", 0.8)
        assert dict(cell.overrides) == {"mu": 0.8}
        assert spec.overrides == ()  # frozen original untouched

    def test_builders(self):
        spec = ExperimentSpec(**TINY, target_accuracy=90.0)
        config = spec.build_config()
        assert isinstance(config, FLConfig)
        assert config.target_accuracy == 90.0
        data = spec.build_data()
        assert data.n_clients == spec.n_clients
        assert spec.build_strategy().name == "fedavg"
        assert spec.build_sampler().clients_per_round == spec.clients_per_round


class TestSamplerRegistry:
    def test_builtins_registered(self):
        assert {"uniform", "weighted", "fixed", "dropout", "diurnal"} <= set(
            available_samplers()
        )

    def test_build_dropout(self):
        s = build_sampler("dropout", n_clients=10, clients_per_round=4, seed=0,
                          dropout=0.3)
        assert isinstance(s, DropoutSampler)
        assert s.dropout == 0.3
        assert len(s.select(0)) <= 10

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown sampler"):
            build_sampler("nope", n_clients=4, clients_per_round=2)

    def test_weighted_needs_matching_length(self):
        with pytest.raises(ValueError, match="weights"):
            build_sampler("weighted", n_clients=4, clients_per_round=2,
                          weights=[1.0, 2.0])

    def test_custom_registration(self):
        class LastK:
            def __init__(self, n_clients, clients_per_round):
                self.n_clients = n_clients
                self.clients_per_round = clients_per_round

            def select(self, round_idx):
                return list(range(self.n_clients - self.clients_per_round,
                                  self.n_clients))

        register_sampler("lastk", lambda n_clients, clients_per_round, seed:
                         LastK(n_clients, clients_per_round))
        try:
            spec = ExperimentSpec(**TINY, sampler="lastk")
            hist = run_experiment(spec)
            assert all(rec.selected == [2, 3] for rec in hist.records)
        finally:
            import repro.api.registry as reg
            del reg._SAMPLERS["lastk"]

    def test_spec_runs_with_availability_sampler(self):
        hist = run_experiment(ExperimentSpec(**TINY, sampler="diurnal",
                                             sampler_kwargs={"phases": 2}))
        assert len(hist) == TINY["rounds"]


class _Spy(Callback):
    def __init__(self):
        self.calls = []

    def on_round_start(self, engine, round_idx, selected):
        self.calls.append(("on_round_start", round_idx, tuple(selected)))

    def on_client_update(self, engine, round_idx, update):
        self.calls.append(("on_client_update", round_idx, update.client_id))

    def on_aggregate(self, engine, round_idx, updates, global_weights):
        self.calls.append(("on_aggregate", round_idx, len(updates)))

    def on_evaluate(self, engine, round_idx, accuracy, loss):
        self.calls.append(("on_evaluate", round_idx, accuracy))

    def on_round_end(self, engine, record):
        self.calls.append(("on_round_end", record.round_idx))

    def on_fit_end(self, engine, history):
        self.calls.append(("on_fit_end", len(history)))


class TestCallbackLifecycle:
    def test_invocation_order(self):
        spy = _Spy()
        run_experiment(ExperimentSpec(**TINY), callbacks=[spy])
        names = [c[0] for c in spy.calls]
        per_round = ["on_round_start",
                     "on_client_update", "on_client_update",
                     "on_aggregate", "on_evaluate", "on_round_end"]
        assert names == per_round * TINY["rounds"] + ["on_fit_end"]

    def test_on_evaluate_skipped_between_eval_every(self):
        spy = _Spy()
        spec = tiny_spec(rounds=4, eval_every=3)
        run_experiment(spec, callbacks=[spy])
        evaluated = [c[1] for c in spy.calls if c[0] == "on_evaluate"]
        assert evaluated == [0, 3]  # every 3rd round + the last round

    def test_aggregate_sees_pre_aggregation_weights(self):
        captured = {}

        class Grab(Callback):
            def on_aggregate(self, engine, round_idx, updates, global_weights):
                if round_idx == 0:
                    captured["initial"] = [w.copy() for w in global_weights]

        spec = tiny_spec(rounds=1)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name=spec.model, callbacks=[Grab()])
        initial = [w.copy() for w in engine.server.weights]
        engine.run()
        engine.close()
        for a, b in zip(captured["initial"], initial):
            np.testing.assert_array_equal(a, b)

    def test_legacy_update_observers_still_fire(self):
        seen = []
        spec = ExperimentSpec(**TINY)
        engine = Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                        model_name=spec.model)
        engine.update_observers.append(lambda updates, weights: seen.append(len(updates)))
        engine.run()
        engine.close()
        assert seen == [TINY["clients_per_round"]] * TINY["rounds"]


class TestEarlyStopping:
    def test_target_accuracy_stops_and_records_reason(self):
        spec = tiny_spec(rounds=50, target_accuracy=10.0)
        hist = run_experiment(spec)
        assert len(hist) < 50
        assert "target_accuracy" in hist.stop_reason

    def test_legacy_simulation_honours_config_target(self, tiny_data):
        config = FLConfig(rounds=50, n_clients=6, clients_per_round=3,
                          batch_size=20, lr=0.05, seed=1, target_accuracy=10.0)
        sim = Engine(tiny_data, build_strategy("fedavg"), config, model_name="mlp")
        hist = sim.run()
        sim.close()
        assert len(hist) < 50
        assert "target_accuracy" in hist.stop_reason

    def test_unreached_target_runs_all_rounds(self):
        spec = ExperimentSpec(**TINY, target_accuracy=101.0)
        hist = run_experiment(spec)
        assert len(hist) == TINY["rounds"]
        assert hist.stop_reason is None

    def test_patience_stop(self):
        stopper = EarlyStopping(patience=2, min_delta=200.0)  # nothing improves by 200pts
        spec = tiny_spec(rounds=30)
        hist = run_experiment(spec, callbacks=[stopper])
        # first eval sets best; the next two are "stale" -> stop at round 2.
        assert len(hist) == 3
        assert "no improvement" in hist.stop_reason

    def test_requires_a_criterion(self):
        with pytest.raises(ValueError):
            EarlyStopping()

    def test_stop_reason_survives_history_io(self, tmp_path):
        hist = run_experiment(tiny_spec(rounds=50, target_accuracy=10.0))
        back = load_history(save_history(hist, str(tmp_path / "h.json")))
        assert back.stop_reason == hist.stop_reason
        assert len(back) == len(hist)


class TestEquivalence:
    """run_experiment(spec) must reproduce the imperative Engine path exactly."""

    @pytest.mark.parametrize("method,overrides", [("fedavg", {}), ("fedtrip", {"mu": 0.4})])
    def test_identical_round_records(self, method, overrides):
        spec = ExperimentSpec(dataset="tiny", model="mlp", method=method,
                              partition="dirichlet", alpha=0.5,
                              n_clients=6, clients_per_round=3, rounds=3,
                              batch_size=20, lr=0.05, seed=1, overrides=overrides)
        new = run_experiment(spec)

        data = build_federated_data("tiny", n_clients=6, partition="dirichlet",
                                    alpha=0.5, seed=1)
        config = FLConfig(rounds=3, n_clients=6, clients_per_round=3,
                          batch_size=20, lr=0.05, seed=1)
        strategy = build_strategy(method, model="mlp", dataset="tiny", **overrides)
        sim = Engine(data, strategy, config, model_name="mlp")
        legacy = sim.run()
        sim.close()

        assert len(new) == len(legacy)
        for a, b in zip(new.records, legacy.records):
            # Byte-identical except wall time, which is nondeterministic.
            assert a.round_idx == b.round_idx
            assert a.selected == b.selected
            assert a.test_accuracy == b.test_accuracy
            assert a.test_loss == b.test_loss
            assert a.mean_train_loss == b.mean_train_loss
            assert a.cumulative_flops == b.cumulative_flops
            assert a.cumulative_comm_bytes == b.cumulative_comm_bytes

    def test_run_experiment_deterministic(self):
        spec = ExperimentSpec(**TINY)
        h1, h2 = run_experiment(spec), run_experiment(spec)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())
        np.testing.assert_array_equal(h1.train_losses(), h2.train_losses())


class TestBorrowWorker:
    def _make_worker(self):
        model = build_mlp((1, 8, 8), 4)
        from repro.nn.losses import CrossEntropyLoss
        from repro.optim import SGD
        return WorkerContext(model, build_mlp((1, 8, 8), 4),
                             SGD(model.parameters(), lr=0.1), CrossEntropyLoss())

    def test_serial_returns_resident_worker(self):
        ex = SerialExecutor(self._make_worker)
        assert isinstance(ex.borrow_worker(), WorkerContext)
        assert ex.borrow_worker() is ex.borrow_worker()
        ex.close()

    def test_fleet_engine_evaluates_without_resident_worker(self):
        spec = ExperimentSpec(**TINY, n_workers=2)  # "auto": the fleet
        engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
        try:
            assert engine.executor.name == "process"
            assert engine.executor.borrow_worker() is None
            hist = engine.run()
        finally:
            engine.close()
        assert np.isfinite(hist.accuracies()).all()


class TestBuiltinCallbacks:
    def test_checkpointer_writes_rounds_and_final(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), every=1)
        hist = run_experiment(ExperimentSpec(**TINY), callbacks=[ckpt])
        assert len(ckpt.saved) == TINY["rounds"] + 1  # per-round + final
        # Per-round checkpoints carry their own round index and accuracy...
        for i in range(TINY["rounds"]):
            meta = load_checkpoint(build_mlp((1, 8, 8), 4),
                                   str(tmp_path / f"round_{i}.npz"))
            assert meta["round"] == i
            assert meta["test_accuracy"] == hist.records[i].test_accuracy
        # ...while final.npz records the number of completed rounds.
        meta = load_checkpoint(build_mlp((1, 8, 8), 4), str(tmp_path / "final.npz"))
        assert meta["round"] == TINY["rounds"]

    def test_drift_tracker_callback(self):
        tracker = DriftTracker()
        run_experiment(ExperimentSpec(**TINY), callbacks=[tracker])
        summary = tracker.summary()
        assert summary["rounds"] == TINY["rounds"]
        assert summary["mean_divergence"] >= 0.0


class TestCLIFrontDoor:
    ARGS = ["--dataset", "tiny", "--model", "mlp", "--clients", "4",
            "--clients-per-round", "2", "--rounds", "2", "--batch-size", "20"]

    def test_train_with_sampler_flag(self, capsys):
        rc = cli_main(["train", *self.ARGS, "--method", "fedavg",
                       "--sampler", "dropout", "--sampler-arg", "dropout=0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sampler=dropout" in out

    def test_train_target_accuracy_stops(self, capsys):
        rc = cli_main(["train", *self.ARGS, "--method", "fedavg",
                       "--rounds", "50", "--target-accuracy", "10"])
        assert rc == 0
        assert "stopped early" in capsys.readouterr().out

    def test_bad_sampler_arg_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["train", *self.ARGS, "--sampler-arg", "not-a-pair"])

    def test_negative_seed_flag_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            cli_main(["train", *self.ARGS, "--seed", "-1"])
