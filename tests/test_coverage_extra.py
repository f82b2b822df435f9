"""Additional cross-cutting coverage: the worker fleet x algorithms, model/dataset
matrix smoke tests, persistence round-trips through real simulations."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.data import generate_dataset, get_spec
from repro.io import load_history, save_history


class TestFleetAlgorithms:
    """The loopback fleet ("auto" above one worker) must be bit-identical to
    serial for stateful strategies too (worker processes own model replicas;
    client state travels with each task and comes back with its result)."""

    @pytest.mark.parametrize("method", ["moon", "fedgkd", "scaffold", "feddyn"])
    def test_fleet_matches_serial(self, tiny_data, small_config, method):
        hists = []
        for workers in (1, 2):
            strat = build_strategy(method, model="mlp", dataset="tiny")
            sim = Engine(tiny_data, strat, small_config, model_name="mlp",
                             n_workers=workers)
            hists.append(sim.run().accuracies())
            sim.close()
        np.testing.assert_array_equal(hists[0], hists[1])


class TestModelDatasetMatrix:
    @pytest.mark.parametrize("model", ["mlp", "cnn"])
    @pytest.mark.parametrize("dataset", ["tiny", "tiny_rgb"])
    def test_one_round_smoke(self, model, dataset):
        data = build_federated_data(dataset, n_clients=4, partition="iid", seed=0)
        cfg = FLConfig(rounds=1, n_clients=4, clients_per_round=2,
                       batch_size=20, lr=0.05, seed=0)
        sim = Engine(data, build_strategy("fedtrip"), cfg, model_name=model)
        rec = sim.run_round()
        assert rec.test_accuracy is not None
        sim.close()

    def test_alexnet_smoke(self):
        data = build_federated_data("tiny_rgb", n_clients=4, partition="iid", seed=0)
        cfg = FLConfig(rounds=1, n_clients=4, clients_per_round=2,
                       batch_size=20, lr=0.02, seed=0)
        sim = Engine(data, build_strategy("fedavg"), cfg, model_name="alexnet")
        rec = sim.run_round()
        assert rec.test_accuracy is not None
        sim.close()


class TestPaperScaleSpecsGenerate:
    """Paper-scale specs must generate correctly when sizes are overridden
    (full 60k-sample generation is out of test budget, 300 samples is not)."""

    @pytest.mark.parametrize("name", ["mnist", "fmnist", "emnist", "cifar10"])
    def test_generates_with_override(self, name):
        data = generate_dataset(name, seed=0, train_size=300, test_size=60)
        spec = get_spec(name)
        assert data.x_train.shape == (300, *spec.input_shape)
        assert int(data.y_train.max()) <= spec.num_classes - 1
        assert np.isfinite(data.x_train).all()


class TestHistoryPersistenceViaSimulation:
    def test_simulated_history_roundtrips(self, tiny_data, small_config, tmp_path):
        sim = Engine(tiny_data, build_strategy("fedtrip"), small_config,
                         model_name="mlp")
        hist = sim.run()
        sim.close()
        path = save_history(hist, str(tmp_path / "h.json"))
        back = load_history(path)
        np.testing.assert_allclose(back.accuracies(), hist.accuracies())
        assert back.rounds_to_accuracy(50.0) == hist.rounds_to_accuracy(50.0)
        assert back.final_accuracy_stats() == hist.final_accuracy_stats()


class TestSamplerPluggability:
    def test_weighted_sampler_in_simulation(self, tiny_data, small_config):
        from repro.fl import WeightedSampler

        sampler = WeightedSampler([1.0] * 6, clients_per_round=3, seed=0)
        sim = Engine(tiny_data, build_strategy("fedavg"), small_config,
                         model_name="mlp", sampler=sampler)
        hist = sim.run()
        assert len(hist) == small_config.rounds
        sim.close()

    def test_participation_skew_changes_selection_counts(self, tiny_data, small_config):
        from collections import Counter

        from repro.fl import WeightedSampler

        sampler = WeightedSampler([10, 10, 10, 0.1, 0.1, 0.1], 3, seed=0)
        counts: Counter = Counter()
        for t in range(50):
            counts.update(sampler.select(t))
        assert counts[0] > counts[3]
