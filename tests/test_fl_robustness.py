"""Robustness and edge-case behaviour of the FL runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_federated_data
from repro.algorithms import available_strategies, build_strategy
from repro.data import ArrayDataset
from repro.fl import Client, FixedSampler


class TestNumericalHealth:
    @pytest.mark.parametrize("method", sorted(available_strategies()))
    def test_weights_stay_finite(self, tiny_data, small_config, method):
        """Every registered algorithm must produce finite weights & metrics."""
        strat = build_strategy(method, model="mlp", dataset="tiny")
        sim = Engine(tiny_data, strat, small_config, model_name="mlp")
        hist = sim.run()
        for w in sim.server.weights:
            assert np.isfinite(w).all(), f"{method} produced non-finite weights"
        acc = hist.accuracies()
        assert np.isfinite(acc[~np.isnan(acc)]).all()
        sim.close()


class TestEdgeConfigurations:
    def test_batch_larger_than_shard(self, tiny_data):
        cfg = FLConfig(rounds=2, n_clients=6, clients_per_round=3,
                       batch_size=500, lr=0.05, seed=0)
        sim = Engine(tiny_data, build_strategy("fedtrip"), cfg, model_name="mlp")
        hist = sim.run()
        assert len(hist) == 2
        sim.close()

    def test_full_participation(self, tiny_data):
        cfg = FLConfig(rounds=2, n_clients=6, clients_per_round=6,
                       batch_size=20, lr=0.05, seed=0)
        sim = Engine(tiny_data, build_strategy("fedtrip"), cfg, model_name="mlp")
        sim.run()
        # Under full participation every client trains every round -> xi = 1.
        for c in sim.clients:
            assert c.state["last_round"] == 1
        sim.close()

    def test_single_client_per_round(self, tiny_data):
        cfg = FLConfig(rounds=3, n_clients=6, clients_per_round=1,
                       batch_size=20, lr=0.05, seed=0)
        sim = Engine(tiny_data, build_strategy("fedavg"), cfg, model_name="mlp")
        hist = sim.run()
        assert all(len(r.selected) == 1 for r in hist.records)
        sim.close()

    def test_batch_size_one(self, tiny_data):
        cfg = FLConfig(rounds=1, n_clients=6, clients_per_round=2,
                       batch_size=1, lr=0.01, seed=0)
        sim = Engine(tiny_data, build_strategy("fedavg"), cfg, model_name="mlp")
        sim.run()
        sim.close()

    def test_multiple_local_epochs_deterministic(self, tiny_data):
        cfg = FLConfig(rounds=2, n_clients=6, clients_per_round=3,
                       batch_size=20, local_epochs=3, lr=0.02, seed=3)
        runs = []
        for _ in range(2):
            sim = Engine(tiny_data, build_strategy("fedtrip"), cfg, model_name="mlp")
            runs.append(sim.run().accuracies())
            sim.close()
        np.testing.assert_array_equal(runs[0], runs[1])


class TestFedTripStaleness:
    def test_xi_matches_participation_schedule(self, tiny_data):
        """Drive a fixed schedule and verify the xi each client sees."""
        from repro.algorithms import FedTrip

        observed = {}

        class ProbeFedTrip(FedTrip):
            def on_round_start(self, ctx):
                super().on_round_start(ctx)
                observed.setdefault(ctx.client_id, []).append(ctx.scratch["xi"])

        cfg = FLConfig(rounds=5, n_clients=6, clients_per_round=2,
                       batch_size=20, lr=0.02, seed=0)
        # Client 0 participates rounds 0,1,4; client 1 rounds 0,2; etc.
        schedule = [[0, 1], [0, 2], [1, 3], [2, 4], [0, 5]]
        sim = Engine(tiny_data, ProbeFedTrip(mu=0.1), cfg, model_name="mlp",
                         sampler=FixedSampler(schedule, n_clients=6))
        sim.run()
        sim.close()
        assert observed[0] == [0.0, 1.0, 3.0]   # fresh, gap 1, gap 3
        assert observed[1] == [0.0, 2.0]        # fresh, gap 2
        assert observed[2] == [0.0, 2.0]
        assert observed[5] == [0.0]


class TestUpdateObservers:
    def test_observer_sees_pre_aggregation_weights(self, tiny_data, small_config):
        seen = []

        def observer(updates, global_weights):
            seen.append((len(updates), [w.copy() for w in global_weights]))

        sim = Engine(tiny_data, build_strategy("fedavg"), small_config,
                         model_name="mlp")
        init = [w.copy() for w in sim.server.weights]
        sim.update_observers.append(observer)
        sim.run_round()
        assert len(seen) == 1
        assert seen[0][0] == small_config.clients_per_round
        # The observer got the *pre*-aggregation global weights.
        for a, b in zip(seen[0][1], init):
            np.testing.assert_array_equal(a, b)
        sim.close()

    def test_multiple_observers(self, tiny_data, small_config):
        calls = {"a": 0, "b": 0}
        sim = Engine(tiny_data, build_strategy("fedavg"), small_config,
                         model_name="mlp")
        sim.update_observers.append(lambda u, g: calls.__setitem__("a", calls["a"] + 1))
        sim.update_observers.append(lambda u, g: calls.__setitem__("b", calls["b"] + 1))
        sim.run()
        assert calls["a"] == calls["b"] == small_config.rounds
        sim.close()


class TestDataEdgeCases:
    def test_uneven_shard_sizes_aggregate_by_weight(self):
        """FedAvg weighting respects different |D_k| (Eq. 2)."""
        data = build_federated_data("tiny", n_clients=4, partition="iid", seed=0)
        # Manually shrink one shard to force unequal sizes.
        data.client_shards[0] = data.client_shards[0][:10]
        cfg = FLConfig(rounds=1, n_clients=4, clients_per_round=4,
                       batch_size=20, lr=0.05, seed=0)
        sim = Engine(data, build_strategy("fedavg"), cfg, model_name="mlp")
        sim.run()
        sim.close()

    def test_client_requires_nonempty_shard(self):
        with pytest.raises(ValueError):
            Client(0, ArrayDataset(np.zeros((0, 1), dtype=np.float32),
                                   np.zeros(0, dtype=np.int64)))
