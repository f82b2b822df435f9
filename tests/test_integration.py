"""End-to-end learning behaviour on small but real federated workloads.

These tests assert the qualitative claims the paper's evaluation rests on,
at reduced scale: every method learns; FedTrip is competitive with the best
baseline under heterogeneity; MOON pays a large compute premium; FedTrip's
communication premium is zero.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.algorithms import PAPER_EVALUATED


@pytest.fixture(scope="module")
def mini_data():
    return build_federated_data(
        "mini_mnist", n_clients=10, partition="dirichlet", alpha=0.5, seed=0
    )


@pytest.fixture(scope="module")
def mini_config():
    return FLConfig(
        rounds=12, n_clients=10, clients_per_round=4, batch_size=50, lr=0.05, seed=0
    )


@pytest.fixture(scope="module")
def histories(mini_data, mini_config):
    """Train all six paper methods once; share across assertions."""
    out = {}
    for name in PAPER_EVALUATED:
        strat = build_strategy(name, model="mlp", dataset="mini_mnist")
        sim = Engine(mini_data, strat, mini_config, model_name="mlp")
        out[name] = (sim, sim.run())
    return out


class TestAllMethodsLearn:
    def test_every_method_beats_chance(self, histories):
        for name, (_, hist) in histories.items():
            assert hist.best_accuracy() > 30.0, f"{name} failed to learn (10% = chance)"

    def test_every_method_improves_over_time(self, histories):
        for name, (_, hist) in histories.items():
            acc = hist.accuracies()
            assert np.nanmean(acc[-3:]) > np.nanmean(acc[:2]) + 5.0, name


class TestPaperShapeClaims:
    def test_fedtrip_competitive_with_best(self, histories):
        """FedTrip's final accuracy is within a few points of the best method
        (in the paper it usually *is* the best)."""
        finals = {
            name: hist.final_accuracy_stats(last_k=3)["mean"]
            for name, (_, hist) in histories.items()
        }
        best = max(finals.values())
        assert finals["fedtrip"] >= best - 6.0, finals

    def test_fedtrip_not_slower_than_fedavg_to_target(self, histories):
        target = 60.0
        r_trip = histories["fedtrip"][1].rounds_to_accuracy(target)
        r_avg = histories["fedavg"][1].rounds_to_accuracy(target)
        assert r_trip is not None
        if r_avg is not None:
            assert r_trip <= r_avg + 2

    def test_moon_compute_premium(self, histories):
        """Table V's core claim: MOON's FLOPs dwarf FedTrip's."""
        f_moon = histories["moon"][1].flops()[-1]
        f_trip = histories["fedtrip"][1].flops()[-1]
        f_avg = histories["fedavg"][1].flops()[-1]
        assert f_moon > 1.5 * f_trip
        assert f_trip < 1.1 * f_avg

    def test_no_extra_communication_for_fedtrip(self, histories):
        c_trip = histories["fedtrip"][1].comm_bytes()[-1]
        c_avg = histories["fedavg"][1].comm_bytes()[-1]
        assert c_trip == pytest.approx(c_avg)


class TestHeterogeneityResponse:
    def test_orthogonal_partition_trains(self):
        data = build_federated_data(
            "mini_mnist", n_clients=10, partition="orthogonal", n_clusters=5, seed=0
        )
        cfg = FLConfig(rounds=10, n_clients=10, clients_per_round=4,
                       batch_size=50, lr=0.05, seed=0)
        sim = Engine(data, build_strategy("fedtrip", model="mlp"), cfg, model_name="mlp")
        hist = sim.run()
        assert hist.best_accuracy() > 25.0
        sim.close()

    def test_skew_hurts_fedavg(self):
        """Dir-0.1 should converge slower than IID for plain FedAvg."""
        cfg = FLConfig(rounds=10, n_clients=10, clients_per_round=4,
                       batch_size=50, lr=0.05, seed=0)
        accs = {}
        for kind, kwargs in (("iid", {}), ("dirichlet", {"alpha": 0.1})):
            data = build_federated_data("mini_mnist", n_clients=10, partition=kind,
                                        seed=0, **kwargs)
            sim = Engine(data, build_strategy("fedavg"), cfg, model_name="mlp")
            accs[kind] = sim.run().final_accuracy_stats(last_k=3)["mean"]
            sim.close()
        assert accs["iid"] > accs["dirichlet"]


class TestLocalEpochs:
    def test_more_epochs_faster_early_accuracy(self, mini_data):
        """Table VII: larger aggregation intervals raise early-round accuracy."""
        accs = {}
        for epochs in (1, 5):
            cfg = FLConfig(rounds=4, n_clients=10, clients_per_round=4,
                           batch_size=50, lr=0.05, local_epochs=epochs, seed=0)
            sim = Engine(mini_data, build_strategy("fedtrip", model="mlp"),
                             cfg, model_name="mlp")
            accs[epochs] = sim.run().best_accuracy()
            sim.close()
        assert accs[5] > accs[1]


class TestScalability:
    def test_4_of_50_runs(self):
        """The Table VI participation regime at mini scale."""
        data = build_federated_data("mini_mnist", n_clients=50, partition="dirichlet",
                                    alpha=0.5, seed=0, samples_per_client=80)
        cfg = FLConfig(rounds=6, n_clients=50, clients_per_round=4,
                       batch_size=40, lr=0.05, seed=0)
        sim = Engine(data, build_strategy("fedtrip", model="mlp"), cfg, model_name="mlp")
        hist = sim.run()
        assert hist.best_accuracy() > 25.0
        sim.close()
