"""Declarative sweep runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ExperimentCell, SweepRunner, SweepSpec, run_cell


BASE = ExperimentCell(dataset="tiny", model="mlp", method="fedavg",
                      n_clients=4, clients_per_round=2, rounds=2,
                      batch_size=20, lr=0.05)


class TestExperimentCell:
    def test_with_axis_known_field(self):
        cell = BASE.with_axis("lr", 0.1)
        assert cell.lr == 0.1
        assert BASE.lr == 0.05  # frozen original untouched

    def test_with_axis_unknown_goes_to_overrides(self):
        cell = BASE.with_axis("method", "fedtrip").with_axis("mu", 0.8)
        assert dict(cell.overrides) == {"mu": 0.8}

    def test_config_dict_roundtrip(self):
        cell = BASE.with_axis("method", "fedtrip").with_axis("mu", 0.8)
        d = cell.config_dict()
        assert d["overrides"] == {"mu": 0.8}
        assert d["dataset"] == "tiny"


class TestSweepSpec:
    def test_cross_product_size(self):
        spec = SweepSpec(BASE, axes={"lr": [0.01, 0.1], "seed": [0, 1, 2]})
        assert len(spec) == 6
        cells = list(spec.cells())
        assert len(cells) == 6
        assert len({(c.lr, c.seed) for c in cells}) == 6

    def test_no_axes_single_cell(self):
        spec = SweepSpec(BASE)
        assert len(spec) == 1
        assert list(spec.cells()) == [BASE]


class TestRunCell:
    def test_produces_history(self):
        hist = run_cell(BASE)
        assert len(hist) == BASE.rounds
        assert hist.best_accuracy() > 0

    def test_deterministic(self):
        h1, h2 = run_cell(BASE), run_cell(BASE)
        np.testing.assert_array_equal(h1.accuracies(), h2.accuracies())

    def test_overrides_applied(self):
        """FedTrip with mu=0 must match FedAvg exactly."""
        trip_cell = ExperimentCell(dataset="tiny", model="mlp", method="fedtrip",
                                   n_clients=4, clients_per_round=2, rounds=2,
                                   batch_size=20, lr=0.05, overrides=(("mu", 0.0),))
        avg_cell = ExperimentCell(dataset="tiny", model="mlp", method="fedavg",
                                  n_clients=4, clients_per_round=2, rounds=2,
                                  batch_size=20, lr=0.05)
        np.testing.assert_allclose(run_cell(avg_cell).accuracies(),
                                   run_cell(trip_cell).accuracies(), atol=1e-5)


class TestSweepRunner:
    def test_run_without_store(self):
        spec = SweepSpec(BASE, axes={"seed": [0, 1]})
        results = SweepRunner().run(spec)
        assert len(results) == 2

    def test_store_caching(self, tmp_path):
        spec = SweepSpec(BASE, axes={"seed": [0, 1]})
        runner = SweepRunner(store_dir=str(tmp_path / "runs"))
        first = runner.run(spec)
        # Second run must come from disk (same values).
        second = runner.run(spec)
        for key in first:
            np.testing.assert_array_equal(first[key].accuracies(),
                                          second[key].accuracies())
        assert len(list(runner.store.keys())) == 2

    def test_summarize_rows(self, tmp_path):
        spec = SweepSpec(BASE, axes={"lr": [0.01, 0.1]})
        runner = SweepRunner(store_dir=str(tmp_path / "runs"))
        rows = runner.summarize(spec, metric="best_accuracy")
        assert len(rows) == 2
        assert {r["lr"] for r in rows} == {0.01, 0.1}
        assert all("best_accuracy" in r for r in rows)

    def test_summarize_with_kwargs(self, tmp_path):
        spec = SweepSpec(BASE, axes={"seed": [0]})
        runner = SweepRunner(store_dir=str(tmp_path / "runs"))
        rows = runner.summarize(spec, metric="rounds_to_accuracy", target=5.0)
        assert len(rows) == 1

    def test_override_axis_sweep(self, tmp_path):
        base = ExperimentCell(dataset="tiny", model="mlp", method="fedtrip",
                              n_clients=4, clients_per_round=2, rounds=2,
                              batch_size=20, lr=0.05)
        spec = SweepSpec(base, axes={"mu": [0.1, 0.4]})
        rows = SweepRunner().summarize(spec, metric="best_accuracy")
        assert {r["mu"] for r in rows} == {0.1, 0.4}
