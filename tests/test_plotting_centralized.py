"""Terminal plotting primitives and the centralized baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import box_plot, heatmap, line_plot, scatter
from repro.fl import train_centralized
from repro.models import build_mlp


class TestLinePlot:
    def test_renders_series_and_legend(self):
        out = line_plot({"fedtrip": [1, 5, 9], "fedavg": [1, 3, 5]}, width=30, height=8)
        assert "*=fedtrip" in out
        assert "o=fedavg" in out
        assert "9.00" in out and "1.00" in out

    def test_handles_nan(self):
        out = line_plot({"a": [1.0, np.nan, 3.0]}, width=20, height=6)
        assert "3.00" in out

    def test_constant_series(self):
        out = line_plot({"flat": [2.0, 2.0, 2.0]}, width=20, height=6)
        assert "2.00" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            line_plot({})
        with pytest.raises(ValueError):
            line_plot({"a": [1]}, width=2)
        with pytest.raises(ValueError):
            line_plot({"a": [np.nan]})


class TestBoxPlot:
    def _stats(self, lo, q1, med, q3, hi):
        return {"min": lo, "q1": q1, "median": med, "q3": q3, "max": hi}

    def test_renders_quartiles(self):
        out = box_plot({"m": self._stats(0, 2, 5, 8, 10)}, width=40)
        assert "med=5.0" in out
        assert "=" in out and "|" in out

    def test_multiple_rows_aligned(self):
        out = box_plot({
            "fedtrip": self._stats(80, 85, 88, 90, 92),
            "fedavg": self._stats(70, 75, 78, 80, 85),
        }, width=40)
        lines = [ln for ln in out.split("\n") if "med=" in ln]
        assert len(lines) == 2
        assert lines[0].index("[") == lines[1].index("[")

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError):
            box_plot({"x": {"min": 0, "max": 1}})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            box_plot({})


class TestHeatmap:
    def test_shape_and_scale_line(self):
        m = np.arange(12).reshape(3, 4)
        out = heatmap(m, row_labels=["a", "b", "c"], col_labels=list("wxyz"))
        lines = out.split("\n")
        assert len(lines) == 5  # header + 3 rows + scale
        assert "scale:" in lines[-1]

    def test_extremes_use_extreme_shades(self):
        m = np.array([[0.0, 100.0]])
        out = heatmap(m)
        assert "@" in out and " " in out.split("\n")[0] + out.split("\n")[0]

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            heatmap(np.zeros(3))


class TestScatter:
    def test_plots_points_with_labels(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.2]])
        out = scatter(pts, labels=np.array([0, 1, 2]), width=20, height=10)
        assert "0" in out and "1" in out and "2" in out

    def test_unlabeled_uses_dot(self):
        out = scatter(np.array([[0.0, 0.0], [1.0, 1.0]]), width=10, height=5)
        assert "•" in out

    def test_validation(self):
        with pytest.raises(ValueError):
            scatter(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            scatter(np.zeros((3, 2)), labels=np.zeros(2))


class TestCentralizedBaseline:
    def test_trains_and_records(self, tiny_data, rng):
        model = build_mlp(tiny_data.spec.input_shape, tiny_data.spec.num_classes, rng=rng)
        res = train_centralized(tiny_data, model, epochs=5, batch_size=20, lr=0.05)
        assert len(res.accuracies) == 5
        assert res.best_accuracy > 40.0  # 4-class tiny task learns quickly

    def test_upper_bounds_federated(self, tiny_data, small_config, rng):
        """Pooled training should beat the FL run given equal data/steps."""
        from repro import Engine, build_strategy

        sim = Engine(tiny_data, build_strategy("fedavg"), small_config,
                         model_name="mlp")
        fed_acc = sim.run().best_accuracy()
        sim.close()
        model = build_mlp(tiny_data.spec.input_shape, tiny_data.spec.num_classes, rng=rng)
        res = train_centralized(tiny_data, model, epochs=8, batch_size=20, lr=0.05)
        assert res.best_accuracy >= fed_acc - 5.0

    def test_epochs_to_accuracy(self, tiny_data, rng):
        model = build_mlp(tiny_data.spec.input_shape, tiny_data.spec.num_classes, rng=rng)
        res = train_centralized(tiny_data, model, epochs=6, batch_size=20, lr=0.05)
        e = res.epochs_to_accuracy(30.0)
        assert e is None or 1 <= e <= 6

    def test_validation(self, tiny_data, rng):
        model = build_mlp(tiny_data.spec.input_shape, tiny_data.spec.num_classes, rng=rng)
        with pytest.raises(ValueError):
            train_centralized(tiny_data, model, epochs=0)
