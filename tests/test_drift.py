"""Drift diagnostics (the quantitative Fig. 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedProx
from repro.analysis import (
    DriftTracker,
    drift_from_global,
    update_cosine_consistency,
    update_divergence,
)
from repro.api import Engine
from repro.fl import FLConfig
from repro.fl.types import ClientUpdate


def _upd(cid, vec):
    return ClientUpdate(cid, [np.asarray(vec, dtype=np.float32)], 10, 0.0)


GLOBAL = [np.zeros(3, dtype=np.float32)]


class TestMetrics:
    def test_identical_updates_zero_divergence(self):
        ups = [_upd(0, [1, 2, 3]), _upd(1, [1, 2, 3])]
        assert update_divergence(ups, GLOBAL) == 0.0
        assert update_cosine_consistency(ups, GLOBAL) == pytest.approx(1.0)

    def test_opposite_updates(self):
        ups = [_upd(0, [1, 0, 0]), _upd(1, [-1, 0, 0])]
        assert update_divergence(ups, GLOBAL) == pytest.approx(2.0)
        assert update_cosine_consistency(ups, GLOBAL) == pytest.approx(-1.0)

    def test_orthogonal_updates(self):
        ups = [_upd(0, [1, 0, 0]), _upd(1, [0, 1, 0])]
        assert update_cosine_consistency(ups, GLOBAL) == pytest.approx(0.0, abs=1e-6)

    def test_drift_from_global(self):
        ups = [_upd(0, [3, 4, 0])]
        assert drift_from_global(ups, GLOBAL)[0] == pytest.approx(5.0)

    def test_single_client_defaults(self):
        ups = [_upd(0, [1, 1, 1])]
        assert update_divergence(ups, GLOBAL) == 0.0
        assert update_cosine_consistency(ups, GLOBAL) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            update_divergence([], GLOBAL)


class TestDriftTracker:
    def test_attach_and_observe(self, tiny_data, small_config):
        sim = Engine(tiny_data, FedAvg(), small_config, model_name="mlp")
        tracker = DriftTracker().attach(sim)
        sim.run()
        s = tracker.summary()
        assert s["rounds"] == small_config.rounds
        assert s["mean_drift"] > 0
        assert -1.0 <= s["mean_consistency"] <= 1.0
        sim.close()

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            DriftTracker().summary()

    def test_noniid_less_consistent_than_iid(self, tiny_data, tiny_iid_data, small_config):
        """Fig. 1's claim, measured: non-IID updates agree less."""
        cons = {}
        for name, data in (("noniid", tiny_data), ("iid", tiny_iid_data)):
            sim = Engine(data, FedAvg(), small_config, model_name="mlp")
            tracker = DriftTracker().attach(sim)
            sim.run()
            cons[name] = tracker.summary()["mean_consistency"]
            sim.close()
        assert cons["iid"] > cons["noniid"]

    def test_fedprox_reduces_drift(self, tiny_data, small_config):
        """FedProx's proximal pull must shrink client displacement norms."""
        drifts = {}
        for name, strat in (("avg", FedAvg()), ("prox", FedProx(mu=5.0))):
            sim = Engine(tiny_data, strat, small_config, model_name="mlp")
            tracker = DriftTracker().attach(sim)
            sim.run()
            drifts[name] = tracker.summary()["mean_drift"]
            sim.close()
        assert drifts["prox"] < drifts["avg"]
