"""FedBN: local batch normalization under feature skew."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.algorithms import FedAvg, FedBN
from repro.models import build_cnn


@pytest.fixture(scope="module")
def bn_model_fn():
    def fn():
        return build_cnn((1, 8, 8), 4, rng=np.random.default_rng(7), batch_norm=True)

    return fn


@pytest.fixture(scope="module")
def skew_data():
    return build_federated_data("tiny", n_clients=4, partition="iid", seed=0,
                                feature_skew=True)


class TestBatchNormCNN:
    def test_builder_inserts_bn(self, bn_model_fn):
        model = bn_model_fn()
        kinds = [type(m).__name__ for _, m in model.modules()]
        assert kinds.count("BatchNorm2d") == 3
        assert kinds.count("BatchNorm1d") == 1
        assert model.name == "cnn_bn"

    def test_bn_cnn_forward_backward(self, bn_model_fn, rng):
        model = bn_model_fn()
        x = rng.standard_normal((6, 1, 8, 8)).astype(np.float32)
        out = model(x)
        assert out.shape == (6, 4)
        model.zero_grad()
        model.backward(np.ones_like(out))
        assert all(np.isfinite(p.grad).all() for p in model.parameters())

    def test_plain_cnn_has_no_bn(self):
        model = build_cnn((1, 8, 8), 4, rng=np.random.default_rng(0))
        kinds = [type(m).__name__ for _, m in model.modules()]
        assert "BatchNorm2d" not in kinds


class TestFedBN:
    def _config(self, rounds=3):
        return FLConfig(rounds=rounds, n_clients=4, clients_per_round=2,
                        batch_size=20, lr=0.05, seed=0)

    def test_reduces_to_fedavg_without_bn_layers(self, tiny_data):
        cfg = FLConfig(rounds=3, n_clients=6, clients_per_round=3,
                       batch_size=20, lr=0.05, seed=0)
        hists = {}
        for strat in (FedAvg(), FedBN()):
            sim = Engine(tiny_data, strat, cfg, model_name="mlp")
            hists[strat.name] = sim.run().accuracies()
            sim.close()
        np.testing.assert_allclose(hists["fedbn"], hists["fedavg"], atol=1e-5)

    def test_clients_keep_distinct_bn_params(self, skew_data, bn_model_fn):
        sim = Engine(skew_data, FedBN(), self._config(4), model_fn=bn_model_fn)
        sim.run()
        participated = sorted({c for r in sim.history.records for c in r.selected})
        blobs = [sim.clients[c].state["bn"] for c in participated
                 if sim.clients[c].state.get("bn")]
        assert len(blobs) >= 2
        # Different feature skews -> different local BN statistics.
        a, b = blobs[0][0], blobs[1][0]
        assert not np.allclose(a["running_mean"], b["running_mean"])
        sim.close()

    def test_trains_under_feature_skew(self, skew_data, bn_model_fn):
        sim = Engine(skew_data, FedBN(), self._config(5), model_fn=bn_model_fn)
        hist = sim.run()
        assert hist.best_accuracy() > 30.0  # 4 classes, chance 25%
        sim.close()

    def test_personalize_loads_client_bn(self, skew_data, bn_model_fn):
        strat = FedBN()
        sim = Engine(skew_data, strat, self._config(3), model_fn=bn_model_fn)
        sim.run()
        cid = next(c for c in range(4) if sim.clients[c].state.get("bn"))
        model = sim.global_model()
        before = model.state_dict()
        strat.personalize(model, sim.clients[cid].state)
        after = model.state_dict()
        changed = any(not np.array_equal(before[k], after[k])
                      for k in before if "gamma" in k or "beta" in k)
        assert changed
        sim.close()

    def test_registered(self):
        assert build_strategy("fedbn").name == "fedbn"
