"""Per-layer profiling and feature-skew federated pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_federated_data, build_strategy
from repro.models import build_cnn, build_mlp, format_layer_summary, layer_summary, profile_model


class TestLayerSummary:
    def test_totals_match_profile(self, rng):
        model = build_cnn((1, 28, 28), 10, rng=rng)
        rows = layer_summary(model)
        total = rows[-1]
        prof = profile_model(model)
        assert total["layer"] == "TOTAL"
        assert total["params"] == prof.num_params
        assert total["forward_flops"] == prof.forward_flops

    def test_shapes_chain(self, rng):
        model = build_mlp((1, 4, 4), 3, hidden=5, rng=rng)
        rows = layer_summary(model)
        assert rows[-1]["output_shape"] == (3,)
        # Every layer's declared shape must feed the next one without error
        # (layer_summary would have raised otherwise); first is the flatten.
        assert rows[0]["output_shape"] == (16,)

    def test_format_renders_table(self, rng):
        model = build_mlp((1, 4, 4), 3, rng=rng)
        text = format_layer_summary(model)
        assert "TOTAL" in text
        assert "Linear" in text
        assert "fwd FLOPs" in text

    def test_custom_input_shape(self, rng):
        model = build_cnn((1, 12, 12), 10, rng=rng)
        rows_small = layer_summary(model, (1, 12, 12))
        assert rows_small[-1]["forward_flops"] == profile_model(model).forward_flops


class TestFeatureSkewPipeline:
    def test_transforms_change_client_data(self):
        plain = build_federated_data("tiny", n_clients=4, partition="iid", seed=0)
        skew = build_federated_data("tiny", n_clients=4, partition="iid", seed=0,
                                    feature_skew=True)
        for k in range(4):
            a = plain.client_dataset(k)
            b = skew.client_dataset(k)
            np.testing.assert_array_equal(a.y, b.y)  # labels untouched
            assert not np.allclose(a.x, b.x)

    def test_skew_is_deterministic(self):
        skew = build_federated_data("tiny", n_clients=4, partition="iid", seed=0,
                                    feature_skew=True)
        a = skew.client_dataset(1).x
        b = skew.client_dataset(1).x
        np.testing.assert_array_equal(a, b)

    def test_clients_see_different_skews(self):
        skew = build_federated_data("tiny", n_clients=4, partition="iid", seed=0,
                                    feature_skew=True)
        # Same underlying distribution (iid), different transforms -> the
        # per-client pixel statistics must differ.
        means = [float(skew.client_dataset(k).x.mean()) for k in range(4)]
        assert np.std(means) > 1e-3

    def test_transform_count_validated(self):
        from repro.data import FederatedData, ArrayDataset
        from repro.data.specs import get_spec

        x = np.zeros((10, 1, 8, 8), dtype=np.float32)
        y = np.zeros(10, dtype=np.int64)
        with pytest.raises(ValueError):
            FederatedData(
                spec=get_spec("tiny"),
                train=ArrayDataset(x, y),
                test=ArrayDataset(x, y),
                client_shards=[np.arange(5), np.arange(5, 10)],
                partition_kind="iid",
                client_transforms=[lambda x, r: x],  # only 1 for 2 clients
            )

    def test_feature_skew_training_runs(self):
        data = build_federated_data("tiny", n_clients=4, partition="iid", seed=0,
                                    feature_skew=True)
        cfg = FLConfig(rounds=2, n_clients=4, clients_per_round=2,
                       batch_size=20, lr=0.05, seed=0)
        sim = Engine(data, build_strategy("fedtrip"), cfg, model_name="mlp")
        hist = sim.run()
        assert np.isfinite(hist.accuracies()).all()
        sim.close()

    def test_feature_skew_hurts_plain_fedavg(self):
        """Feature non-IID should make the task at least as hard as IID
        (lower or equal accuracy at fixed budget)."""
        accs = {}
        for skewed in (False, True):
            data = build_federated_data("tiny", n_clients=6, partition="iid",
                                        seed=0, feature_skew=skewed)
            cfg = FLConfig(rounds=4, n_clients=6, clients_per_round=3,
                           batch_size=20, lr=0.05, seed=0)
            sim = Engine(data, build_strategy("fedavg"), cfg, model_name="mlp")
            accs[skewed] = sim.run().best_accuracy()
            sim.close()
        assert accs[True] <= accs[False] + 8.0
