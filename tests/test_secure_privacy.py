"""Secure aggregation, differential privacy, and the strategy wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FLConfig, Engine, build_strategy
from repro.fl import (
    CompressedUploadWrapper,
    GaussianMechanism,
    PairwiseMasker,
    PrivacyAccountant,
    PrivateAggregationWrapper,
    QuantizationCompressor,
    TopKCompressor,
    secure_sum,
)


def _norm(tree):
    """L2 norm over every array of a parameter tree."""
    return float(np.sqrt(sum(float(np.dot(np.ravel(a), np.ravel(a))) for a in tree)))


def _tree(rng, scale=1.0):
    return [scale * rng.standard_normal((4, 3)).astype(np.float32),
            scale * rng.standard_normal(7).astype(np.float32)]


class TestSecureAggregation:
    def test_masks_cancel_exactly(self, rng):
        updates = {cid: _tree(rng) for cid in (0, 2, 5)}
        total, masked = secure_sum(updates, round_idx=3, seed=0, scale=10.0)
        expected = [sum(u[i] for u in updates.values()) for i in range(2)]
        for a, b in zip(total, expected):
            np.testing.assert_allclose(a, b, atol=1e-3)

    def test_masked_upload_hides_update(self, rng):
        updates = {0: _tree(rng), 1: _tree(rng)}
        _, masked = secure_sum(updates, seed=0, scale=100.0)
        # Masked upload is dominated by the mask, not the update.
        raw_norm = _norm(updates[0])
        masked_norm = _norm(masked[0])
        assert masked_norm > 10 * raw_norm

    def test_single_client_unmasked(self, rng):
        updates = {4: _tree(rng)}
        total, masked = secure_sum(updates, seed=0)
        for a, b in zip(total, updates[4]):
            np.testing.assert_allclose(a, b, atol=1e-6)

    def test_pair_masks_are_symmetric(self, rng):
        masker = PairwiseMasker(seed=0, scale=5.0)
        zero = [np.zeros((3, 3), dtype=np.float32)]
        mi = masker.mask_update(1, [1, 2], 0, zero)
        mj = masker.mask_update(2, [1, 2], 0, zero)
        np.testing.assert_allclose(mi[0], -mj[0], atol=1e-6)

    def test_round_changes_masks(self):
        masker = PairwiseMasker(seed=0)
        zero = [np.zeros(5, dtype=np.float32)]
        a = masker.mask_update(0, [0, 1], 0, zero)
        b = masker.mask_update(0, [0, 1], 1, zero)
        assert not np.allclose(a[0], b[0])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            PairwiseMasker(scale=0.0)
        with pytest.raises(ValueError):
            PairwiseMasker().mask_update(9, [0, 1], 0, _tree(rng))
        with pytest.raises(ValueError):
            PairwiseMasker().unmask_sum({}, 0)


class TestGaussianMechanism:
    def test_clip_reduces_large_norms(self, rng):
        mech = GaussianMechanism(clip_norm=1.0, noise_multiplier=0.0)
        big = _tree(rng, scale=100.0)
        clipped = mech.clip(big)
        assert _norm(clipped) == pytest.approx(1.0, rel=1e-5)

    def test_clip_leaves_small_norms(self, rng):
        mech = GaussianMechanism(clip_norm=1e6, noise_multiplier=0.0)
        small = _tree(rng)
        clipped = mech.clip(small)
        for a, b in zip(clipped, small):
            np.testing.assert_array_equal(a, b)

    def test_noise_scale(self, rng):
        mech = GaussianMechanism(clip_norm=1.0, noise_multiplier=2.0, seed=0)
        zero = [np.zeros(50_000, dtype=np.float32)]
        out = mech.privatize(zero, 0, 0)
        assert np.std(out[0]) == pytest.approx(2.0, rel=0.05)

    def test_deterministic_per_round_client(self, rng):
        m1 = GaussianMechanism(1.0, 1.0, seed=3)
        m2 = GaussianMechanism(1.0, 1.0, seed=3)
        x = _tree(rng)
        np.testing.assert_array_equal(m1.privatize(x, 5, 2)[0], m2.privatize(x, 5, 2)[0])
        assert not np.allclose(m1.privatize(x, 5, 2)[0], m1.privatize(x, 6, 2)[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMechanism(0.0, 1.0)
        with pytest.raises(ValueError):
            GaussianMechanism(1.0, -1.0)


class TestPrivacyAccountant:
    def test_epsilon_grows_with_rounds(self):
        acc = PrivacyAccountant(noise_multiplier=1.0, delta=1e-5)
        acc.record_round(10)
        e10 = acc.epsilon()
        acc.record_round(90)
        assert acc.epsilon() > e10

    def test_advanced_beats_basic_for_many_rounds(self):
        # Advanced composition pays an (e^eps - 1) premium per step, so it
        # only wins in the high-noise (eps_step << 1) regime it targets.
        acc = PrivacyAccountant(noise_multiplier=20.0, delta=1e-5)
        acc.record_round(1000)
        assert acc.epsilon(advanced=True) < acc.epsilon(advanced=False)

    def test_more_noise_less_epsilon(self):
        lo = PrivacyAccountant(noise_multiplier=0.5)
        hi = PrivacyAccountant(noise_multiplier=4.0)
        lo.record_round(10)
        hi.record_round(10)
        assert hi.epsilon() < lo.epsilon()

    def test_zero_rounds_zero_epsilon(self):
        assert PrivacyAccountant(1.0).epsilon() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(0.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(1.0, delta=1.0)


class TestPrivateAggregationWrapper:
    def test_noiseless_clipless_matches_base(self, tiny_data, small_config):
        base_hist = None
        for wrap in (False, True):
            strat = build_strategy("fedavg")
            if wrap:
                strat = PrivateAggregationWrapper(strat, clip_norm=1e9,
                                                  noise_multiplier=0.0)
            sim = Engine(tiny_data, strat, small_config, model_name="mlp")
            hist = sim.run()
            sim.close()
            if base_hist is None:
                base_hist = hist
            else:
                np.testing.assert_allclose(hist.accuracies(), base_hist.accuracies(),
                                           atol=1e-5)

    def test_noise_degrades_but_still_learns(self, tiny_data, small_config):
        strat = PrivateAggregationWrapper(build_strategy("fedtrip"),
                                          clip_norm=5.0, noise_multiplier=0.02)
        sim = Engine(tiny_data, strat, small_config, model_name="mlp")
        hist = sim.run()
        assert hist.best_accuracy() > 25.0
        assert strat.accountant.steps == small_config.rounds
        assert strat.accountant.epsilon() > 0
        sim.close()

    def test_name_and_describe(self):
        strat = PrivateAggregationWrapper(build_strategy("fedtrip"), 1.0, 1.0)
        assert strat.name == "dp(fedtrip)"
        assert "privacy" in strat.describe()


class TestCompressedUploadWrapper:
    def test_quantized_fedavg_learns(self, tiny_data, small_config):
        strat = CompressedUploadWrapper(build_strategy("fedavg"),
                                        QuantizationCompressor(bits=8, seed=0))
        sim = Engine(tiny_data, strat, small_config, model_name="mlp")
        hist = sim.run()
        assert hist.best_accuracy() > 30.0
        sim.close()

    def test_comm_bytes_reduced(self, tiny_data, small_config):
        base = Engine(tiny_data, build_strategy("fedavg"), small_config,
                          model_name="mlp")
        h_base = base.run()
        base.close()
        strat = CompressedUploadWrapper(build_strategy("fedavg"),
                                        TopKCompressor(fraction=0.05))
        sim = Engine(tiny_data, strat, small_config, model_name="mlp")
        h_comp = sim.run()
        sim.close()
        # Uplink shrinks ~20x; downlink unchanged -> total roughly halves.
        assert h_comp.comm_bytes()[-1] < 0.62 * h_base.comm_bytes()[-1]

    def test_fraction_one_topk_matches_base(self, tiny_data, small_config):
        strat = CompressedUploadWrapper(build_strategy("fedavg"),
                                        TopKCompressor(fraction=1.0))
        sim = Engine(tiny_data, strat, small_config, model_name="mlp")
        h_comp = sim.run()
        sim.close()
        base = Engine(tiny_data, build_strategy("fedavg"), small_config,
                          model_name="mlp")
        h_base = base.run()
        base.close()
        np.testing.assert_allclose(h_comp.accuracies(), h_base.accuracies(), atol=1e-4)

    def test_composes_with_fedtrip(self, tiny_data, small_config):
        strat = CompressedUploadWrapper(build_strategy("fedtrip"),
                                        QuantizationCompressor(bits=10, seed=0))
        sim = Engine(tiny_data, strat, small_config, model_name="mlp")
        hist = sim.run()
        assert hist.best_accuracy() > 25.0
        assert strat.describe()["compression"] == "QuantizationCompressor"
        sim.close()
