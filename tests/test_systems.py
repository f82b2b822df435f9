"""System-level wall-clock model and update compression."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.api import Engine
from repro.fl import (
    CompressedExchange,
    DeviceProfile,
    FLConfig,
    NETWORK_PRESETS,
    QuantizationCompressor,
    SystemModel,
    TopKCompressor,
)
from repro.fl.types import ClientUpdate


class TestDeviceProfile:
    def test_compute_time(self):
        p = DeviceProfile(flops_per_second=1e9, bandwidth_bps=1e6)
        assert p.compute_time(2e9) == pytest.approx(2.0)

    def test_transfer_time_includes_latency(self):
        p = DeviceProfile(flops_per_second=1e9, bandwidth_bps=8e6, latency_s=0.1)
        assert p.transfer_time(1e6) == pytest.approx(1.0 + 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile(flops_per_second=0, bandwidth_bps=1e6)

    def test_presets_exist(self):
        assert {"wifi", "4g", "iot"} <= set(NETWORK_PRESETS)
        assert NETWORK_PRESETS["wifi"].bandwidth_bps > NETWORK_PRESETS["iot"].bandwidth_bps


def _upd(cid, flops, comm):
    return ClientUpdate(cid, [np.zeros(2, dtype=np.float32)], 10, 0.0,
                        flops=flops, comm_bytes=comm)


class TestSystemModel:
    def test_straggler_sets_pace(self):
        model = SystemModel("wifi", n_clients=3)
        # Make client 2 much slower.
        model.profiles[2] = DeviceProfile(flops_per_second=1e6, bandwidth_bps=50e6)
        model.observe([_upd(0, 1e9, 1e6), _upd(2, 1e9, 1e6)], None)
        rt = model.round_times[0]
        assert rt.straggler == 2
        assert rt.total_s > 100  # 1e9 flops at 1e6 flops/s

    def test_heterogeneity_spreads_speeds(self):
        model = SystemModel("4g", n_clients=20, heterogeneity=10.0, seed=0)
        speeds = [p.flops_per_second for p in model.profiles]
        assert max(speeds) / min(speeds) > 2.0

    def test_heterogeneity_one_uniform(self):
        model = SystemModel("4g", n_clients=5, heterogeneity=1.0)
        speeds = {p.flops_per_second for p in model.profiles}
        assert len(speeds) == 1

    def test_attach_to_simulation(self, tiny_data, small_config):
        sim = Engine(tiny_data, FedAvg(), small_config, model_name="mlp")
        sysmodel = SystemModel("wifi", n_clients=small_config.n_clients).attach(sim)
        hist = sim.run()
        assert len(sysmodel.round_times) == small_config.rounds
        s = sysmodel.summary()
        assert s["total_seconds"] > 0
        assert 0 <= s["comm_fraction"] <= 1
        t = sysmodel.time_to_accuracy(hist, 40.0)
        if t is not None:
            assert 0 < t <= sysmodel.total_seconds()
        sim.close()

    def test_iot_slower_than_wifi(self, tiny_data, small_config):
        totals = {}
        for preset in ("wifi", "iot"):
            sim = Engine(tiny_data, FedAvg(), small_config, model_name="mlp")
            sm = SystemModel(preset, n_clients=small_config.n_clients).attach(sim)
            sim.run()
            totals[preset] = sm.total_seconds()
            sim.close()
        assert totals["iot"] > totals["wifi"]

    def test_profile_count_validation(self):
        with pytest.raises(ValueError):
            SystemModel([NETWORK_PRESETS["wifi"]] * 2, n_clients=3)

    def test_summary_requires_rounds(self):
        with pytest.raises(ValueError):
            SystemModel("wifi", n_clients=2).summary()


class TestQuantization:
    def test_roundtrip_accuracy(self, rng):
        tree = [rng.standard_normal((20, 10)).astype(np.float32) * 0.01]
        comp = QuantizationCompressor(bits=8, seed=0)
        payload, nbytes = comp.encode(tree)
        back = comp.decode(payload, tree)
        err = np.abs(back[0] - tree[0]).max()
        step = 2 * payload["scale"] / comp.levels
        assert err <= step + 1e-6  # stochastic rounding: within one step
        assert nbytes < tree[0].nbytes  # actually compresses float32

    def test_unbiasedness(self, rng):
        """Stochastic rounding: mean of many encodings approaches the input."""
        tree = [np.full((1, 100), 0.37, dtype=np.float32)]
        comp = QuantizationCompressor(bits=2, seed=1)
        acc = np.zeros(100)
        n = 400
        for _ in range(n):
            payload, _ = comp.encode(tree)
            acc += comp.decode(payload, tree)[0][0]
        np.testing.assert_allclose(acc / n, 0.37, atol=0.02)

    def test_zero_tree(self):
        tree = [np.zeros((3, 3), dtype=np.float32)]
        comp = QuantizationCompressor(bits=4)
        payload, _ = comp.encode(tree)
        np.testing.assert_array_equal(comp.decode(payload, tree)[0], 0.0)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            QuantizationCompressor(bits=0)


class TestTopK:
    def test_keeps_largest(self):
        tree = [np.array([[0.1, -5.0, 0.2, 3.0]], dtype=np.float32)]
        comp = TopKCompressor(fraction=0.5)
        payload, nbytes = comp.encode(tree)
        back = comp.decode(payload, tree)[0]
        np.testing.assert_allclose(back, [[0.0, -5.0, 0.0, 3.0]])
        assert nbytes == 2 * 8

    def test_fraction_one_lossless(self, rng):
        tree = [rng.standard_normal((4, 4)).astype(np.float32)]
        comp = TopKCompressor(fraction=1.0)
        payload, _ = comp.encode(tree)
        np.testing.assert_allclose(comp.decode(payload, tree)[0], tree[0], atol=1e-7)

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKCompressor(fraction=0.0)

    def test_compressed_exchange(self, rng):
        tree = [rng.standard_normal((10, 10)).astype(np.float32)]
        ex = CompressedExchange(TopKCompressor(fraction=0.2))
        back, nbytes = ex.apply(tree)
        assert (back[0] != 0).sum() == 20
        assert nbytes == 20 * 8
