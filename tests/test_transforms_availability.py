"""Data transforms (feature skew), client-availability samplers, and the
availability x process-executor composition (fixed-seed determinism; the
dropout replacement loop must terminate when the available pool < K)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import (
    Compose,
    FixedContrast,
    FixedGain,
    FixedShift,
    GaussianNoise,
    RandomHorizontalFlip,
    RandomShift,
    client_feature_skew,
)
from repro.fl import DiurnalSampler, DropoutSampler


@pytest.fixture
def batch(rng):
    return rng.standard_normal((8, 1, 6, 6)).astype(np.float32)


class TestTransforms:
    def test_random_shift_preserves_content(self, batch, rng):
        out = RandomShift(2)(batch, rng)
        assert out.shape == batch.shape
        # Circular shift preserves per-sample sums exactly.
        np.testing.assert_allclose(out.sum(axis=(1, 2, 3)), batch.sum(axis=(1, 2, 3)),
                                   rtol=1e-5)

    def test_zero_shift_identity(self, batch, rng):
        np.testing.assert_array_equal(RandomShift(0)(batch, rng), batch)

    def test_hflip_probability_extremes(self, batch, rng):
        np.testing.assert_array_equal(RandomHorizontalFlip(0.0)(batch, rng), batch)
        flipped = RandomHorizontalFlip(1.0)(batch, rng)
        np.testing.assert_array_equal(flipped, batch[:, :, :, ::-1])

    def test_noise_zero_sigma_identity(self, batch, rng):
        np.testing.assert_array_equal(GaussianNoise(0.0)(batch, rng), batch)

    def test_noise_changes_values(self, batch, rng):
        out = GaussianNoise(0.5)(batch, rng)
        assert not np.array_equal(out, batch)
        assert out.dtype == np.float32

    def test_fixed_gain(self, batch, rng):
        np.testing.assert_allclose(FixedGain(2.0)(batch, rng), batch * 2, rtol=1e-6)

    def test_fixed_contrast_preserves_mean(self, batch, rng):
        out = FixedContrast(1.7)(batch, rng)
        np.testing.assert_allclose(
            out.mean(axis=(1, 2, 3)), batch.mean(axis=(1, 2, 3)), atol=1e-5
        )

    def test_fixed_shift_rolls(self, batch, rng):
        out = FixedShift(1, 2)(batch, rng)
        np.testing.assert_array_equal(out, np.roll(batch, (1, 2), axis=(2, 3)))

    def test_compose_order(self, batch, rng):
        t = Compose([FixedGain(2.0), FixedGain(3.0)])
        np.testing.assert_allclose(t(batch, rng), batch * 6, rtol=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomShift(-1)
        with pytest.raises(ValueError):
            RandomHorizontalFlip(2.0)
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)
        with pytest.raises(ValueError):
            FixedGain(0.0)


class TestClientFeatureSkew:
    def test_deterministic(self, batch, rng):
        p1 = client_feature_skew(4, seed=7)
        p2 = client_feature_skew(4, seed=7)
        for a, b in zip(p1, p2):
            np.testing.assert_array_equal(a(batch, rng), b(batch, rng))

    def test_clients_differ(self, batch, rng):
        pipes = client_feature_skew(4, seed=0)
        outs = [p(batch, rng) for p in pipes]
        assert not np.allclose(outs[0], outs[1])

    def test_count(self):
        assert len(client_feature_skew(7)) == 7

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            client_feature_skew(0)


class TestDropoutSampler:
    def test_returns_k_when_no_dropout(self):
        s = DropoutSampler(10, 4, dropout=0.0, seed=0)
        for t in range(10):
            assert len(s.select(t)) == 4

    def test_never_empty_under_heavy_dropout(self):
        s = DropoutSampler(10, 4, dropout=0.95, seed=0)
        for t in range(50):
            assert len(s.select(t)) >= 1

    def test_deterministic(self):
        a = DropoutSampler(10, 4, dropout=0.3, seed=1)
        b = DropoutSampler(10, 4, dropout=0.3, seed=1)
        assert all(a.select(t) == b.select(t) for t in range(10))

    def test_dropout_reduces_mean_round_size(self):
        none = DropoutSampler(6, 5, dropout=0.0, seed=0)
        heavy = DropoutSampler(6, 5, dropout=0.6, seed=0)
        mean_none = np.mean([len(none.select(t)) for t in range(100)])
        mean_heavy = np.mean([len(heavy.select(t)) for t in range(100)])
        assert mean_heavy < mean_none

    def test_validation(self):
        with pytest.raises(ValueError):
            DropoutSampler(4, 5)
        with pytest.raises(ValueError):
            DropoutSampler(4, 2, dropout=1.0)

    def test_simulation_integration(self, tiny_data, small_config):
        from repro import Engine, build_strategy

        sampler = DropoutSampler(6, 3, dropout=0.3, seed=0)
        sim = Engine(tiny_data, build_strategy("fedtrip"), small_config,
                         model_name="mlp", sampler=sampler)
        hist = sim.run()
        assert len(hist) == small_config.rounds
        sim.close()


class TestDiurnalSampler:
    def test_phases_partition_availability(self):
        s = DiurnalSampler(10, 2, phases=2, window=3, seed=0)
        early = s.available(0)        # phase 0: even clients
        late = s.available(3)         # phase 1: odd clients
        assert set(early) == {0, 2, 4, 6, 8}
        assert set(late) == {1, 3, 5, 7, 9}

    def test_selection_respects_phase(self):
        s = DiurnalSampler(10, 2, phases=2, window=3, seed=0)
        for t in range(12):
            pool = set(s.available(t))
            assert set(s.select(t)) <= pool

    def test_staleness_gap_structure(self, tiny_data):
        """Clients see long staleness gaps; FedTrip must stay stable."""
        from repro import FLConfig, Engine, build_strategy

        cfg = FLConfig(rounds=8, n_clients=6, clients_per_round=2,
                       batch_size=20, lr=0.02, seed=0)
        sampler = DiurnalSampler(6, 2, phases=2, window=2, seed=0)
        sim = Engine(tiny_data, build_strategy("fedtrip"), cfg,
                         model_name="mlp", sampler=sampler)
        hist = sim.run()
        assert np.isfinite([w for w in map(np.sum, sim.server.weights)]).all()
        assert hist.best_accuracy() > 20.0
        sim.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalSampler(10, 6, phases=2)  # 6 > 10//2
        with pytest.raises(ValueError):
            DiurnalSampler(10, 2, phases=0)


class TestAvailabilityWithProcessExecutor:
    """Churny samplers composed with the multiprocessing backend: pool
    workers must see the same selections and client states as serial runs,
    and a fixed seed must stay byte-identical across repeats."""

    @staticmethod
    def _spec(**overrides):
        from repro.api import ExperimentSpec

        base = dict(dataset="tiny", model="mlp", method="fedtrip", n_clients=4,
                    clients_per_round=2, rounds=2, batch_size=20, lr=0.05)
        return ExperimentSpec(**{**base, **overrides})

    @staticmethod
    def _records(hist):
        return [
            (r.round_idx, tuple(r.selected), r.mean_train_loss,
             r.test_accuracy, r.cumulative_flops, r.cumulative_comm_bytes)
            for r in hist.records
        ]

    @pytest.mark.parametrize("sampler,kwargs", [
        ("dropout", {"dropout": 0.4}),
        ("diurnal", {"phases": 2, "window": 1}),
    ])
    def test_process_runs_match_serial_and_repeat(self, sampler, kwargs):
        from repro.api import run_experiment

        serial = run_experiment(
            self._spec(sampler=sampler, sampler_kwargs=kwargs, executor="serial")
        )
        spec = self._spec(sampler=sampler, sampler_kwargs=kwargs,
                          executor="process", n_workers=2)
        first, second = run_experiment(spec), run_experiment(spec)
        assert self._records(first) == self._records(second)
        assert self._records(first) == self._records(serial)

    def test_dropout_replacement_loop_terminates_pool_smaller_than_k(self):
        """With K == N every dropped client shrinks the pool below K; the
        replacement loop must still terminate and keep the round alive."""
        s = DropoutSampler(4, 4, dropout=0.9, seed=0)
        for t in range(200):
            chosen = s.select(t)
            assert 1 <= len(chosen) <= 4
            assert len(set(chosen)) == len(chosen)

    def test_dropout_with_process_pool_smaller_than_k(self):
        """End to end: heavy dropout (rounds often train < K clients) on
        the process backend stays deterministic and completes."""
        from repro.api import run_experiment

        spec = self._spec(sampler="dropout", sampler_kwargs={"dropout": 0.8},
                          clients_per_round=4, executor="process", n_workers=2)
        first, second = run_experiment(spec), run_experiment(spec)
        assert self._records(first) == self._records(second)
        assert all(1 <= len(r.selected) <= 4 for r in first.records)
