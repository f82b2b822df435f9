"""FL runtime pieces: config, history, sampling, aggregation, evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset
from repro.fl import (
    Client,
    FixedSampler,
    FLConfig,
    History,
    UniformSampler,
    WeightedSampler,
    evaluate_model,
    fedavg_aggregate,
    full_batch_gradient,
    weighted_average_flat,
)
from repro.fl.types import ClientUpdate, RoundRecord
from repro.models import build_mlp


class TestFLConfig:
    def test_paper_defaults(self):
        cfg = FLConfig()
        assert (cfg.rounds, cfg.batch_size, cfg.local_epochs) == (100, 50, 1)
        assert (cfg.lr, cfg.momentum) == (0.01, 0.9)
        assert (cfg.n_clients, cfg.clients_per_round) == (10, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"clients_per_round": 11},
            {"clients_per_round": 0},
            {"batch_size": 0},
            {"lr": 0.0},
            {"optimizer": "lbfgs"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FLConfig(**kwargs)


def _record(i, acc, flops=0.0):
    return RoundRecord(
        round_idx=i,
        selected=[0],
        test_accuracy=acc,
        test_loss=0.0 if acc is not None else None,
        mean_train_loss=1.0,
        cumulative_flops=flops,
        cumulative_comm_bytes=float(i),
        wall_seconds=0.0,
    )


class TestHistory:
    def test_rounds_to_accuracy(self):
        h = History()
        for i, acc in enumerate([10, 40, 60, 75, 80]):
            h.append(_record(i, acc))
        assert h.rounds_to_accuracy(60.0) == 3  # 1-based count: hit at index 2
        assert h.rounds_to_accuracy(80.0) == 5
        assert h.rounds_to_accuracy(95.0) is None

    def test_flops_to_accuracy(self):
        h = History()
        for i, acc in enumerate([10, 60, 80]):
            h.append(_record(i, acc, flops=1e9 * (i + 1)))
        assert h.flops_to_accuracy(55.0) == pytest.approx(2.0)

    def test_ema_smooths(self):
        h = History()
        for i, acc in enumerate([0, 100, 0, 100]):
            h.append(_record(i, acc))
        ema = h.ema_accuracy(alpha=0.5)
        assert ema[0] == 0
        assert 0 < ema[1] < 100
        # EMA variance is lower than raw variance.
        assert np.nanstd(ema) < np.nanstd(h.accuracies())

    def test_ema_handles_nan_gaps(self):
        h = History()
        h.append(_record(0, 50.0))
        h.append(_record(1, None))
        h.append(_record(2, 70.0))
        ema = h.ema_accuracy(0.5)
        assert ema[1] == 50.0  # carried forward

    def test_final_accuracy_stats(self):
        h = History()
        for i in range(20):
            h.append(_record(i, float(i)))
        stats = h.final_accuracy_stats(last_k=10)
        assert stats["mean"] == pytest.approx(14.5)
        assert stats["min"] == 10 and stats["max"] == 19
        assert stats["q1"] <= stats["median"] <= stats["q3"]

    def test_best_accuracy(self):
        h = History()
        for i, acc in enumerate([10, 90, 50]):
            h.append(_record(i, acc))
        assert h.best_accuracy() == 90

    def test_monotone_round_indices_enforced(self):
        h = History()
        h.append(_record(3, 10))
        with pytest.raises(ValueError):
            h.append(_record(3, 20))

    def test_accuracy_at_round(self):
        h = History()
        h.append(_record(0, 10))
        h.append(_record(1, 20))
        assert h.accuracy_at_round(1) == 20
        assert h.accuracy_at_round(9) is None

    def test_empty_stats_raise(self):
        with pytest.raises(ValueError):
            History().final_accuracy_stats()


class TestSamplers:
    def test_uniform_selects_k_distinct(self):
        s = UniformSampler(10, 4, seed=0)
        for t in range(20):
            sel = s.select(t)
            assert len(sel) == 4 == len(set(sel))
            assert all(0 <= c < 10 for c in sel)

    def test_uniform_deterministic_per_round(self):
        assert UniformSampler(10, 4, seed=1).select(5) == UniformSampler(10, 4, seed=1).select(5)

    def test_uniform_covers_all_clients_eventually(self):
        s = UniformSampler(10, 4, seed=0)
        seen = set()
        for t in range(50):
            seen.update(s.select(t))
        assert seen == set(range(10))

    def test_participation_rate(self):
        assert UniformSampler(50, 4).participation_rate == pytest.approx(0.08)

    def test_weighted_prefers_heavy(self):
        w = [10.0] + [0.01] * 9
        s = WeightedSampler(w, 2, seed=0)
        picks = [0 in s.select(t) for t in range(50)]
        assert np.mean(picks) > 0.9

    def test_weighted_validation(self):
        with pytest.raises(ValueError):
            WeightedSampler([-1.0, 1.0], 1)

    def test_fixed_schedule_cycles(self):
        s = FixedSampler([[0, 1], [2, 3]])
        assert s.select(0) == [0, 1]
        assert s.select(1) == [2, 3]
        assert s.select(2) == [0, 1]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            UniformSampler(3, 4)


class TestAggregation:
    def _upd(self, cid, values, n):
        return ClientUpdate(client_id=cid, weights=[np.array(values, dtype=np.float32)],
                            num_samples=n, train_loss=0.0)

    def test_fedavg_weighting(self):
        out = fedavg_aggregate([self._upd(0, [0.0], 1), self._upd(1, [3.0], 2)])
        np.testing.assert_allclose(out, [2.0])

    def test_identity_when_equal(self, rng):
        w = [rng.standard_normal((3, 2)).astype(np.float32)]
        ups = [ClientUpdate(i, [w[0].copy()], 5, 0.0) for i in range(4)]
        out = fedavg_aggregate(ups)
        assert out.dtype == np.float32 and out.shape == (6,)
        np.testing.assert_allclose(out, w[0].ravel(), atol=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([])

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            weighted_average_flat(np.zeros((1, 2)), [-1.0])
        with pytest.raises(ValueError):
            weighted_average_flat(np.zeros((1, 2)), [1.0, 2.0])

    def test_dtype_preserved(self):
        ups = [ClientUpdate(i, [np.full(2, i, dtype=np.float32)], 1, 0.0) for i in range(2)]
        out = fedavg_aggregate(ups)
        assert out.dtype == np.float32


class TestClient:
    def test_empty_shard_rejected(self):
        ds = ArrayDataset(np.zeros((0, 1), dtype=np.float32), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            Client(0, ds)

    def test_iterations_per_round(self, rng):
        ds = ArrayDataset(rng.standard_normal((45, 2)).astype(np.float32),
                          rng.integers(0, 2, 45))
        c = Client(0, ds)
        cfg = FLConfig(rounds=1, n_clients=1, clients_per_round=1, batch_size=20, local_epochs=2)
        assert c.iterations_per_round(cfg) == 3 * 2

    def test_round_rng_independent(self, rng):
        ds = ArrayDataset(rng.standard_normal((10, 2)).astype(np.float32),
                          rng.integers(0, 2, 10))
        c = Client(3, ds, seed=0)
        a = c.round_rng(0).random(4)
        b = c.round_rng(1).random(4)
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, Client(3, ds, seed=0).round_rng(0).random(4))


class TestEvaluation:
    def test_perfect_model_scores_100(self, rng):
        """A model whose head memorizes a linear rule gets 100%."""
        model = build_mlp((1, 2, 2), 2, hidden=4, rng=rng)
        x = rng.standard_normal((40, 1, 2, 2)).astype(np.float32)
        y = (x.reshape(40, -1).sum(axis=1) > 0).astype(np.int64)
        ds = ArrayDataset(x, y)
        # train briefly to overfit
        from repro.nn.losses import CrossEntropyLoss
        from repro.optim import SGD

        opt = SGD(model.parameters(), lr=0.5)
        crit = CrossEntropyLoss()
        for _ in range(300):
            logits = model(x)
            _, d = crit(logits, y)
            model.zero_grad()
            model.backward(d)
            opt.step()
        acc, loss = evaluate_model(model, ds)
        assert acc > 95.0
        assert loss < 0.5

    def test_full_batch_gradient_matches_single_batch(self, rng):
        model = build_mlp((1, 2, 2), 2, hidden=4, rng=rng)
        x = rng.standard_normal((30, 1, 2, 2)).astype(np.float32)
        y = rng.integers(0, 2, 30).astype(np.int64)
        ds = ArrayDataset(x, y)
        g_chunked = full_batch_gradient(model, ds, batch_size=7)
        g_whole = full_batch_gradient(model, ds, batch_size=30)
        for a, b in zip(g_chunked, g_whole):
            np.testing.assert_allclose(a, b, atol=1e-5)

    def test_gradient_leaves_weights_unchanged(self, rng):
        model = build_mlp((1, 2, 2), 2, hidden=4, rng=rng)
        before = model.get_weights()
        x = rng.standard_normal((10, 1, 2, 2)).astype(np.float32)
        ds = ArrayDataset(x, rng.integers(0, 2, 10).astype(np.int64))
        full_batch_gradient(model, ds)
        for a, b in zip(before, model.get_weights()):
            np.testing.assert_array_equal(a, b)
