"""The Byzantine-robust subsystem: aggregation rules on the stacked matrix,
seeded adversary models, registry plumbing, spec/CLI validation, the
server's screening/drop report, and the History/persistence round-trip of
the new aggregation-health fields."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import ExperimentSpec, run_experiment
from repro.fl.aggregation import fedavg_aggregate, weighted_average_flat
from repro.fl.history import History
from repro.fl.robust import (
    available_adversaries,
    available_aggregators,
    build_adversary,
    build_aggregator,
    register_adversary,
    register_aggregator,
    robust_aggregate,
)
from repro.fl.robust.adversaries import Adversary, adversary_roster
from repro.fl.robust.aggregators import MultiKrum, RobustAggregator
from repro.fl.server import Server
from repro.fl.types import ClientUpdate, FLConfig, RoundRecord
from repro.io.persistence import load_history, save_history
from repro.algorithms.registry import build_strategy


def make_updates(vectors, shapes=((3, 2), (4,)), num_samples=None):
    """Wrap flat float32 vectors as ClientUpdates with the given tree shapes."""
    out = []
    for i, vec in enumerate(vectors):
        flat = np.asarray(vec, dtype=np.float32)
        out.append(
            ClientUpdate.from_flat(
                flat, [tuple(s) for s in shapes],
                client_id=i,
                num_samples=(num_samples[i] if num_samples else 10),
                train_loss=0.5,
            )
        )
    return out


P = 10  # total params of the ((3,2),(4,)) tree


class TestAggregators:
    def test_registry_lists_builtins(self):
        assert {"mean", "coordinate_median", "trimmed_mean", "norm_clip",
                "norm_screen", "krum", "multi_krum"} <= set(available_aggregators())

    def test_unknown_name_and_bad_kwargs_raise(self):
        with pytest.raises(ValueError, match="unknown aggregator"):
            build_aggregator("resilient_mean")
        with pytest.raises(ValueError, match="bad arguments"):
            build_aggregator("trimmed_mean", gamma=2.0)

    def test_mean_matches_gemm_baseline(self):
        rng = np.random.default_rng(0)
        updates = make_updates(rng.standard_normal((4, P)), num_samples=[1, 2, 3, 4])
        agg = build_aggregator("mean")
        out, screened = robust_aggregate(agg, updates, updates[0].flat)
        assert screened == []
        mat = np.stack([u.flat_vector().astype(np.float64) for u in updates])
        expected = weighted_average_flat(mat, [1, 2, 3, 4])
        np.testing.assert_allclose(out, expected.astype(np.float32))

    def test_coordinate_median_ignores_one_wild_outlier(self):
        vecs = np.ones((5, P), dtype=np.float32)
        vecs[2] = 1e6  # one adversarial row
        updates = make_updates(vecs)
        out, screened = robust_aggregate(
            build_aggregator("coordinate_median"), updates, updates[0].flat)
        np.testing.assert_array_equal(out, np.ones(P, np.float32))
        assert screened == []

    def test_trimmed_mean_cuts_extremes(self):
        # 5 rows valued 0..4 per coordinate; beta=0.2 cuts one from each end.
        vecs = np.tile(np.arange(5, dtype=np.float32)[:, None], (1, P))
        updates = make_updates(vecs)
        out, _ = robust_aggregate(
            build_aggregator("trimmed_mean", beta=0.2), updates, updates[0].flat)
        np.testing.assert_allclose(out, np.full(P, 2.0, np.float32))

    def test_trimmed_mean_beta_zero_is_unweighted_mean(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((4, P)).astype(np.float32)
        updates = make_updates(vecs)
        out, _ = robust_aggregate(
            build_aggregator("trimmed_mean", beta=0.0), updates, updates[0].flat)
        np.testing.assert_allclose(
            out,
            vecs.astype(np.float64).mean(axis=0).astype(np.float32), rtol=1e-6)

    def test_trimmed_mean_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            build_aggregator("trimmed_mean", beta=0.5)

    def test_norm_screen_drops_largest_delta_and_reports_id(self):
        g = np.zeros(P, np.float32)
        vecs = 0.1 * np.ones((4, P), dtype=np.float32)
        vecs[3] = 50.0
        updates = make_updates(vecs)
        out, screened = robust_aggregate(
            build_aggregator("norm_screen", f=1), updates, g)
        assert screened == [3]
        np.testing.assert_allclose(
            out,
            np.full(P, 0.1, np.float32), rtol=1e-6)

    def test_norm_screen_refuses_to_drop_everyone(self):
        updates = make_updates(np.ones((2, P), np.float32))
        with pytest.raises(ValueError, match="every one"):
            robust_aggregate(
                build_aggregator("norm_screen", f=2), updates, updates[0].flat)

    def test_norm_clip_attenuates_scaled_update(self):
        g = np.zeros(P, np.float32)
        vecs = np.ones((4, P), dtype=np.float32)
        vecs[0] = 100.0  # boosted update, same direction
        updates = make_updates(vecs)
        out, screened = robust_aggregate(
            build_aggregator("norm_clip"), updates, g)
        assert screened == []
        # Median norm caps the outlier at honest magnitude: all rows clip to
        # the same delta, so the mean is ~1 per coordinate, not ~25.
        np.testing.assert_allclose(out, np.ones(P), rtol=1e-5)

    def test_krum_selects_the_cluster_not_the_outlier(self):
        rng = np.random.default_rng(2)
        honest = 0.01 * rng.standard_normal((5, P))
        vecs = np.vstack([honest, 100.0 + np.zeros((1, P))]).astype(np.float32)
        updates = make_updates(vecs)
        out, screened = robust_aggregate(
            build_aggregator("krum", f=1), updates, updates[0].flat)
        assert 5 in screened  # the outlier never wins Krum
        assert np.abs(out).max() < 1.0

    def test_multi_krum_m_defaults_to_k_minus_f(self):
        updates = make_updates(np.ones((6, P), np.float32))
        agg = build_aggregator("multi_krum", f=2)
        _, screened = robust_aggregate(agg, updates, updates[0].flat)
        assert len(screened) == 2  # K - (K - f) rows screened

    def test_multi_krum_needs_f_plus_3_clients(self):
        updates = make_updates(np.ones((3, P), np.float32))
        with pytest.raises(ValueError, match="f \\+ 3"):
            robust_aggregate(MultiKrum(f=1), updates, updates[0].flat)

    def test_mixed_dtype_tree_raises(self):
        # A mixed-dtype tree has no flat vector to stack: rejected, naming
        # its dtypes, instead of reduced per layer.
        trees = []
        for v in (1.0, 2.0, 3.0):
            trees.append([
                np.full((3, 2), v, np.float32), np.full(4, v, np.float64)])
        updates = [
            ClientUpdate(client_id=i, weights=t, num_samples=10, train_loss=0.1)
            for i, t in enumerate(trees)
        ]
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            robust_aggregate(build_aggregator("coordinate_median"), updates,
                             np.zeros(10, np.float32))

    def test_structure_mismatch_raises(self):
        # The server is flat: updates of another parameter count, or a
        # global model of another size, are rejected.
        a = make_updates(np.ones((1, P), np.float32))[0]
        b = ClientUpdate(
            client_id=1,
            weights=[np.ones(6, np.float32), np.ones((2, 1), np.float32)],
            num_samples=10, train_loss=0.1)
        with pytest.raises(ValueError, match="differ in size"):
            robust_aggregate(build_aggregator("coordinate_median"), [a, b], a.flat)
        with pytest.raises(ValueError, match="parameters"):
            robust_aggregate(build_aggregator("coordinate_median"), [a], a.flat[:-1])

    def test_custom_rule_registers(self):
        class FirstWins(RobustAggregator):
            name = "first_wins"

            def reduce(self, mat, weights, global_flat):
                return mat[0].copy(), [0]

        register_aggregator("first_wins", FirstWins)
        try:
            updates = make_updates(np.arange(3 * P, dtype=np.float32).reshape(3, P))
            out, screened = robust_aggregate(
                build_aggregator("first_wins"), updates, updates[0].flat)
            assert screened == [1, 2]
            np.testing.assert_array_equal(
                out,
                np.arange(P, dtype=np.float32))
        finally:
            from repro.fl.robust.aggregators import _AGGREGATORS

            _AGGREGATORS.pop("first_wins", None)


class TestWeightedAverageHardening:
    """Satellite: clear errors on degenerate weights, K=1 pinned."""

    def test_all_zero_weights_raise_clear_error_flat(self):
        mat = np.ones((3, 4))
        with pytest.raises(ValueError, match="sum to zero"):
            weighted_average_flat(mat, [0.0, 0.0, 0.0])

    def test_all_zero_weights_raise_clear_error_fedavg(self):
        updates = [ClientUpdate(k, [np.ones(3, np.float32)], 0, 0.0) for k in range(2)]
        with pytest.raises(ValueError, match="sum to zero"):
            fedavg_aggregate(updates)

    def test_negative_and_nonfinite_weights_get_distinct_errors(self):
        mat = np.ones((2, 4))
        with pytest.raises(ValueError, match="non-negative"):
            weighted_average_flat(mat, [1.0, -1.0])
        with pytest.raises(ValueError, match="finite"):
            weighted_average_flat(mat, [1.0, np.nan])

    def test_k1_average_returns_the_single_row_exactly(self):
        row = np.random.default_rng(3).standard_normal(7)
        out = weighted_average_flat(row[None, :], [5.0])
        np.testing.assert_array_equal(out, row)

    def test_k1_fedavg_returns_the_single_update_exactly(self):
        tree = [np.random.default_rng(4).standard_normal((2, 3)).astype(np.float32)]
        out = fedavg_aggregate([ClientUpdate(0, tree, 3, 0.0)])
        np.testing.assert_array_equal(out, tree[0].ravel())


class TestAdversaries:
    def test_registry_lists_builtins(self):
        assert {"sign_flip", "scale", "gauss_noise", "label_flip",
                "collude"} <= set(available_adversaries())

    def test_roster_is_deterministic_and_sized(self):
        a = adversary_roster(64, 0.25, seed=7)
        b = adversary_roster(64, 0.25, seed=7)
        assert a == b and len(a) == 16
        assert adversary_roster(64, 0.25, seed=8) != a  # seed actually matters
        assert adversary_roster(10, 0.0, seed=7) == ()

    def test_build_requires_positive_fraction(self):
        with pytest.raises(ValueError, match="fraction"):
            build_adversary("sign_flip", n_clients=10, fraction=0.0, seed=0)

    def test_unknown_name_and_bad_kwargs_raise(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            build_adversary("byzantine", n_clients=10, fraction=0.5, seed=0)
        with pytest.raises(ValueError, match="bad arguments"):
            build_adversary("sign_flip", n_clients=10, fraction=0.5, seed=0, sigma=1.0)

    def test_sign_flip_reflects_delta_about_global(self):
        adv = build_adversary("sign_flip", n_clients=4, fraction=0.5, seed=0, gamma=2.0)
        u = make_updates([np.full(P, 3.0, np.float32)])[0]
        g = np.ones(P, np.float32)
        out = adv.corrupt_update(u, 0, g, None)
        # g - gamma*(w - g) = 1 - 2*2 = -3
        np.testing.assert_allclose(out.flat_vector(), np.full(P, -3.0, np.float32))
        assert out.client_id == u.client_id and out.num_samples == u.num_samples

    def test_scale_boosts_delta(self):
        adv = build_adversary("scale", n_clients=4, fraction=0.5, seed=0, gamma=10.0)
        u = make_updates([np.full(P, 2.0, np.float32)])[0]
        g = np.ones(P, np.float32)
        out = adv.corrupt_update(u, 0, g, None)
        np.testing.assert_allclose(out.flat_vector(), np.full(P, 11.0, np.float32))

    def test_gauss_noise_keyed_by_client_and_round(self):
        adv = build_adversary("gauss_noise", n_clients=4, fraction=0.5, seed=0)
        u = make_updates([np.zeros(P, np.float32)])[0]
        g = np.zeros(P, np.float32)
        a = adv.corrupt_update(u, 0, g, None).flat_vector()
        b = adv.corrupt_update(u, 0, g, None).flat_vector()
        c = adv.corrupt_update(u, 1, g, None).flat_vector()
        np.testing.assert_array_equal(a, b)  # replayable
        assert not np.array_equal(a, c)      # fresh per round

    def test_colluders_submit_identical_vectors(self):
        adv = build_adversary("collude", n_clients=4, fraction=0.5, seed=0)
        u0, u1 = make_updates(np.random.default_rng(5).standard_normal((2, P)))
        g = np.zeros(P, np.float32)
        a = adv.corrupt_update(u0, 3, g, None).flat_vector()
        b = adv.corrupt_update(u1, 3, g, None).flat_vector()
        np.testing.assert_array_equal(a, b)
        c = adv.corrupt_update(u0, 4, g, None).flat_vector()
        assert not np.array_equal(a, c)

    def test_label_flip_poisons_only_roster_shards(self):
        from repro.data import build_federated_data
        from repro.fl.client import Client

        data = build_federated_data("tiny", n_clients=4, partition="iid", seed=0)
        clients = [Client(k, data.client_dataset(k), seed=0) for k in range(4)]
        originals = [c.dataset.y.copy() for c in clients]
        adv = build_adversary("label_flip", n_clients=4, fraction=0.25, seed=0)
        adv.poison_clients(clients, num_classes=4)
        for c, y0 in zip(clients, originals):
            if adv.is_adversary(c.id):
                np.testing.assert_array_equal(c.dataset.y, 3 - y0)
            else:
                np.testing.assert_array_equal(c.dataset.y, y0)

    def test_adversary_pickles(self):
        adv = build_adversary("collude", n_clients=8, fraction=0.25, seed=3, gamma=2.0)
        clone = pickle.loads(pickle.dumps(adv))
        assert clone.ids == adv.ids and clone.gamma == adv.gamma
        u = make_updates([np.zeros(P, np.float32)])[0]
        g = np.zeros(P, np.float32)
        np.testing.assert_array_equal(
            adv.corrupt_update(u, 0, g, None).flat_vector(),
            clone.corrupt_update(u, 0, g, None).flat_vector())

    def test_custom_adversary_registers(self):
        class Zeroer(Adversary):
            name = "zeroer"

            def corrupt_update(self, update, round_idx, global_flat, global_weights):
                return self._rewrite(update, global_flat, lambda w, g: np.zeros_like(w))

        register_adversary("zeroer", Zeroer)
        try:
            adv = build_adversary("zeroer", n_clients=4, fraction=0.5, seed=0)
            u = make_updates([np.ones(P, np.float32)])[0]
            out = adv.corrupt_update(u, 0, np.zeros(P, np.float32), None)
            np.testing.assert_array_equal(out.flat_vector(), np.zeros(P, np.float32))
        finally:
            from repro.fl.robust.adversaries import _ADVERSARIES

            _ADVERSARIES.pop("zeroer", None)


class TestServerIntegration:
    def _server(self, aggregator=None):
        weights = [np.zeros((3, 2), np.float32), np.zeros(4, np.float32)]
        config = FLConfig(rounds=2, n_clients=4, clients_per_round=4,
                          batch_size=10, lr=0.1, seed=0)
        return Server(weights, build_strategy("fedavg"), config,
                      aggregator=aggregator)

    def test_robust_path_screens_and_reports(self):
        server = self._server(build_aggregator("norm_screen", f=1))
        vecs = 0.1 * np.ones((4, P), dtype=np.float32)
        vecs[2] = 40.0
        server.apply_updates(make_updates(vecs))
        assert server.last_screened == [2]
        assert server.last_dropped == [] and not server.last_skipped
        np.testing.assert_allclose(server.flat_weights,
                                   np.full(P, 0.1, np.float32), rtol=1e-6)

    def test_dropped_ids_reported_and_reset(self):
        server = self._server(build_aggregator("coordinate_median"))
        vecs = np.ones((4, P), dtype=np.float32)
        updates = make_updates(vecs)
        bad = np.full(P, np.nan, np.float32)
        updates[1] = ClientUpdate.from_flat(
            bad, [(3, 2), (4,)], client_id=1, num_samples=10, train_loss=0.1)
        server.apply_updates(updates)
        assert server.last_dropped == [1]
        server.apply_updates(make_updates(vecs))
        assert server.last_dropped == []  # report resets per round

    def test_all_bad_round_skips_and_flags(self):
        server = self._server(build_aggregator("coordinate_median"))
        bad = np.full((2, P), np.inf, np.float32)
        server.apply_updates(make_updates(bad))
        assert server.last_skipped and server.skipped_rounds == 1
        np.testing.assert_array_equal(server.flat_weights, np.zeros(P, np.float32))

    def test_aggregator_rejects_strategy_with_custom_aggregate(self):
        weights = [np.zeros((3, 2), np.float32), np.zeros(4, np.float32)]
        config = FLConfig(rounds=2, n_clients=4, clients_per_round=4,
                          batch_size=10, lr=0.1, seed=0)
        with pytest.raises(ValueError, match="override"):
            Server(weights, build_strategy("fednova"), config,
                   aggregator=build_aggregator("coordinate_median"))


class TestSpecAndPersistence:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="aggregator_kwargs"):
            ExperimentSpec(aggregator="mean", aggregator_kwargs={"beta": 0.1})
        with pytest.raises(ValueError, match="attacks nobody"):
            ExperimentSpec(adversary="sign_flip")
        with pytest.raises(ValueError, match="does nothing"):
            ExperimentSpec(adversary_fraction=0.5)
        with pytest.raises(ValueError, match="adversary_kwargs"):
            ExperimentSpec(adversary_kwargs={"gamma": 2.0})
        with pytest.raises(ValueError, match="adversary_fraction"):
            ExperimentSpec(adversary="sign_flip", adversary_fraction=1.5)

    def test_spec_round_trips_and_hashes(self):
        spec = ExperimentSpec(aggregator="trimmed_mean",
                              aggregator_kwargs={"beta": 0.25},
                              adversary="collude", adversary_fraction=0.25,
                              adversary_kwargs={"gamma": 2.0})
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec and clone.cell_key() == spec.cell_key()
        assert spec.cell_key() != ExperimentSpec().cell_key()

    def test_spec_builders(self):
        spec = ExperimentSpec(aggregator="multi_krum",
                              aggregator_kwargs={"f": 2, "m": 3},
                              adversary="scale", adversary_fraction=0.2,
                              adversary_kwargs={"gamma": 4.0})
        agg = spec.build_aggregator()
        assert agg.f == 2 and agg.m == 3
        adv = spec.build_adversary()
        assert adv.gamma == 4.0 and adv.n_clients == spec.n_clients
        assert ExperimentSpec().build_aggregator() is None
        assert ExperimentSpec().build_adversary() is None

    def test_history_round_trip_preserves_health_fields(self, tmp_path):
        hist = History()
        hist.append(RoundRecord(
            round_idx=0, selected=[0, 1, 2], test_accuracy=50.0, test_loss=1.0,
            mean_train_loss=0.8, cumulative_flops=1e6, cumulative_comm_bytes=1e4,
            wall_seconds=0.1, dropped_clients=[2], screened_clients=[1],
            adversary_clients=[1], round_skipped=False))
        hist.append(RoundRecord(
            round_idx=1, selected=[0, 3], test_accuracy=None, test_loss=None,
            mean_train_loss=0.7, cumulative_flops=2e6, cumulative_comm_bytes=2e4,
            wall_seconds=0.1, round_skipped=True))
        path = str(tmp_path / "hist.json")
        save_history(hist, path)
        loaded = load_history(path)
        assert [r.to_dict() for r in loaded.records] == [r.to_dict() for r in hist.records]
        assert loaded.skipped_rounds() == 1
        assert loaded.dropped_client_ids() == [2]
        assert loaded.screened_client_ids() == [1]
        assert loaded.adversary_hit_rate() == 1.0

    def test_legacy_history_files_still_load(self, tmp_path):
        import json

        payload = {"records": [{
            "round": 0, "selected": [0], "test_accuracy": 10.0,
            "test_loss": 2.0, "mean_train_loss": 1.0, "cumulative_flops": 1.0,
            "cumulative_comm_bytes": 1.0, "wall_seconds": 0.1}],
            "stop_reason": None}
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        loaded = load_history(str(path))
        rec = loaded.records[0]
        assert rec.dropped_clients == [] and rec.screened_clients == []
        assert rec.adversary_clients is None and rec.round_skipped is False


class TestEndToEnd:
    BASE = dict(dataset="tiny", model="mlp", method="fedavg", partition="iid",
                n_clients=4, clients_per_round=4, rounds=2, batch_size=20,
                lr=0.05, seed=0)

    def test_attack_labels_and_screening_land_in_history(self):
        spec = ExperimentSpec(**self.BASE, aggregator="norm_screen",
                              adversary="scale", adversary_fraction=0.25,
                              adversary_kwargs={"gamma": 50.0})
        hist = run_experiment(spec)
        for r in hist.records:
            assert r.adversary_clients  # the one roster member, sampled
            assert r.screened_clients == r.adversary_clients  # caught red-handed
        assert hist.adversary_hit_rate() == 1.0

    def test_no_adversary_leaves_labels_none(self):
        hist = run_experiment(ExperimentSpec(**self.BASE))
        assert all(r.adversary_clients is None for r in hist.records)
        assert all(not r.screened_clients for r in hist.records)

    def test_label_flip_trains_end_to_end(self):
        spec = ExperimentSpec(**self.BASE, aggregator="coordinate_median",
                              adversary="label_flip", adversary_fraction=0.25)
        hist = run_experiment(spec)
        assert len(hist) == 2
        assert np.isfinite(hist.accuracies()).all()

    def test_cli_flags_build_and_run(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "hist.json"
        rc = main(["train", "--dataset", "tiny", "--model", "mlp",
                   "--method", "fedavg", "--partition", "iid",
                   "--clients", "4", "--clients-per-round", "4",
                   "--rounds", "2", "--batch-size", "20",
                   "--aggregator", "trimmed_mean", "--aggregator-arg", "beta=0.25",
                   "--adversary", "sign_flip", "--adversary-fraction", "0.25",
                   "--adversary-arg", "gamma=3", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "aggregator=trimmed_mean" in captured
        assert out.exists()
        loaded = load_history(str(out))
        assert all(r.adversary_clients for r in loaded.records)
