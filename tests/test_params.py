"""The flat-parameter hot path: layout/plane round-trips, zero-copy
views, loop-vs-fold aggregation equivalence, flat privacy/secure/
compression equivalence, and cross-executor x cross-mode byte-identity
on the single-buffer representation."""

from __future__ import annotations

import os
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentSpec, run_experiment
from repro.fl.aggregation import fedavg_aggregate, weighted_average_flat
from repro.fl.compression import QuantizationCompressor, TopKCompressor
from repro.fl.params import MatrixPool, ParamPlane, WeightLayout, stack_updates
from repro.fl.privacy import GaussianMechanism
from repro.fl.secure import PairwiseMasker
from repro.fl.server import Server
from repro.fl.types import ClientUpdate, FLConfig
from repro.algorithms.registry import build_strategy

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))

from bench_hot_path import weighted_average_trees_loop  # noqa: E402


# ---------------------------------------------------------------------------
# strategies for random weight trees
# ---------------------------------------------------------------------------

@st.composite
def f32_trees(draw, max_arrays=5, max_dim=6):
    """A homogeneous float32 weight tree with assorted ranks (0-d included)."""
    n = draw(st.integers(1, max_arrays))
    shapes = [
        tuple(draw(st.lists(st.integers(1, max_dim), min_size=0, max_size=3)))
        for _ in range(n)
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    return [rng.standard_normal(s).astype(np.float32) for s in shapes]


def random_tree(shapes, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(s).astype(dtype) for s in shapes]


SHAPES = [(4, 3), (4,), (2, 4), (2,)]


# ---------------------------------------------------------------------------
# WeightLayout / ParamPlane
# ---------------------------------------------------------------------------

class TestWeightLayout:
    @given(f32_trees())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_preserves_shapes_dtypes_values(self, tree):
        layout = WeightLayout.from_weights(tree)
        buf = bytearray(layout.total_bytes)
        for view, w in zip(layout.views(buf, writeable=True), tree):
            np.copyto(view, w)
        for view, w in zip(layout.views(buf, writeable=False), tree):
            np.testing.assert_array_equal(view, w)
            assert view.shape == w.shape and view.dtype == w.dtype
            assert not view.flags.writeable

    @given(f32_trees())
    @settings(max_examples=40, deadline=None)
    def test_homogeneous_layout_is_packed_and_flat_addressable(self, tree):
        layout = WeightLayout.from_weights(tree)
        assert layout.total_elems == sum(w.size for w in tree)
        assert layout.total_bytes == 4 * layout.total_elems
        buf = bytearray(layout.total_bytes)
        flat = layout.flat_view(buf, writeable=True)
        flat[:] = np.arange(layout.total_elems, dtype=np.float32)
        # the flat vector and the per-layer views alias the same bytes
        cursor = 0
        for view in layout.views(buf, writeable=False):
            np.testing.assert_array_equal(
                view.ravel(), np.arange(cursor, cursor + view.size, dtype=np.float32))
            cursor += view.size

    def test_mixed_dtype_layout_raises(self):
        tree = [np.ones(3, dtype=np.float32), np.ones(2, dtype=np.float64)]
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            WeightLayout.from_weights(tree)
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            ParamPlane.from_tree(tree)

    def test_tree_of_rejects_wrong_size(self):
        layout = WeightLayout.from_weights(random_tree(SHAPES, 0))
        with pytest.raises(ValueError, match="flat vector"):
            layout.tree_of(np.zeros(3, dtype=np.float32))


class TestParamPlane:
    def test_views_alias_one_buffer_no_silent_copies(self):
        tree = random_tree(SHAPES, 1)
        plane = ParamPlane.from_tree(tree)
        assert plane.flat is not None
        for view, w in zip(plane.tree, tree):
            np.testing.assert_array_equal(view, w)
            assert np.shares_memory(view, plane.flat)
            assert np.shares_memory(view, plane.bytes_view())
        # a write through the flat vector is visible through the tree views
        plane.flat[:] = 7.0
        for view in plane.tree:
            assert (view == 7.0).all()
        # and vice versa
        plane.tree[0][...] = -1.0
        assert (plane.flat[: plane.tree[0].size] == -1.0).all()

    def test_copy_from_tree_is_in_place(self):
        plane = ParamPlane.from_tree(random_tree(SHAPES, 2))
        before = [id(v) for v in plane.tree]
        flat_id = id(plane.flat)
        plane.copy_from_tree(random_tree(SHAPES, 3))
        assert [id(v) for v in plane.tree] == before and id(plane.flat) == flat_id
        np.testing.assert_array_equal(plane.flat, np.concatenate(
            [w.ravel() for w in random_tree(SHAPES, 3)]))

    def test_copy_from_tree_casts_float64(self):
        plane = ParamPlane.from_tree(random_tree(SHAPES, 4))
        plane.copy_from_tree(random_tree(SHAPES, 5, dtype=np.float64))
        assert plane.flat.dtype == np.float32

    def test_copy_from_tree_rejects_wrong_structure(self):
        plane = ParamPlane.from_tree(random_tree(SHAPES, 6))
        with pytest.raises(ValueError, match="weight tree"):
            plane.copy_from_tree(random_tree(SHAPES, 6)[:-1])
        with pytest.raises(ValueError, match="shape"):
            plane.copy_from_tree([w.T for w in random_tree(SHAPES, 6)])

    def test_matrix_pool_reuses_allocations(self):
        pool = MatrixPool()
        a = pool.take(4, 10)
        b = pool.take(4, 10)
        assert a is b
        assert pool.take(2, 10) is not a


# ---------------------------------------------------------------------------
# ClientUpdate flat fast path
# ---------------------------------------------------------------------------

class TestClientUpdateFlat:
    def _flat_update(self, seed=0):
        tree = random_tree(SHAPES, seed)
        flat = np.concatenate([w.ravel() for w in tree])
        return ClientUpdate.from_flat(
            flat, SHAPES, client_id=3, num_samples=10, train_loss=0.5), tree

    def test_from_flat_tree_views_share_memory(self):
        u, tree = self._flat_update()
        for view, w in zip(u.weights, tree):
            np.testing.assert_array_equal(view, w)
            assert np.shares_memory(view, u.flat)

    def test_flat_vector_lazily_caches(self):
        tree = random_tree(SHAPES, 1)
        u = ClientUpdate(0, tree, 5, 0.1)
        assert u.flat is None
        flat = u.flat_vector()
        np.testing.assert_array_equal(flat, np.concatenate([w.ravel() for w in tree]))
        assert u.flat_vector() is flat

    def test_flat_vector_raises_on_mixed_dtypes(self):
        u = ClientUpdate(0, [np.ones(2, np.float32), np.ones(2, np.float64)], 5, 0.1)
        with pytest.raises(ValueError, match=r"\['float32', 'float64'\]"):
            u.flat_vector()

    def test_pickle_round_trip_rebuilds_views(self):
        u, tree = self._flat_update()
        back = pickle.loads(pickle.dumps(u))
        assert back.client_id == u.client_id and back.num_samples == u.num_samples
        np.testing.assert_array_equal(back.flat, u.flat)
        for view, w in zip(back.weights, tree):
            np.testing.assert_array_equal(view, w)
            assert np.shares_memory(view, back.flat)

    def test_pickle_ships_flat_once_not_tree_plus_flat(self):
        u, tree = self._flat_update()
        plain = ClientUpdate(3, [w.copy() for w in tree], 10, 0.5)
        assert len(pickle.dumps(u)) <= len(pickle.dumps(plain)) + 200


# ---------------------------------------------------------------------------
# aggregation: loop vs fold
# ---------------------------------------------------------------------------

class TestAggregationEquivalence:
    @given(st.integers(2, 8), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_gemm_matches_loop(self, k, seed):
        rng = np.random.default_rng(seed)
        trees = [random_tree(SHAPES, rng.integers(2**31)) for _ in range(k)]
        weights = list(rng.uniform(0.1, 5.0, size=k))
        mat = np.stack([np.concatenate([w.ravel() for w in t]) for t in trees])
        fold = weighted_average_flat(mat, weights).astype(np.float32)
        loop = weighted_average_trees_loop(trees, weights)
        assert all(b.dtype == np.float32 for b in loop)
        np.testing.assert_allclose(
            fold.astype(np.float64),
            np.concatenate([b.ravel() for b in loop]).astype(np.float64),
            rtol=1e-6, atol=1e-7)

    def test_update_flats_feed_the_matrix(self):
        updates = []
        for cid in range(5):
            tree = random_tree(SHAPES, cid)
            flat = np.concatenate([w.ravel() for w in tree])
            updates.append(ClientUpdate.from_flat(
                flat, SHAPES, client_id=cid, num_samples=cid + 1, train_loss=0.0))
        mat = stack_updates([u.flat_vector() for u in updates])
        assert mat.shape == (5, sum(int(np.prod(s)) for s in SHAPES))
        for row, u in enumerate(updates):
            np.testing.assert_array_equal(mat[row], u.flat.astype(np.float64))
        agg = fedavg_aggregate(updates)
        w = np.array([u.num_samples for u in updates], dtype=np.float64)
        np.testing.assert_allclose(agg, ((w / w.sum()) @ mat).astype(np.float32), rtol=1e-6)

    def test_weighted_average_flat_is_one_gemm(self):
        mat = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = weighted_average_flat(mat, [1.0, 1.0, 2.0])
        np.testing.assert_allclose(out, (mat[0] + mat[1] + 2 * mat[2]) / 4.0)

    def test_validation_preserved(self):
        with pytest.raises(ValueError, match="no client updates"):
            fedavg_aggregate([])
        row = np.concatenate([w.ravel() for w in random_tree(SHAPES, 0)])
        with pytest.raises(ValueError, match="one weight per row"):
            weighted_average_flat(row[None, :], [1.0, 2.0])
        with pytest.raises(ValueError, match="non-negative"):
            weighted_average_flat(np.stack([row, row]), [1.0, -1.0])
        short = ClientUpdate.from_flat(row[:-2], [(row.size - 2,)], client_id=1,
                                       num_samples=1, train_loss=0.0)
        full = ClientUpdate.from_flat(row, [(row.size,)], client_id=0,
                                      num_samples=1, train_loss=0.0)
        with pytest.raises(ValueError, match="row has"):
            fedavg_aggregate([full, short])

    def test_matrix_pool_is_thread_local(self):
        import threading
        from repro.fl.params import _default_pool

        pools = {}

        def grab(name):
            pools[name] = _default_pool()

        t = threading.Thread(target=grab, args=("worker",))
        t.start(); t.join()
        grab("main")
        assert pools["main"] is not pools["worker"]


# ---------------------------------------------------------------------------
# the plane-backed server
# ---------------------------------------------------------------------------

class TestServerPlane:
    def _server(self):
        cfg = FLConfig(rounds=1, n_clients=4, clients_per_round=2)
        return Server(random_tree(SHAPES, 0), build_strategy("fedavg"), cfg)

    def _update(self, cid, seed):
        tree = random_tree(SHAPES, seed)
        flat = np.concatenate([w.ravel() for w in tree])
        return ClientUpdate.from_flat(
            flat, SHAPES, client_id=cid, num_samples=10, train_loss=0.0)

    def test_weights_are_stable_views_updated_in_place(self):
        server = self._server()
        views = server.weights
        ids = [id(v) for v in views]
        server.apply_updates([self._update(0, 1), self._update(1, 2)])
        assert [id(v) for v in server.weights] == ids
        for v in views:
            assert np.shares_memory(v, server.plane.flat)

    def test_flat_weights_alias_tree(self):
        server = self._server()
        server.flat_weights[:] = 3.0
        for v in server.weights:
            assert (v == 3.0).all()

    def test_partition_finite_single_evaluation(self, monkeypatch):
        server = self._server()
        calls = []
        original = Server._finite

        def counting(update):
            calls.append(update.client_id)
            return original(update)

        monkeypatch.setattr(Server, "_finite", staticmethod(counting))
        bad = self._update(7, 3)
        bad.flat[0] = np.nan
        healthy = server.partition_finite([self._update(0, 1), bad, self._update(1, 2)])
        assert [u.client_id for u in healthy] == [0, 1]
        # one verdict per update, even on the drop-and-report path
        assert sorted(calls) == [0, 1, 7]

    def test_finite_check_uses_flat_vector(self):
        u = self._update(0, 1)
        u.flat[5] = np.inf
        assert not Server._finite(u)
        assert Server._finite(self._update(1, 2))


# ---------------------------------------------------------------------------
# flat privacy / secure-agg / compression equivalence
# ---------------------------------------------------------------------------

class TestFlatWrappers:
    def test_gaussian_mechanism_flat_equals_tree(self):
        tree = random_tree(SHAPES, 3)
        flat = np.concatenate([w.ravel() for w in tree])
        mech_t = GaussianMechanism(clip_norm=0.5, noise_multiplier=1.0, seed=9)
        mech_f = GaussianMechanism(clip_norm=0.5, noise_multiplier=1.0, seed=9)
        out_tree = mech_t.privatize(tree, round_idx=2, client_id=1)
        out_flat = mech_f.privatize_flat(flat, round_idx=2, client_id=1)
        np.testing.assert_array_equal(
            np.concatenate([w.ravel() for w in out_tree]), out_flat)

    def test_clip_flat_norm_bound(self):
        mech = GaussianMechanism(clip_norm=1.0, noise_multiplier=0.0)
        v = np.full(100, 10.0, dtype=np.float32)
        clipped = mech.clip_flat(v)
        assert np.linalg.norm(clipped) == pytest.approx(1.0, rel=1e-5)
        assert clipped is not v and (v == 10.0).all()

    def test_pairwise_masks_cancel_on_flat_path(self):
        cohort = [0, 1, 2]
        updates = {cid: random_tree(SHAPES, cid) for cid in cohort}
        masker = PairwiseMasker(seed=4, scale=50.0)
        masked = {
            cid: masker.mask_update(cid, cohort, 1, upd)
            for cid, upd in updates.items()
        }
        total = masker.unmask_sum(masked, 1)
        expect = [sum(updates[c][i] for c in cohort) for i in range(len(SHAPES))]
        for a, b in zip(total, expect):
            np.testing.assert_allclose(a, b, atol=1e-3)

    @pytest.mark.parametrize("compressor", [
        QuantizationCompressor(bits=8, seed=0), TopKCompressor(fraction=0.25)])
    def test_flat_and_tree_codecs_agree(self, compressor):
        tree = random_tree(SHAPES, 5)
        flat = np.concatenate([w.ravel() for w in tree])
        payload_t, nbytes_t = type(compressor)(**_codec_args(compressor)).encode(tree)
        payload_f, nbytes_f = compressor.encode_flat(flat)
        assert nbytes_t == nbytes_f
        np.testing.assert_array_equal(
            np.concatenate([w.ravel() for w in
                            compressor.decode(payload_t, tree)]),
            compressor.decode_flat(payload_f))


def _codec_args(compressor):
    if isinstance(compressor, QuantizationCompressor):
        return {"bits": compressor.bits, "seed": 0}
    return {"fraction": compressor.fraction}


# ---------------------------------------------------------------------------
# cross-executor x cross-mode byte-identity on the flat representation
# ---------------------------------------------------------------------------

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=3, batch_size=20, lr=0.05)


def _records_signature(history):
    return [
        (r.round_idx, tuple(r.selected), r.test_accuracy, r.test_loss,
         r.mean_train_loss, r.cumulative_flops, r.cumulative_comm_bytes,
         tuple(r.dropped_clients), tuple(r.screened_clients),
         tuple(r.adversary_clients) if r.adversary_clients is not None else None,
         r.round_skipped)
        for r in history.records
    ]


class TestCrossExecutorCrossMode:
    @pytest.mark.parametrize("method", ["fedavg", "fedtrip"])
    def test_byte_identity_grid(self, method):
        """One seed, every (executor x mode) cell, one History.

        Semisync runs with a full buffer and no deadline, which must
        degenerate byte-identically to the synchronous barrier loop on the
        flat representation too (the re-pinned floats are one consistent
        set across the grid)."""
        reference = None
        for executor in ("serial", "process", "network"):
            for mode in ("sync", "semisync"):
                spec = ExperimentSpec(**{**TINY, "method": method,
                                         "executor": executor, "mode": mode,
                                         **({"device_profile": "iot"}
                                            if mode == "semisync" else {})})
                sig = _records_signature(run_experiment(spec))
                if reference is None:
                    reference = sig
                else:
                    assert sig == reference, (
                        f"{method}: {executor}/{mode} diverged from the grid")

    def test_byte_identity_grid_robust_aggregation_under_attack(self):
        """The determinism contract must survive the robust subsystem: a
        fixed seed with ``aggregator='coordinate_median'`` and an active
        ``sign_flip`` adversary yields byte-identical histories across
        serial/threaded/process/network executors and the sync/semisync barrier
        cells (full buffer, no deadline); the async cells — a different
        algorithm by construction — agree across executors against their
        own reference."""
        robust = {**TINY, "clients_per_round": 4,
                  "aggregator": "coordinate_median",
                  "adversary": "sign_flip", "adversary_fraction": 0.25,
                  "adversary_kwargs": {"gamma": 3.0}}
        references = {}
        for executor in ("serial", "threaded", "process", "network"):
            for mode in ("sync", "semisync", "async"):
                spec = ExperimentSpec(**{**robust,
                                         "executor": executor,
                                         "n_workers": 1 if executor == "serial" else 2,
                                         "mode": mode,
                                         **({"device_profile": "iot"}
                                            if mode == "semisync" else {})})
                history = run_experiment(spec)
                # The attack is active: labels are recorded (never None),
                # and the roster member shows up in the labels — every
                # barrier round under full participation, at least once in
                # async (whose one-arrival batches are often label-free).
                assert all(r.adversary_clients is not None
                           for r in history.records)
                if mode == "async":
                    assert any(r.adversary_clients for r in history.records)
                else:
                    assert all(r.adversary_clients for r in history.records)
                sig = _records_signature(history)
                key = "sync" if mode in ("sync", "semisync") else "async"
                if key not in references:
                    references[key] = sig
                else:
                    assert sig == references[key], (
                        f"{executor}/{mode} diverged from the {key} reference")
        # Two genuinely different algorithms were compared, not one.
        assert references["sync"] != references["async"]
