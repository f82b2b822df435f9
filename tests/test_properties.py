"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    orthogonal_partition,
    partition_label_counts,
)
from repro.fl.aggregation import weighted_average_flat
from repro.fl.types import ClientUpdate
from repro.nn import functional as F
from repro.utils.vectorize import flatten_arrays, unflatten_like

# Bounded float arrays that keep float32 arithmetic well-conditioned.
_floats = st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)


def _matrix(min_rows=1, max_rows=8, min_cols=2, max_cols=8):
    return hnp.arrays(
        np.float32,
        st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=_floats,
    )


class TestSoftmaxProperties:
    @given(_matrix())
    @settings(max_examples=50, deadline=None)
    def test_softmax_is_distribution(self, x):
        s = F.softmax(x, axis=1)
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-4)

    @given(_matrix(), st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariant(self, x, c):
        np.testing.assert_allclose(
            F.softmax(x, axis=1), F.softmax(x + np.float32(c), axis=1), atol=1e-4
        )

    @given(_matrix())
    @settings(max_examples=50, deadline=None)
    def test_log_softmax_nonpositive(self, x):
        assert (F.log_softmax(x, axis=1) <= 1e-6).all()


class TestVectorizeProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=5
        ),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_flatten_roundtrip(self, shapes, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s).astype(np.float32) for s in shapes]
        back = unflatten_like(flatten_arrays(arrays), arrays)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_flatten_length(self, sizes):
        arrays = [np.zeros(s, dtype=np.float32) for s in sizes]
        assert flatten_arrays(arrays).size == sum(sizes)


class TestPartitionProperties:
    @given(
        st.integers(2, 8),     # num classes
        st.integers(2, 6),     # clients
        st.integers(5, 30),    # samples per client
        st.floats(min_value=0.05, max_value=10.0),
        st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_dirichlet_exact_disjoint_cover(self, c, k, m, alpha, seed):
        rng = np.random.default_rng(seed)
        n = k * m * 3  # plenty of stock
        labels = rng.integers(0, c, size=n)
        shards = dirichlet_partition(labels, k, m, rng, alpha=alpha, num_classes=c)
        allidx = np.concatenate(shards)
        assert len(allidx) == k * m
        assert len(set(allidx.tolist())) == k * m
        counts = partition_label_counts(labels, shards, c)
        assert counts.sum() == k * m

    @given(st.integers(2, 6), st.integers(5, 30), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_iid_disjoint_cover(self, k, m, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=k * m * 2)
        shards = iid_partition(labels, k, m, rng)
        allidx = np.concatenate(shards)
        assert len(set(allidx.tolist())) == k * m

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_orthogonal_class_disjointness(self, n_clusters, seed):
        rng = np.random.default_rng(seed)
        c = 10
        labels = np.repeat(np.arange(c), 100)
        rng.shuffle(labels)
        shards = orthogonal_partition(labels, n_clusters * 2, 20, rng, n_clusters=n_clusters)
        counts = partition_label_counts(labels, shards, c)
        owners = {}
        for k in range(len(shards)):
            for cls in np.flatnonzero(counts[k]):
                owners.setdefault(int(cls), set()).add(k % n_clusters)
        # Every class is owned by exactly one cluster.
        assert all(len(v) == 1 for v in owners.values())


class TestAggregationProperties:
    @given(
        st.integers(1, 6),
        st.integers(1, 5),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_average_within_convex_hull(self, n_trees, n_layers, seed):
        rng = np.random.default_rng(seed)
        shapes = [(rng.integers(1, 4), rng.integers(1, 4)) for _ in range(n_layers)]
        trees = [
            [rng.standard_normal(s).astype(np.float32) for s in shapes]
            for _ in range(n_trees)
        ]
        weights = rng.random(n_trees) + 0.01
        mat = np.stack([np.concatenate([a.ravel() for a in t]) for t in trees])
        out = weighted_average_flat(mat, weights)
        assert (out >= mat.min(axis=0) - 1e-4).all()
        assert (out <= mat.max(axis=0) + 1e-4).all()

    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_identical_models_fixed_point(self, n_clients, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((3, 2)).astype(np.float32)
        from repro.fl.aggregation import fedavg_aggregate

        ups = [
            ClientUpdate(i, [w.copy()], int(rng.integers(1, 100)), 0.0)
            for i in range(n_clients)
        ]
        out = fedavg_aggregate(ups)
        np.testing.assert_allclose(out, w.ravel(), atol=1e-5)


class TestHistoryProperties:
    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=2, max_size=40),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_ema_bounded_by_series_range(self, accs, alpha):
        from repro.fl.history import History
        from repro.fl.types import RoundRecord

        h = History()
        for i, a in enumerate(accs):
            h.append(
                RoundRecord(i, [0], a, 0.0, 0.0, float(i), float(i), 0.0)
            )
        ema = h.ema_accuracy(alpha)
        assert (ema >= min(accs) - 1e-9).all()
        assert (ema <= max(accs) + 1e-9).all()

    @given(
        st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=40),
        st.floats(min_value=0, max_value=100),
    )
    @settings(max_examples=50, deadline=None)
    def test_rounds_to_accuracy_is_first_hit(self, accs, target):
        from repro.fl.history import History
        from repro.fl.types import RoundRecord

        h = History()
        for i, a in enumerate(accs):
            h.append(RoundRecord(i, [0], a, 0.0, 0.0, float(i), float(i), 0.0))
        r = h.rounds_to_accuracy(target)
        hits = [i for i, a in enumerate(accs) if a >= target]
        assert r == (hits[0] + 1 if hits else None)


class TestTheoryProperties:
    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_expected_xi_in_unit_interval(self, p):
        from repro.analysis import expected_xi

        v = expected_xi(p)
        assert 0 <= v <= 1.0 + 1e-12

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_suggested_mu_always_descends(self, L, B):
        from repro.analysis import rho_positive, suggested_mu

        assert rho_positive(suggested_mu(L, B), L, B)
