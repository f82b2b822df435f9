"""Tests for repro.utils: RNG streams, vector ops, timers."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.utils import (
    RngStream,
    StageTimer,
    Timer,
    flatten_arrays,
    seed_everything,
    spawn_rngs,
    tree_copy,
    unflatten_like,
)


class TestRngStream:
    def test_same_path_same_stream(self):
        a = RngStream(7).child("data").random(5)
        b = RngStream(7).child("data").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_independent(self):
        a = RngStream(7).child("data").random(5)
        b = RngStream(7).child("init").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).child("x").random(5)
        b = RngStream(2).child("x").random(5)
        assert not np.array_equal(a, b)

    def test_indexed_children(self):
        a = RngStream(0).child("client", 3).random(4)
        b = RngStream(0).child("client", 4).random(4)
        assert not np.array_equal(a, b)

    def test_order_independence(self):
        """Drawing from one child must not perturb a sibling."""
        root = RngStream(5)
        root.child("a").random(100)
        b1 = root.child("b").random(5)
        b2 = RngStream(5).child("b").random(5)
        np.testing.assert_array_equal(b1, b2)

    def test_child_requires_path(self):
        with pytest.raises(ValueError):
            RngStream(0).child()

    def test_spawn_rngs(self):
        rngs = spawn_rngs(3, ["a", "b"])
        assert set(rngs) == {"a", "b"}
        assert not np.array_equal(rngs["a"].random(4), rngs["b"].random(4))

    def test_seed_everything_returns_root(self):
        root = seed_everything(11)
        assert isinstance(root, RngStream)
        assert root.seed == 11


class TestVectorize:
    def test_flatten_unflatten_roundtrip(self, rng):
        arrays = [rng.standard_normal(s).astype(np.float32) for s in [(3, 4), (7,), (2, 2, 2)]]
        flat = flatten_arrays(arrays)
        assert flat.shape == (3 * 4 + 7 + 8,)
        back = unflatten_like(flat, arrays)
        for a, b in zip(arrays, back):
            np.testing.assert_array_equal(a, b)

    def test_unflatten_views_share_memory(self, rng):
        arrays = [rng.standard_normal((2, 2)).astype(np.float32)]
        flat = flatten_arrays(arrays)
        views = unflatten_like(flat, arrays)
        flat[0] = 42.0
        assert views[0][0, 0] == 42.0

    def test_unflatten_size_mismatch(self):
        with pytest.raises(ValueError):
            unflatten_like(np.zeros(5), [np.zeros((2, 2))])

    def test_flatten_empty(self):
        assert flatten_arrays([]).size == 0

    def test_tree_copy_independent(self):
        xs = [np.ones(2)]
        ys = tree_copy(xs)
        ys[0][0] = 5
        assert xs[0][0] == 1


class TestTimers:
    def test_timer_measures(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_stage_timer_accumulates(self):
        st = StageTimer()
        for _ in range(3):
            with st.stage("work"):
                time.sleep(0.002)
        assert st.counts["work"] == 3
        assert st.totals["work"] >= 0.005
        assert st.mean("work") > 0

    def test_stop_without_start_raises(self):
        with pytest.raises(KeyError):
            StageTimer().stop("nope")
