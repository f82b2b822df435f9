"""Population-scale federation: the pinned fold, lazy rosters, arenas.

Four contracts pinned here:

1. **One fold, bitwise.**  The pinned row fold makes the weighted average a
   function of the row *sequence* only: both flat entry points agree bit
   for bit, and every cell of the executor x mode experiment grid
   reproduces its serial reference.
2. **Aggregator invariants, property-based.**  Every registered rule is
   classified for permutation equivariance, weight-scale invariance and
   K=1 behaviour; a completeness check fails the suite the moment a new
   rule is registered without declaring its row in the tables, so new
   aggregators inherit the invariant suite automatically.
3. **Lazy == eager, bitwise.**  A :class:`Population`-backed run (lazy
   directory, per-(client, key) arena slots, optionally mmap-forced)
   yields byte-identical histories *and* per-client strategy state to the
   eager roster, across the serial and process executors.
4. **Resource hygiene.**  The shared :class:`MatrixPool` survives
   back-to-back different-P experiments and is reset on engine close; the
   tier-2 peak-RSS test pins the O(touched)-not-O(population) memory
   ceiling in subprocesses (``ru_maxrss`` is a process-lifetime max, so
   each cell needs a fresh process).
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentSpec, build_mode, run_experiment
from repro.data import build_federated_data
from repro.fl.aggregation import fedavg_aggregate, weighted_average_flat
from repro.fl.params import _default_pool, reset_default_pool
from repro.fl.population import (
    ClientDirectory,
    FlatStateArena,
    Population,
    PopulationSampler,
)
from repro.fl.robust import available_aggregators, build_aggregator
from repro.fl.types import ClientUpdate

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))

from bench_hot_path import weighted_average_trees_loop  # noqa: E402

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=3, batch_size=20, lr=0.05)

#: a schedule whose rows are already sorted (FixedSampler sorts each row,
#: so unsorted rows would silently select different cohorts than written)
SCHEDULE = ((0, 2), (1, 3), (1, 3))


def _sig(history):
    """The full byte-level identity signature of a run (mirrors
    ``test_params._records_signature``)."""
    return [
        (r.round_idx, tuple(r.selected), r.test_accuracy, r.test_loss,
         r.mean_train_loss, r.cumulative_flops, r.cumulative_comm_bytes,
         tuple(r.dropped_clients), tuple(r.screened_clients),
         tuple(r.adversary_clients) if r.adversary_clients is not None else None,
         r.round_skipped)
        for r in history.records
    ]


def _random_trees(seed: int, k: int = 11, dtype=np.float32):
    """K random parameter trees (mixed layer shapes, one dtype) + weights."""
    rng = np.random.default_rng(seed)
    shapes = [(3, 4), (7,), (2, 5), (1, 1, 6)]
    trees = [
        [rng.standard_normal(s).astype(dtype) for s in shapes]
        for _ in range(k)
    ]
    weights = rng.integers(1, 40, size=k).astype(np.float64)
    return trees, weights


@pytest.fixture(scope="module")
def tiny4():
    """The 4-shard dataset every TINY spec in this module trains on."""
    return build_federated_data(
        "tiny", n_clients=4, partition="dirichlet", alpha=0.5, seed=0
    )


# ---------------------------------------------------------------------------
# 1a. Function-level: one pinned fold behind both entry points.
# ---------------------------------------------------------------------------

def _rows(trees):
    return np.stack([np.concatenate([a.ravel() for a in t]) for t in trees])


class TestPinnedFoldByteIdentity:
    def test_flat_entrypoint_matches_fedavg_entrypoint(self):
        """Both public entry points funnel through the same fold, so the
        stacked-matrix API and the update API agree bitwise on float64."""
        trees, weights = _random_trees(3, dtype=np.float64)
        flat = weighted_average_flat(_rows(trees), weights)
        updates = [ClientUpdate(k, t, int(w), 0.0)
                   for k, (t, w) in enumerate(zip(trees, weights))]
        assert fedavg_aggregate(updates).tobytes() == flat.tobytes()

    def test_fold_matches_loop_reference(self):
        trees, weights = _random_trees(4)
        fold = weighted_average_flat(_rows(trees), weights)
        loop = weighted_average_trees_loop(trees, weights)
        np.testing.assert_allclose(
            fold, np.concatenate([b.ravel() for b in loop]), rtol=1e-6, atol=1e-7)

    def test_k1_is_exact(self):
        """A single-row 'average' returns that row's values unchanged."""
        trees, _ = _random_trees(5, k=1)
        row = _rows(trees)
        out = weighted_average_flat(row, [17.0])
        assert out.astype(row.dtype).tobytes() == row[0].tobytes()


# ---------------------------------------------------------------------------
# 1b. Experiment-level: one History through the executor x mode grid.
# ---------------------------------------------------------------------------

class TestGridByteIdentity:
    def test_executor_mode_grid_is_byte_identical(self):
        """Every (executor x mode) cell reproduces its mode family's serial
        reference byte for byte.  Sync and semisync (full buffer, no
        deadline) share one reference; async — a different algorithm by
        construction — has its own."""
        references = {
            "barrier": _sig(run_experiment(ExperimentSpec(**TINY))),
            "async": _sig(run_experiment(
                ExperimentSpec(**{**TINY, "mode": "async"}))),
        }
        for executor in ("serial", "process"):
            for mode in ("sync", "semisync", "async"):
                spec = ExperimentSpec(**{
                    **TINY, "executor": executor, "mode": mode,
                    **({"device_profile": "iot"} if mode == "semisync" else {}),
                    **({"n_workers": 2} if executor != "serial" else {}),
                })
                key = "async" if mode == "async" else "barrier"
                assert _sig(run_experiment(spec)) == references[key], (
                    f"{executor}/{mode} diverged from the serial reference")

    def test_population_run_is_byte_identical_across_executors(self, tiny4):
        """A population-backed cohort drawn out of a 10k-id space is
        byte-identical across serial and process."""
        base = {**TINY, "population_size": 10_000}
        reference = None
        for executor in ("serial", "process"):
            spec = ExperimentSpec(**{
                **base, "executor": executor,
                **({"n_workers": 2} if executor != "serial" else {}),
            })
            sig = _sig(run_experiment(spec, data=tiny4))
            if reference is None:
                reference = sig
            else:
                assert sig == reference, f"population cell {executor} diverged"
        # the sampler really draws from the virtual space, not the shards
        selected = {c for rec in reference for c in rec[1]}
        assert any(c >= TINY["n_clients"] for c in selected), (
            "expected virtual ids beyond the shard count in a 10k population")


# ---------------------------------------------------------------------------
# 2. Property-based aggregator invariants (every registered rule).
# ---------------------------------------------------------------------------

#: rules whose output is bit-identical under row permutation (pure order
#: statistics / argmin selection); all others re-fold in a different row
#: order and are allclose-equivariant instead
PERM_EXACT = {"coordinate_median", "krum"}

#: K=1 behaviour of each rule.  *Every* registered aggregator must appear in
#: exactly one bucket — test_every_aggregator_is_classified enforces it, so
#: registering a new rule without extending these tables fails the suite.
K1_EXACT = {"mean", "coordinate_median", "trimmed_mean", "norm_clip"}
K1_RAISES = {"krum", "multi_krum", "norm_screen"}  # need K > f + margin


def _reduce(name, mat, weights, global_flat):
    """One rule application on defensive copies (reduce may scribble on
    ``mat``, it is pool scratch in production)."""
    out, kept = build_aggregator(name).reduce(
        mat.copy(), weights.copy(), global_flat.copy()
    )
    return out, kept


def _panel(seed, k=8):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(5, 48))
    mat = rng.standard_normal((k, p))
    weights = rng.integers(1, 60, size=k).astype(np.float64)
    global_flat = rng.standard_normal(p)
    return mat, weights, global_flat


class TestAggregatorInvariants:
    @pytest.mark.parametrize("name", available_aggregators())
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance(self, name, seed):
        """Shuffling the cohort rows (and their weights) must not change the
        aggregate — no rule may depend on arrival order."""
        mat, weights, global_flat = _panel(seed)
        perm = np.random.default_rng(seed + 1).permutation(mat.shape[0])
        base, _ = _reduce(name, mat, weights, global_flat)
        permuted, _ = _reduce(name, mat[perm], weights[perm], global_flat)
        if name in PERM_EXACT:
            assert np.array_equal(base, permuted)
        else:
            np.testing.assert_allclose(permuted, base, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("name", available_aggregators())
    @given(seed=st.integers(0, 2**31 - 1),
           scale=st.floats(min_value=1e-3, max_value=1e3,
                           allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_weight_scale_invariance(self, name, seed, scale):
        """Weights are relative sample counts: multiplying all of them by one
        positive constant must leave every rule's output (all)close."""
        mat, weights, global_flat = _panel(seed)
        base, _ = _reduce(name, mat, weights, global_flat)
        scaled, _ = _reduce(name, mat, weights * scale, global_flat)
        np.testing.assert_allclose(scaled, base, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("name", available_aggregators())
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_k1_behaviour(self, name, seed):
        """A one-client cohort either returns that client's vector exactly
        or refuses with a clear error — never a silent wrong answer."""
        mat, weights, global_flat = _panel(seed, k=1)
        if name in K1_RAISES:
            with pytest.raises(ValueError):
                _reduce(name, mat, weights, global_flat)
            return
        out, kept = _reduce(name, mat, weights, global_flat)
        assert kept == [0]
        assert np.array_equal(out, mat[0])

    def test_every_aggregator_is_classified(self):
        """Completeness gate: a newly registered rule inherits the invariant
        suite automatically (the parametrize above reads the registry), but
        its K=1 bucket is a semantic choice someone must make — this test
        turns 'forgot to classify it' into a named failure."""
        buckets = (K1_EXACT, K1_RAISES)
        classified = set().union(*buckets)
        missing = set(available_aggregators()) - classified
        assert not missing, (
            f"aggregators {sorted(missing)} are registered but not classified "
            "in tests/test_population_scale.py (K1_EXACT / K1_RAISES); add "
            "each to exactly one bucket")
        overlap = K1_EXACT & K1_RAISES
        assert not overlap, f"aggregators {sorted(overlap)} in two buckets"
        assert PERM_EXACT <= set(available_aggregators())


# ---------------------------------------------------------------------------
# 3a. Population / sampler units.
# ---------------------------------------------------------------------------

class TestPopulationModel:
    def test_shard_mapping_and_validation(self):
        pop = Population(10**6, n_shards=64)
        assert pop.size == 10**6 and pop.n_shards == 64
        assert pop.shard_of(0) == 0
        assert pop.shard_of(64) == 0
        assert pop.shard_of(999_999) == 999_999 % 64
        with pytest.raises(ValueError):
            pop.shard_of(10**6)
        with pytest.raises(ValueError):
            pop.shard_of(-1)
        with pytest.raises(ValueError):
            Population(0, n_shards=1)
        with pytest.raises(ValueError):
            Population(4, n_shards=5)
        assert pop.describe() == {"size": 10**6, "n_shards": 64}

    def test_sampler_cohorts_are_distinct_in_range_and_deterministic(self):
        pop = Population(10**6, n_shards=4)
        sampler = PopulationSampler(pop, clients_per_round=64, seed=7)
        again = PopulationSampler(pop, clients_per_round=64, seed=7)
        seen = set()
        for r in range(5):
            cohort = sampler.select(r)
            assert cohort == again.select(r), "same seed+round must agree"
            assert len(cohort) == 64
            assert len(set(cohort)) == 64, "cohort ids must be distinct"
            assert all(0 <= c < pop.size for c in cohort)
            seen.update(cohort)
        assert len(seen) > 64, "rounds should draw different cohorts"
        assert sampler.participation_rate == 64 / 10**6

    def test_sampler_dense_fallback_matches_contract(self):
        """K*2 >= N takes the choice() path; the distinct/range/determinism
        contract is identical there."""
        pop = Population(10, n_shards=2)
        sampler = PopulationSampler(pop, clients_per_round=7, seed=3)
        cohort = sampler.select(0)
        assert len(cohort) == 7 and len(set(cohort)) == 7
        assert cohort == sorted(cohort)
        assert cohort == PopulationSampler(pop, 7, seed=3).select(0)
        with pytest.raises(ValueError):
            PopulationSampler(pop, clients_per_round=11)


# ---------------------------------------------------------------------------
# 3b. FlatStateArena units.
# ---------------------------------------------------------------------------

class TestFlatStateArena:
    def test_small_and_non_flat_values_pass_through(self):
        arena = FlatStateArena()
        small = np.ones(8, dtype=np.float32)
        square = np.ones((32, 32), dtype=np.float32)
        assert arena.intern(small) is small
        assert arena.intern(square) is square
        assert arena.intern(3.5) == 3.5
        assert arena.stats()["n_slots"] == 0

    def test_heap_interning_below_threshold(self):
        arena = FlatStateArena(threshold_bytes=1 << 20)
        flat = np.arange(512, dtype=np.float32)
        slot = arena.intern(flat)
        assert slot.tobytes() == flat.tobytes()
        stats = arena.stats()
        assert stats["heap_bytes"] == flat.nbytes
        assert stats["mapped_bytes"] == 0
        assert stats["n_slots"] == 1

    def test_threshold_zero_forces_mmap_with_byte_fidelity(self):
        arena = FlatStateArena(threshold_bytes=0)
        try:
            flat = np.random.default_rng(0).standard_normal(1024)
            slot = arena.intern(flat)
            assert slot.tobytes() == flat.tobytes()
            assert slot.dtype == flat.dtype and slot.shape == flat.shape
            # plain ndarray view, not an np.memmap instance (pickles by value)
            assert type(slot) is np.ndarray
            # 64-byte aligned and writable in place
            assert slot.ctypes.data % 64 == 0
            slot[0] = 42.0
            assert slot[0] == 42.0
            stats = arena.stats()
            assert stats["mapped_bytes"] > 0 and stats["heap_bytes"] == 0
            assert stats["n_slots"] == 1 and stats["n_chunks"] == 1
        finally:
            arena.close()

    def test_mapped_slot_pickles_by_value(self):
        arena = FlatStateArena(threshold_bytes=0)
        try:
            flat = np.arange(300, dtype=np.float64)
            slot = arena.intern(flat)
            clone = pickle.loads(pickle.dumps(slot))
            assert type(clone) is np.ndarray
            assert clone.tobytes() == flat.tobytes()
        finally:
            arena.close()

    def test_chunks_grow_and_slots_stay_aligned(self):
        arena = FlatStateArena(threshold_bytes=0, chunk_bytes=4096)
        try:
            slots = [arena.intern(np.full(256, i, dtype=np.float64))
                     for i in range(8)]  # 2 KiB each > one 4 KiB chunk total
            assert arena.stats()["n_chunks"] > 1
            for i, slot in enumerate(slots):
                assert slot.ctypes.data % 64 == 0
                assert (slot == i).all(), "slots must not alias each other"
        finally:
            arena.close()

    def test_close_resets_accounting(self):
        arena = FlatStateArena(threshold_bytes=0)
        arena.intern(np.ones(512))
        arena.close()
        assert arena.stats() == {
            "heap_bytes": 0, "mapped_bytes": 0, "n_slots": 0, "n_chunks": 0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            FlatStateArena(threshold_bytes=-1)
        with pytest.raises(ValueError):
            FlatStateArena(chunk_bytes=0)


# ---------------------------------------------------------------------------
# 3c. ClientDirectory units.
# ---------------------------------------------------------------------------

class TestClientDirectory:
    def test_materialization_is_lazy_and_shards_are_shared(self, tiny4):
        pop = Population(10**6, n_shards=4)
        directory = ClientDirectory(pop, tiny4, seed=0)
        try:
            assert len(directory) == 10**6
            assert directory.materialized == 0
            a = directory[123_456]
            assert directory.materialized == 1
            assert directory[123_456] is a, "repeat index returns the cache"
            # 123_456 % 4 == 0, as does 8: one shard object for both
            b = directory[8]
            assert b.dataset is a.dataset
            assert directory.materialized == 2
        finally:
            directory.close()

    def test_shard_count_mismatch_is_rejected(self, tiny4):
        with pytest.raises(ValueError, match="shards"):
            ClientDirectory(Population(100, n_shards=5), tiny4)

    def test_state_factory_interns_through_the_arena(self, tiny4):
        pop = Population(100, n_shards=4)
        directory = ClientDirectory(
            pop, tiny4, seed=0,
            state_factory=lambda cid: {"c_k": np.zeros(512, dtype=np.float32),
                                       "rounds": 0},
            arena=FlatStateArena(threshold_bytes=0),
        )
        try:
            client = directory[11]
            assert (client.state["c_k"] == 0).all()
            assert client.state["rounds"] == 0
            assert directory.arena.stats() == pytest.approx(
                {"heap_bytes": 0, "mapped_bytes": directory.arena.stats()["mapped_bytes"],
                 "n_slots": 1, "n_chunks": 1})
            assert directory.arena.stats()["mapped_bytes"] > 0
        finally:
            directory.close()

    def test_adopt_state_reuses_the_slot_in_place(self, tiny4):
        """Round N+1 values land in round N's buffer: the array object is
        stable across adoptions (no per-round arena growth, SCAFFOLD's
        rebinding cannot leak slots) while the bytes track the new state."""
        pop = Population(100, n_shards=4)
        directory = ClientDirectory(
            pop, tiny4, seed=0,
            state_factory=lambda cid: {"c_k": np.zeros(512, dtype=np.float32)},
        )
        try:
            slot = directory[7].state["c_k"]
            fresh = np.full(512, 2.5, dtype=np.float32)  # value copy, e.g.
            directory.adopt_state(7, {"c_k": fresh, "rounds": 3})  # from a pool
            assert directory[7].state["c_k"] is slot
            assert (slot == 2.5).all()
            assert directory[7].state["rounds"] == 3
            before = directory.arena.stats()["n_slots"]
            directory.adopt_state(7, {"c_k": np.full(512, 9.0, dtype=np.float32)})
            assert directory.arena.stats()["n_slots"] == before
            assert (slot == 9.0).all()
        finally:
            directory.close()

    def test_adoption_handles_shape_changes_and_non_arrays(self, tiny4):
        pop = Population(100, n_shards=4)
        directory = ClientDirectory(
            pop, tiny4, seed=0,
            state_factory=lambda cid: {"c_k": np.zeros(512, dtype=np.float32)},
        )
        try:
            directory[3]
            wider = np.ones(768, dtype=np.float32)
            directory.adopt_state(3, {"c_k": wider, "note": "resized"})
            assert directory[3].state["c_k"].tobytes() == wider.tobytes()
            assert directory[3].state["note"] == "resized"
        finally:
            directory.close()

    def test_rng_is_keyed_by_client_id_not_materialization_order(self, tiny4):
        """Touching clients in different orders yields the same per-client
        round RNG stream — the property that makes lazy == eager."""
        pop = Population(1000, n_shards=4)
        forward = ClientDirectory(pop, tiny4, seed=5)
        backward = ClientDirectory(pop, tiny4, seed=5)
        try:
            ids = [17, 401, 3]
            for cid in ids:
                forward[cid]
            for cid in reversed(ids):
                backward[cid]
            for cid in ids:
                a = forward[cid].round_rng(0).integers(0, 2**31, size=4)
                b = backward[cid].round_rng(0).integers(0, 2**31, size=4)
                assert np.array_equal(a, b)
        finally:
            forward.close()
            backward.close()


# ---------------------------------------------------------------------------
# 3d. Lazy roster == eager roster, end to end (state included).
# ---------------------------------------------------------------------------

def _stateful_spec(method, **extra):
    """A fixed-schedule spec so eager and population runs select identical
    cohorts (PopulationSampler's stream differs from UniformSampler's by
    design, so uniform sampling cannot be compared across roster kinds)."""
    return ExperimentSpec(**{
        **TINY, "method": method,
        "sampler": "fixed", "sampler_kwargs": {"schedule": SCHEDULE},
        **extra,
    })


class TestLazyEagerEquivalence:
    @pytest.mark.parametrize("method", ["scaffold", "feddyn"])
    def test_histories_and_client_state_are_byte_identical(self, method, tiny4):
        """With an identity shard map (population == shard count) and a fixed
        schedule, the lazy directory must reproduce the eager roster's
        history *and* every touched client's strategy state, bitwise."""
        eager = build_mode("sync", spec=_stateful_spec(method),
                           data=tiny4, callbacks=())
        lazy = build_mode(
            "sync",
            spec=_stateful_spec(method, population_size=TINY["n_clients"]),
            data=tiny4, callbacks=())
        try:
            assert _sig(eager.run()) == _sig(lazy.run())
            assert isinstance(lazy.clients, ClientDirectory)
            touched = sorted({c for row in SCHEDULE for c in row})
            assert lazy.clients.materialized == len(touched)
            for cid in touched:
                es, ls = eager.clients[cid].state, lazy.clients[cid].state
                assert set(es) == set(ls), f"client {cid} state keys differ"
                for key, val in es.items():
                    if isinstance(val, np.ndarray):
                        assert val.tobytes() == ls[key].tobytes(), (
                            f"client {cid} state[{key!r}] diverged")
                    else:
                        assert val == ls[key]
        finally:
            eager.close()
            lazy.close()

    @pytest.mark.parametrize("executor", ["process"])
    def test_population_state_survives_worker_pools(self, executor, tiny4):
        """Lazy state round-trips through the worker fleet (value copies
        across processes) byte-identically to the serial eager reference."""
        reference = _sig(run_experiment(_stateful_spec("feddyn"), data=tiny4))
        spec = _stateful_spec("feddyn", population_size=TINY["n_clients"],
                              executor=executor, n_workers=2)
        assert _sig(run_experiment(spec, data=tiny4)) == reference

    def test_forced_mmap_state_is_byte_identical(self, tiny4):
        """state_mmap_mb=0 sends every interned flat to the memmap arena;
        training must not notice."""
        reference = _sig(run_experiment(_stateful_spec("scaffold"), data=tiny4))
        lazy = build_mode(
            "sync",
            spec=_stateful_spec("scaffold",
                                population_size=TINY["n_clients"],
                                state_mmap_mb=0),
            data=tiny4, callbacks=())
        try:
            assert _sig(lazy.run()) == reference
            stats = lazy.clients.arena.stats()
            assert stats["mapped_bytes"] > 0, (
                "scaffold c_k (P=6904 floats) should have hit the mmap arena")
            assert stats["heap_bytes"] == 0
        finally:
            lazy.close()


# ---------------------------------------------------------------------------
# 4a. MatrixPool hygiene across experiments.
# ---------------------------------------------------------------------------

class TestMatrixPoolHygiene:
    def test_back_to_back_different_p_experiments_are_unperturbed(self, tiny4):
        """The thread-local pool caches (K, P) scratch; interleaving an
        experiment with a different P must not change a rerun's bytes (and
        the engine resets the pool on close, so nothing is retained)."""
        small = ExperimentSpec(**TINY)
        wide = ExperimentSpec(**{**TINY, "model": "cnn", "rounds": 1})
        first = _sig(run_experiment(small, data=tiny4))
        run_experiment(wide, data=tiny4)  # different P through the same pool
        assert _sig(run_experiment(small, data=tiny4)) == first

    def test_engine_close_resets_the_default_pool(self, tiny4):
        pool = _default_pool()
        engine = build_mode("sync", spec=ExperimentSpec(**TINY),
                            data=tiny4, callbacks=())
        engine.run()
        # an all-flat fedavg cohort folds without staging, so park scratch
        # explicitly — what matters is that close() clears whatever is there
        pool.take(2, 64)
        assert pool._pool
        engine.close()
        assert not pool._pool, (
            "Engine.close() must clear the pool so scratch from one "
            "experiment cannot outlive it")

    def test_reset_default_pool_is_idempotent_and_safe_when_empty(self):
        pool = _default_pool()
        pool.take(2, 64)
        reset_default_pool()
        assert not pool._pool
        reset_default_pool()  # empty pool: a no-op, not an error
        assert not pool._pool


# ---------------------------------------------------------------------------
# 4b. Spec/engine validation for the new knobs.
# ---------------------------------------------------------------------------

class TestSpecValidation:
    def test_population_field_constraints(self):
        with pytest.raises(ValueError, match="population"):
            ExperimentSpec(**{**TINY, "population_size": 2})  # < n_clients
        with pytest.raises(ValueError, match="population"):
            ExperimentSpec(**{**TINY, "population_size": 100, "mode": "async"})
        with pytest.raises(ValueError, match="population"):
            ExperimentSpec(**{**TINY, "population_size": 100,
                              "adversary": "sign_flip",
                              "adversary_fraction": 0.25})
        with pytest.raises(ValueError, match="population"):
            ExperimentSpec(**{**TINY, "population_size": 100,
                              "device_profile": "iot"})

    def test_state_mmap_requires_a_population(self):
        with pytest.raises(ValueError, match="state_mmap_mb"):
            ExperimentSpec(**{**TINY, "state_mmap_mb": 64})
        with pytest.raises(ValueError, match="state_mmap_mb"):
            ExperimentSpec(**{**TINY, "population_size": 100,
                              "state_mmap_mb": -1})

    def test_new_fields_round_trip_through_dict(self):
        spec = ExperimentSpec(**{**TINY, "population_size": 10_000,
                                 "state_mmap_mb": 0})
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.population_size == 10_000
        assert clone.state_mmap_mb == 0


# ---------------------------------------------------------------------------
# 5. Tier-2: the memory ceiling is O(touched), not O(population).
# ---------------------------------------------------------------------------

_RSS_SCRIPT = """\
import resource, sys
from repro.api import ExperimentSpec, run_experiment
spec = ExperimentSpec(dataset="tiny", model="mlp", method="scaffold",
                      n_clients=16, clients_per_round=16, rounds=2,
                      batch_size=20, lr=0.05, seed=0,
                      population_size=int(sys.argv[1]))
run_experiment(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _peak_rss_kb(population: int) -> int:
    """Peak RSS of one population run, in its own process — ``ru_maxrss``
    is a process-lifetime high-water mark (KiB on Linux), so cells sharing
    a process would see each other's peaks."""
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(population)],
        capture_output=True, text=True, check=True,
    )
    return int(out.stdout.strip().splitlines()[-1])


@pytest.mark.tier2
class TestPopulationMemoryCeiling:
    def test_peak_rss_is_flat_in_population_size(self):
        """10^3 -> 10^5 ids with a fixed cohort: peak RSS must stay under a
        pinned ceiling and essentially flat (an eager roster would grow by
        ~P x population x 4 bytes ~ 2.6 GiB at 10^5).  The ceiling has ~2x
        headroom over the ~70 MiB measured at introduction, so it trips on
        an O(population) regression, not on interpreter noise."""
        small = _peak_rss_kb(10**3)
        large = _peak_rss_kb(10**5)
        ceiling_kb = 160_000
        assert large < ceiling_kb, (
            f"peak RSS {large} KiB at population 10^5 exceeds the "
            f"{ceiling_kb} KiB ceiling — client materialization or state "
            "storage has become O(population)")
        assert large <= small * 1.25, (
            f"peak RSS grew from {small} KiB (10^3) to {large} KiB (10^5); "
            "memory must not scale with the virtual population")
