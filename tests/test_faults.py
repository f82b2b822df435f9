"""The fault-tolerance layer: deterministic injectors, the engine failure
policy (retry/timeout/quorum), atomic persistence, crash-safe resume, and
the process backend's dead-worker detection."""

from __future__ import annotations

import math
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExperimentSpec, run_experiment
from repro.api.callbacks import Callback, Checkpointer
from repro.api.engine import Engine
from repro.api.registry import build_mode
from repro.fl.faults import (
    CrashFault,
    FaultInjector,
    TaskFailure,
    available_faults,
    build_fault,
    register_fault,
    _FAULTS,
)
from repro.io import persistence
from repro.io.persistence import (
    load_engine_snapshot,
    load_history,
    save_engine_snapshot,
    save_history,
)

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=3, batch_size=20, lr=0.05)


def _nan_none(x):
    """NaN compares unequal to itself; map it to None so an all-fail
    round's mean_train_loss=NaN doesn't break signature equality."""
    return None if isinstance(x, float) and math.isnan(x) else x


def _sig(history, virtual=False):
    """Round-record signature for byte-identity comparisons: everything
    behaviour-bearing including the fault fields; wall/phase timings are
    excluded (they measure the host, not the algorithm) and virtual time
    only on request (sync/semisync price rounds differently by design)."""
    return [
        (r.round_idx, tuple(r.selected), r.test_accuracy, r.test_loss,
         _nan_none(r.mean_train_loss), r.cumulative_flops, r.cumulative_comm_bytes,
         tuple(r.dropped_clients), tuple(r.screened_clients),
         tuple(r.failed_clients), tuple(r.retried_clients),
         r.skip_reason, r.round_skipped)
        + ((r.virtual_time_s,) if virtual else ())
        for r in history.records
    ]


# ---------------------------------------------------------------------------
# registry + construction errors
# ---------------------------------------------------------------------------

class TestFaultRegistry:
    def test_builtins_registered(self):
        assert available_faults() == [
            "corrupt", "crash", "crash_mid_train", "straggler", "worker_death",
        ]

    def test_unknown_name_raises_listing_alternatives(self):
        with pytest.raises(ValueError, match="unknown fault"):
            build_fault("meteor_strike", rate=0.5, seed=0)

    def test_bad_kwarg_raises_value_error(self):
        with pytest.raises(ValueError, match="bad arguments"):
            build_fault("crash", rate=0.5, seed=0, bogus=1)

    def test_rate_out_of_range(self):
        for rate in (-0.1, 1.1):
            with pytest.raises(ValueError, match="rate"):
                build_fault("crash", rate=rate, seed=0)

    def test_corrupt_mode_validated(self):
        with pytest.raises(ValueError, match="corrupt mode"):
            build_fault("corrupt", rate=0.5, seed=0, mode="scramble")

    def test_straggler_delay_bounds_validated(self):
        with pytest.raises(ValueError, match="min_delay_s"):
            build_fault("straggler", rate=0.5, seed=0,
                        min_delay_s=5.0, max_delay_s=1.0)

    def test_third_party_fault_plugs_in(self):
        class NoopFault(FaultInjector):
            name = "noop"

        register_fault("noop", NoopFault)
        try:
            inj = build_fault("noop", rate=0.5, seed=3)
            assert isinstance(inj, NoopFault)
        finally:
            del _FAULTS["noop"]


class TestSpecValidation:
    def test_rate_without_fault_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, fault_rate=0.5)

    def test_fault_without_rate_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, fault="crash")

    def test_fault_kwargs_without_fault_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, fault_kwargs={"mode": "nan"})

    def test_timeout_requires_fault(self):
        with pytest.raises(ValueError, match="task_timeout_s"):
            ExperimentSpec(**TINY, task_timeout_s=5.0)

    def test_quorum_fraction_range(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, quorum_fraction=1.5)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(**TINY, task_retries=-1)

    def test_build_fault_injector(self):
        spec = ExperimentSpec(**TINY, fault="corrupt", fault_rate=0.25,
                              fault_kwargs={"mode": "truncate"}, seed=9)
        inj = spec.build_fault_injector()
        assert inj.name == "corrupt" and inj.mode == "truncate"
        assert inj.rate == 0.25 and inj.seed == 9
        assert ExperimentSpec(**TINY).build_fault_injector() is None


# ---------------------------------------------------------------------------
# injector determinism
# ---------------------------------------------------------------------------

class TestInjectorDeterminism:
    def test_fires_is_stateless_and_replayable(self):
        a = build_fault("crash", rate=0.3, seed=7)
        b = build_fault("crash", rate=0.3, seed=7)
        draws = [(c, r, t) for c in range(5) for r in range(5) for t in range(2)]
        outcomes = [a.fires(*d) for d in draws]
        # replay on a fresh instance and on the same instance in a
        # different order — fires() must be a pure function of the key
        assert outcomes == [b.fires(*d) for d in draws]
        assert outcomes == [a.fires(*d) for d in reversed(draws)][::-1]
        assert any(outcomes) and not all(outcomes)

    def test_rate_extremes(self):
        never = build_fault("crash", rate=0.0, seed=1)
        always = build_fault("crash", rate=1.0, seed=1)
        assert not any(never.fires(c, 0) for c in range(20))
        assert all(always.fires(c, 0) for c in range(20))

    def test_attempt_rekeys_the_coin(self):
        # A retried task re-draws: over enough attempts both outcomes occur,
        # which is what makes bounded retry recover at sub-certain rates.
        inj = build_fault("crash", rate=0.5, seed=3)
        outcomes = {inj.fires(2, 4, t) for t in range(32)}
        assert outcomes == {True, False}

    def test_straggler_delay_deterministic_and_bounded(self):
        kwargs = dict(rate=1.0, seed=5, min_delay_s=2.0, max_delay_s=3.0)
        inj = build_fault("straggler", **kwargs)
        task = SimpleNamespace(client_id=1, round_idx=2, attempt=0)
        d = inj.delay_s(task)
        assert 2.0 <= d <= 3.0
        assert build_fault("straggler", **kwargs).delay_s(task) == d
        retry = SimpleNamespace(client_id=1, round_idx=2, attempt=1)
        assert inj.delay_s(retry) != d

    def test_pickle_round_trip_preserves_coins(self):
        import pickle

        inj = build_fault("corrupt", rate=0.4, seed=11, mode="truncate")
        back = pickle.loads(pickle.dumps(inj))
        assert [back.fires(c, r) for c in range(6) for r in range(6)] == \
               [inj.fires(c, r) for c in range(6) for r in range(6)]


# ---------------------------------------------------------------------------
# failure policy: end-to-end runs
# ---------------------------------------------------------------------------

class TestFailurePolicyRuns:
    @pytest.mark.parametrize(
        "fault", ["crash", "crash_mid_train", "corrupt", "straggler"])
    def test_each_kind_runs_and_replays(self, fault):
        args = {**TINY, "rounds": 2, "fault": fault, "fault_rate": 0.5,
                "task_retries": 1}
        h1 = run_experiment(ExperimentSpec(**args))
        h2 = run_experiment(ExperimentSpec(**args))
        assert _sig(h1, virtual=True) == _sig(h2, virtual=True)
        assert len(h1) == 2

    def test_crash_failures_recorded_and_retries_recover(self):
        args = {**TINY, "fault": "crash", "fault_rate": 0.5}
        bare = run_experiment(ExperimentSpec(**args))
        retried = run_experiment(ExperimentSpec(**args, task_retries=2))
        assert bare.failed_client_ids(), "rate 0.5 over 6 tasks should fail some"
        assert bare.retried_client_ids() == []  # no budget -> no dispatches
        assert retried.retried_client_ids()
        # a re-drawn coin recovers some attempts: strictly fewer terminal
        # failures than the no-retry run at the same seed
        assert len(retried.failed_client_ids()) < len(bare.failed_client_ids())

    def test_corrupt_bypasses_finite_screen(self):
        """A corrupted payload is a *task failure*, decided by the policy —
        it must never reach the aggregator's finite check (dropped_clients
        is the legacy screen's ledger and stays empty)."""
        hist = run_experiment(ExperimentSpec(
            **{**TINY, "fault": "corrupt", "fault_rate": 0.7}))
        assert hist.failed_client_ids()
        assert all(r.dropped_clients == [] for r in hist.records)
        # every surviving aggregate stayed finite
        assert all(np.isfinite(r.test_loss) for r in hist.records)

    def test_straggler_stretches_virtual_clock(self):
        base = {**TINY, "device_profile": "iot"}
        clean = run_experiment(ExperimentSpec(**base))
        slow = run_experiment(ExperimentSpec(
            **base, fault="straggler", fault_rate=1.0,
            fault_kwargs={"min_delay_s": 50.0, "max_delay_s": 60.0}))
        assert slow.records[-1].virtual_time_s > \
            clean.records[-1].virtual_time_s + 100.0
        # honest training: stragglers still aggregate, nothing fails
        assert slow.failed_client_ids() == []

    def test_timeout_discards_late_reports(self):
        args = {**TINY, "fault": "straggler", "fault_rate": 0.5,
                "fault_kwargs": {"min_delay_s": 20.0, "max_delay_s": 30.0},
                "task_timeout_s": 5.0}
        hist = run_experiment(ExperimentSpec(**args))
        assert hist.failed_client_ids(), "every fired delay exceeds the deadline"
        # timeouts are retryable: with budget, re-drawn attempts recover
        again = run_experiment(ExperimentSpec(**args, task_retries=2))
        assert again.retried_client_ids()
        assert len(again.failed_client_ids()) < len(hist.failed_client_ids())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_is_policy_failure_not_aggregator_drop(self):
        """Divergent training (giant lr) produces non-finite losses: the
        task itself fails, non-retryably, instead of reaching the
        aggregator's finite screen (dropped_clients)."""
        diverge = {**TINY, "rounds": 2, "lr": 1e9}
        policy = run_experiment(ExperimentSpec(**diverge, task_retries=1))
        assert policy.failed_client_ids()
        assert policy.dropped_client_ids() == []
        # non-retryable: the retry budget was not spent re-reproducing NaN
        assert policy.retried_client_ids() == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_records_one_history_on_every_backend(self):
        """With no fault knob set, retries 0 and quorum 0 are the trivial
        policy on every backend: a diverging run fails the same tasks and
        skips the same rounds on serial, threaded and the process fleet."""
        diverge = {**TINY, "rounds": 2, "lr": 1e9}
        serial = run_experiment(ExperimentSpec(**diverge))
        for executor in ("threaded", "process"):
            other = run_experiment(ExperimentSpec(
                **diverge, executor=executor, n_workers=2))
            assert _sig(other) == _sig(serial), f"{executor} diverged from serial"
        assert serial.failed_client_ids(), "lr=1e9 should diverge"
        assert serial.dropped_client_ids() == []


# ---------------------------------------------------------------------------
# quorum
# ---------------------------------------------------------------------------

class TestQuorum:
    @given(
        q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        k=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_skip_reason_matches_ceil_rule(self, q, k, data):
        """skipped iff successes < ceil(q * K); zero successes always skip."""
        s = data.draw(st.integers(0, k))
        policy = SimpleNamespace(quorum_fraction=q)
        reason = Engine._quorum_skip_reason(policy, k, s)
        if s == 0:
            assert reason == "no_updates"
        elif s < math.ceil(q * k):
            assert reason == "quorum"
        else:
            assert reason is None

    def test_full_quorum_skips_on_any_failure(self):
        hist = run_experiment(ExperimentSpec(
            **{**TINY, "fault": "crash", "fault_rate": 0.5,
               "quorum_fraction": 1.0}))
        skipped = [r for r in hist.records if r.skip_reason is not None]
        assert skipped, "rate 0.5 should break unanimity in some round"
        for r in skipped:
            assert r.round_skipped
            assert r.skip_reason in ("quorum", "no_updates")
            assert np.isnan(r.mean_train_loss) or r.skip_reason == "quorum"

    def test_all_fail_round_skips_with_no_updates(self):
        hist = run_experiment(ExperimentSpec(
            **{**TINY, "fault": "crash", "fault_rate": 1.0}))
        for r in hist.records:
            assert r.skip_reason == "no_updates" and r.round_skipped
            assert sorted(r.selected) == r.failed_clients
            assert np.isnan(r.mean_train_loss)
        # the model never moved: every evaluation scores identical weights
        assert len({r.test_accuracy for r in hist.records}) == 1
        assert hist.skipped_rounds() == len(hist)

    def test_retry_exhaustion_spends_full_budget_then_fails(self):
        retries = 2
        hist = run_experiment(ExperimentSpec(
            **{**TINY, "rounds": 2, "fault": "crash", "fault_rate": 1.0,
               "task_retries": retries}))
        for r in hist.records:
            # every attempt fires at rate 1.0: K initial dispatches spawn
            # K retries per wave until the budget is gone, then all fail
            assert r.failed_clients == sorted(r.selected)
            assert len(r.retried_clients) == retries * len(r.selected)
            assert r.skip_reason == "no_updates"


# ---------------------------------------------------------------------------
# cross-executor x cross-mode byte-identity with an active injector
# ---------------------------------------------------------------------------

class TestFaultByteIdentityGrid:
    def test_grid_with_active_injector(self):
        """tests/test_params.py's grid, with the failure policy live: a
        fixed seed must land identical failures, retries and aggregates on
        every backend.  References are per-mode (async is a different
        algorithm; sync/semisync retry bookkeeping orders by wave vs by
        arrival)."""
        base = {**TINY, "fault": "crash", "fault_rate": 0.3, "task_retries": 1}
        references = {}
        for executor in ("serial", "threaded", "process"):
            for mode in ("sync", "semisync", "async"):
                spec = ExperimentSpec(**{
                    **base, "executor": executor, "mode": mode,
                    "n_workers": 1 if executor == "serial" else 2,
                    **({"device_profile": "iot"} if mode == "semisync" else {}),
                })
                sig = _sig(run_experiment(spec))
                if mode not in references:
                    references[mode] = sig
                else:
                    assert sig == references[mode], (
                        f"{executor}/{mode} diverged under fault injection")
        # the injector actually did something in the barrier cells
        assert any(rec[9] or rec[10] for rec in references["sync"])


class TestFaultOptionSmoke:
    def test_suite_fault_options_run(self, fault_options):
        """The cell the CI fault rerun exercises: tier-1 runs once more
        with --fault crash --fault-rate 0.2 --task-retries 2, and this
        test (clean-path by default) picks the options up."""
        fault, rate, retries = fault_options
        if fault is not None and rate <= 0.0:
            rate = 0.2
        hist = run_experiment(ExperimentSpec(
            **TINY, fault=fault, fault_rate=rate if fault else 0.0,
            task_retries=retries))
        assert len(hist) == TINY["rounds"]
        if fault is None:
            assert hist.failed_client_ids() == []
            assert hist.retried_client_ids() == []


# ---------------------------------------------------------------------------
# atomic persistence
# ---------------------------------------------------------------------------

class TestAtomicPersistence:
    def test_kill_between_write_and_publish_leaves_old_file(
            self, tmp_path, monkeypatch):
        """A writer killed after writing the temp file but before the
        rename must leave the previous complete artifact untouched and no
        droppings behind."""
        path = str(tmp_path / "latest.ckpt")
        save_engine_snapshot(path, {"format": 1, "round_idx": 3})

        def killed(tmp, final):
            raise KeyboardInterrupt

        monkeypatch.setattr(persistence, "_atomic_publish", killed)
        with pytest.raises(KeyboardInterrupt):
            save_engine_snapshot(path, {"format": 1, "round_idx": 4})
        monkeypatch.undo()
        assert load_engine_snapshot(path)["round_idx"] == 3
        assert os.listdir(tmp_path) == ["latest.ckpt"]

    def test_history_save_is_atomic(self, tmp_path, monkeypatch):
        from repro.fl.history import History
        from repro.fl.types import RoundRecord

        hist = History()
        hist.append(RoundRecord(0, [1], 50.0, 0.5, 0.4, 1e6, 1e3, 0.1))
        path = str(tmp_path / "h.json")
        save_history(hist, path)
        monkeypatch.setattr(
            persistence, "_atomic_publish",
            lambda *a: (_ for _ in ()).throw(RuntimeError("killed")))
        hist.append(RoundRecord(1, [2], 60.0, 0.4, 0.3, 2e6, 2e3, 0.1))
        with pytest.raises(RuntimeError):
            save_history(hist, path)
        monkeypatch.undo()
        assert len(load_history(path)) == 1
        assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))

    def test_checkpoint_save_is_atomic(self, tmp_path, monkeypatch):
        from repro.models import build_model

        model = build_model("mlp", (1, 8, 8), 4)
        path = str(tmp_path / "ckpt")
        out = persistence.save_checkpoint(model, path, {"round": 1})
        assert out.endswith(".npz") and os.path.exists(out)
        monkeypatch.setattr(
            np, "savez",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("killed")))
        with pytest.raises(RuntimeError):
            persistence.save_checkpoint(model, path, {"round": 2})
        monkeypatch.undo()
        back = build_model("mlp", (1, 8, 8), 4)
        assert persistence.load_checkpoint(back, out) == {"round": 1}
        assert sorted(os.listdir(tmp_path)) == ["ckpt.npz"]

    def test_history_fault_fields_round_trip(self, tmp_path):
        hist = run_experiment(ExperimentSpec(
            **{**TINY, "rounds": 2, "fault": "crash", "fault_rate": 0.5,
               "task_retries": 1, "quorum_fraction": 1.0}))
        path = str(tmp_path / "h.json")
        save_history(hist, path)
        assert _sig(load_history(path)) == _sig(hist)


# ---------------------------------------------------------------------------
# crash-safe resume
# ---------------------------------------------------------------------------

class _KillAfterRound(Callback):
    """Simulates the process dying right after round N's checkpoint."""

    def __init__(self, rounds: int) -> None:
        self.rounds = rounds

    def on_round_end(self, engine, record) -> None:
        if record.round_idx + 1 >= self.rounds:
            raise KeyboardInterrupt


class TestCrashSafeResume:
    RESUME = {**TINY, "rounds": 5, "fault": "crash", "fault_rate": 0.3,
              "task_retries": 1}

    @pytest.mark.parametrize("executor,workers,method", [
        pytest.param("serial", 1, "fedavg", id="serial-1"),
        pytest.param("threaded", 2, "fedavg", id="threaded-2"),
        pytest.param("process", 2, "fedavg", id="process-2"),
        # flat server state (c) and flat client state (c_k) cross the kill
        pytest.param("serial", 1, "scaffold", id="serial-1-scaffold"),
    ])
    def test_kill_and_resume_is_byte_identical(self, tmp_path, executor, workers, method):
        args = {**self.RESUME, "executor": executor, "n_workers": workers,
                "method": method}
        reference = _sig(run_experiment(ExperimentSpec(**args)), virtual=True)
        ckpt = Checkpointer(str(tmp_path), every=1, engine_state=True)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(ExperimentSpec(**args),
                           callbacks=[ckpt, _KillAfterRound(2)])
        resumed = run_experiment(ExperimentSpec(**args),
                                 resume_from=ckpt.snapshot_path)
        assert _sig(resumed, virtual=True) == reference
        assert len(resumed) == self.RESUME["rounds"]

    def test_resume_rejects_different_experiment_cell(self, tmp_path):
        ckpt = Checkpointer(str(tmp_path), every=1, engine_state=True)
        run_experiment(ExperimentSpec(**{**TINY, "rounds": 2}),
                       callbacks=[ckpt])
        other = ExperimentSpec(**{**TINY, "rounds": 2, "lr": 0.01})
        with pytest.raises(ValueError, match="experiment cell"):
            run_experiment(other, resume_from=ckpt.snapshot_path)

    def test_restore_requires_fresh_engine(self):
        spec = ExperimentSpec(**{**TINY, "rounds": 2})
        engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
        try:
            engine.run()
            with pytest.raises(ValueError, match="freshly built"):
                engine.restore(engine.snapshot())
        finally:
            engine.close()

    def test_unknown_snapshot_format_rejected(self):
        spec = ExperimentSpec(**{**TINY, "rounds": 1})
        engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
        try:
            with pytest.raises(ValueError, match="snapshot format"):
                engine.restore({"format": 999})
            # format 1 held per-layer server state; the flat hooks refuse it
            with pytest.raises(ValueError, match="unsupported engine snapshot format 1"):
                engine.restore({"format": 1})
        finally:
            engine.close()

    def test_event_driven_modes_refuse_snapshot(self):
        spec = ExperimentSpec(**{**TINY, "rounds": 1, "mode": "semisync",
                                 "device_profile": "iot"})
        engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
        try:
            with pytest.raises(ValueError, match="sync"):
                engine.snapshot()
            with pytest.raises(ValueError, match="sync"):
                engine.restore({"format": 1})
        finally:
            engine.close()

    def test_snapshot_excludes_nothing_behaviour_bearing(self, tmp_path):
        """Resuming mid-run twice from the same snapshot is idempotent —
        the snapshot alone (plus the spec) determines the continuation."""
        args = {**self.RESUME}
        ckpt = Checkpointer(str(tmp_path), every=1, engine_state=True)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(ExperimentSpec(**args),
                           callbacks=[ckpt, _KillAfterRound(3)])
        first = _sig(run_experiment(ExperimentSpec(**args),
                                    resume_from=ckpt.snapshot_path),
                     virtual=True)
        second = _sig(run_experiment(ExperimentSpec(**args),
                                     resume_from=ckpt.snapshot_path),
                      virtual=True)
        assert first == second


# ---------------------------------------------------------------------------
# process worker death
# ---------------------------------------------------------------------------

class TestProcessWorkerDeath:
    def test_dead_worker_surfaces_failure_and_matches_serial(self):
        """``worker_death`` on the process backend really kills the
        spawned workers; the coordinator must detect the deaths (no hang),
        the executor must replace them, and the synthesized failures must
        keep the History byte-identical to the serial backend's
        synthesized path."""
        base = {**TINY, "rounds": 2, "fault": "worker_death",
                "fault_rate": 0.4, "task_retries": 1}
        reference = run_experiment(ExperimentSpec(**base))
        assert reference.failed_client_ids() or reference.retried_client_ids(), \
            "rate 0.4 over 2 rounds should fire at least once"
        spec = ExperimentSpec(**{**base, "executor": "process", "n_workers": 2})
        engine = build_mode(spec.mode, spec=spec, data=spec.build_data())
        try:
            first_fleet = {p.pid for p in engine.executor._procs}
            hist = engine.run()
            assert {p.pid for p in engine.executor._procs} != first_fleet, \
                "no worker process was replaced: nothing really died"
        finally:
            engine.close()
        assert _sig(hist, virtual=True) == _sig(reference, virtual=True)
