"""The virtual-clock async/semi-sync subsystem (``repro.fl.asyncfl``).

Covers: deterministic event ordering (ties by client id), device-profile
timing, byte-identical fixed-seed histories for both event-driven modes,
the semisync == sync equivalence at full buffer / no deadline (which also
pins FedTrip's measured-xi fallback), deadline/buffer semantics, sync
virtual-time stamping, spec/CLI/persistence plumbing, and the tier-1
``--mode`` rerun hook.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.algorithms import available_strategies
from repro.api import ExperimentSpec, available_modes, build_mode, run_experiment
from repro.cli import main as cli_main
from repro.fl.asyncfl import AsyncFLEngine, ClientTimingModel, Event, EventQueue, VirtualClock
from repro.fl.history import History
from repro.fl.systems import NETWORK_PRESETS
from repro.fl.types import RoundRecord
from repro.io.persistence import load_history, save_history

TINY = dict(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
            clients_per_round=2, rounds=3, batch_size=20, lr=0.05)

#: strategies mode="async" refuses, with the reason its error names (the
#: list docs/algorithms.md gives); every other registered strategy runs.
ASYNC_REJECTED = {
    "feddane": "preamble",
    "mimelite": "preamble",
    "feddyn": "server-side aggregation",
    "fednova": "server-side aggregation",
    "fedtrip_adaptive": "server-side aggregation",
    "scaffold": "server-side aggregation",
    "slowmo": "server-side aggregation",
}
#: strategies a robust aggregator refuses to compose with: those that
#: override ``aggregate``, which the robust rule would replace.
ROBUST_REJECTED = {"feddyn": "silently override", "fednova": "silently override"}


def tiny_spec(**overrides) -> ExperimentSpec:
    return ExperimentSpec(**{**TINY, **overrides})


def assert_identical_histories(a: History, b: History, context: str = "") -> None:
    """Byte-identical round records; wall_seconds and its per-phase
    breakdown (both host time) excluded."""
    assert len(a) == len(b), context
    for ra, rb in zip(a.records, b.records):
        da, db = ra.to_dict(), rb.to_dict()
        for key in ("wall_seconds", "phase_seconds"):
            da.pop(key), db.pop(key)
        assert da == db, f"{context}: round {ra.round_idx} diverged"


# ---------------------------------------------------------------------------
# clock + event queue
# ---------------------------------------------------------------------------

class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(Event(3.0, 1))
        q.push(Event(1.0, 2))
        q.push(Event(2.0, 0))
        assert [q.pop().client_id for _ in range(3)] == [2, 0, 1]

    def test_ties_break_by_client_id(self):
        q = EventQueue()
        for cid in (5, 1, 3, 2):
            q.push(Event(7.5, cid))
        assert [q.pop().client_id for _ in range(4)] == [1, 2, 3, 5]

    def test_same_client_same_time_is_fifo(self):
        q = EventQueue()
        q.push(Event(1.0, 0, payload="first"))
        q.push(Event(1.0, 0, payload="second"))
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_pop_until_respects_deadline(self):
        q = EventQueue()
        q.push(Event(1.0, 0))
        q.push(Event(5.0, 1))
        assert q.pop_until(2.0).client_id == 0
        assert q.pop_until(2.0) is None
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_clock_never_runs_backward(self):
        clock = VirtualClock()
        clock.advance_to(4.0)
        with pytest.raises(ValueError, match="backward"):
            clock.advance_to(3.0)
        assert clock.now == 4.0

    def test_negative_event_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, 0)


class TestTimingModel:
    def test_iot_slower_than_wifi(self):
        wifi = ClientTimingModel.from_preset("wifi", n_clients=2)
        iot = ClientTimingModel.from_preset("iot", n_clients=2)
        assert iot.duration_s(0, 1e9, 1e6) > wifi.duration_s(0, 1e9, 1e6)

    def test_heterogeneity_spread_is_deterministic(self):
        a = ClientTimingModel.from_preset("iot", n_clients=8, heterogeneity=4.0, seed=3)
        b = ClientTimingModel.from_preset("iot", n_clients=8, heterogeneity=4.0, seed=3)
        # Compute-heavy probe: heterogeneity scales compute speed only.
        durs_a = [a.duration_s(k, 1e10, 1e6) for k in range(8)]
        durs_b = [b.duration_s(k, 1e10, 1e6) for k in range(8)]
        assert durs_a == durs_b
        assert max(durs_a) > 1.5 * min(durs_a)  # real stragglers exist

    def test_duration_strictly_positive(self):
        m = ClientTimingModel.from_preset("wifi", n_clients=1)
        assert m.duration_s(0, 0.0, 0.0) > 0.0


# ---------------------------------------------------------------------------
# semisync mode
# ---------------------------------------------------------------------------

class TestSemisync:
    def test_fixed_seed_is_byte_identical(self):
        spec = tiny_spec(mode="semisync", device_profile="iot", heterogeneity=4.0)
        assert_identical_histories(
            run_experiment(spec), run_experiment(spec), "semisync determinism"
        )

    @pytest.mark.parametrize("method", ["fedavg", "fedtrip"])
    def test_full_buffer_no_deadline_equals_sync(self, method):
        """Semisync degenerates to the barrier loop when it waits for the
        whole buffer — byte-identical records, which for fedtrip also pins
        measured-xi == round-arithmetic-xi in the synchronous case."""
        sync = run_experiment(tiny_spec(method=method, rounds=4))
        semi = run_experiment(
            tiny_spec(method=method, rounds=4, mode="semisync",
                      device_profile="iot", heterogeneity=4.0)
        )
        assert len(sync) == len(semi) == 4
        for rs, re_ in zip(sync.records, semi.records):
            assert rs.selected == re_.selected
            assert rs.mean_train_loss == re_.mean_train_loss
            assert rs.test_accuracy == re_.test_accuracy
            assert rs.cumulative_flops == re_.cumulative_flops
            assert rs.cumulative_comm_bytes == re_.cumulative_comm_bytes
            assert re_.update_staleness == [0] * len(re_.selected)

    def test_virtual_time_strictly_increases(self):
        hist = run_experiment(tiny_spec(mode="semisync", device_profile="iot"))
        times = hist.virtual_times()
        assert not np.isnan(times).any()
        assert (np.diff(times) > 0).all()

    def test_deadline_drops_stragglers_and_measures_staleness(self):
        """A tight deadline under heavy heterogeneity aggregates fewer
        than clients_per_round updates in some round, and the straggler's
        update lands later with measured staleness > 0."""
        # Calibrate the deadline to the fast clients: all 4 clients selected
        # each round, slowest up to 8x the fastest under heterogeneity=8.
        probe = run_experiment(
            tiny_spec(n_clients=4, clients_per_round=4, rounds=1,
                      mode="semisync", device_profile="iot", heterogeneity=8.0)
        )
        full_round_s = probe.records[0].virtual_time_s
        hist = run_experiment(
            tiny_spec(n_clients=4, clients_per_round=4, rounds=6,
                      mode="semisync", device_profile="iot", heterogeneity=8.0,
                      deadline_s=full_round_s / 2.0)
        )
        sizes = [len(r.selected) for r in hist.records]
        assert min(sizes) < 4, f"deadline never cut a round: {sizes}"
        staleness = hist.staleness_values()
        assert staleness.max() > 0, "no straggler ever landed late"
        assert hist.mean_staleness() >= 0.0

    def test_zero_arrival_deadline_extends_to_first_arrival(self):
        """A deadline far shorter than any client's duration still yields
        one update per round (the server waits for the first report)."""
        hist = run_experiment(
            tiny_spec(mode="semisync", device_profile="iot", deadline_s=1e-6)
        )
        assert all(len(r.selected) >= 1 for r in hist.records)
        assert len(hist) == TINY["rounds"]

    def test_short_selection_keeps_clock_finite(self):
        """Heavy dropout can offer fewer clients than the buffer wants; with
        no deadline the round must aggregate what arrived and keep the
        virtual clock at the last arrival (regression: it advanced to inf)."""
        hist = run_experiment(
            tiny_spec(n_clients=4, clients_per_round=3, rounds=5,
                      sampler="dropout", sampler_kwargs={"dropout": 0.9},
                      mode="semisync", device_profile="iot")
        )
        times = hist.virtual_times()
        assert np.isfinite(times).all()
        assert (np.diff(times) >= 0).all()
        assert all(1 <= len(r.selected) <= 3 for r in hist.records)

    def test_over_selection_via_buffer_size(self):
        """clients_per_round=4 dispatched, buffer K=2 aggregated: rounds
        close on the 2 fastest arrivals (FedBuff over-selection)."""
        hist = run_experiment(
            tiny_spec(n_clients=4, clients_per_round=4, buffer_size=2,
                      mode="semisync", device_profile="iot", heterogeneity=4.0)
        )
        assert all(len(r.selected) <= 2 for r in hist.records)
        assert len(hist) == TINY["rounds"]


# ---------------------------------------------------------------------------
# async mode
# ---------------------------------------------------------------------------

class TestAsync:
    def test_fixed_seed_is_byte_identical(self):
        spec = tiny_spec(mode="async", device_profile="iot", heterogeneity=4.0,
                         rounds=5)
        assert_identical_histories(
            run_experiment(spec), run_experiment(spec), "async determinism"
        )

    def test_one_update_per_version_with_measured_staleness(self):
        hist = run_experiment(
            tiny_spec(mode="async", device_profile="iot", heterogeneity=4.0,
                      rounds=6)
        )
        assert len(hist) == 6
        for r in hist.records:
            assert len(r.selected) == 1          # buffer_size defaults to 1
            assert len(r.update_staleness) == 1
            assert r.update_staleness[0] >= 0
        # Concurrent training means *some* update arrives stale.
        assert hist.staleness_values().max() > 0
        times = hist.virtual_times()
        assert (np.diff(times) >= 0).all()

    def test_early_stopping_works(self):
        hist = run_experiment(
            tiny_spec(mode="async", device_profile="wifi", rounds=50,
                      target_accuracy=10.0)
        )
        assert hist.stop_reason is not None
        assert len(hist) < 50

    def test_async_rejects_deadline(self):
        with pytest.raises(ValueError, match="semisync"):
            run_experiment(tiny_spec(mode="async", deadline_s=5.0))

    def test_buffer_size_cannot_exceed_concurrency(self):
        with pytest.raises(ValueError, match="buffer_size"):
            run_experiment(tiny_spec(mode="async", buffer_size=3))

    def test_preamble_strategies_are_rejected(self):
        with pytest.raises(ValueError, match="preamble"):
            run_experiment(tiny_spec(method="feddane", mode="async"))

    @pytest.mark.parametrize("method", ["scaffold", "slowmo", "feddyn"])
    def test_server_side_strategies_are_rejected(self, method):
        """Async mixing replaces server aggregation; strategies whose server
        state lives in aggregate/post_aggregate must not run silently."""
        with pytest.raises(ValueError, match="server-side aggregation"):
            run_experiment(tiny_spec(method=method, mode="async"))
        # ... but semisync runs their real aggregation and accepts them.
        hist = run_experiment(
            tiny_spec(method=method, mode="semisync", device_profile="wifi", rounds=2)
        )
        assert len(hist) == 2

    @pytest.mark.parametrize("method", available_strategies())
    def test_async_and_robust_acceptance_is_pinned(self, method):
        """Which registered strategies mode="async" and a robust
        aggregator accept (one round runs) or refuse at construction."""
        for overrides, rejected in (({"mode": "async"}, ASYNC_REJECTED),
                                    ({"aggregator": "trimmed_mean"}, ROBUST_REJECTED)):
            spec = tiny_spec(method=method, rounds=1, **overrides)
            if method in rejected:
                with pytest.raises(ValueError, match=rejected[method]):
                    run_experiment(spec)
            else:
                assert len(run_experiment(spec)) == 1, overrides

    def test_non_uniform_samplers_are_rejected(self):
        """Async refill is a uniform draw over idle clients; accepting a
        dropout/diurnal sampler and ignoring it would fake a churn study."""
        with pytest.raises(ValueError, match="uniform"):
            run_experiment(tiny_spec(mode="async", sampler="dropout",
                                     sampler_kwargs={"dropout": 0.5}))


# ---------------------------------------------------------------------------
# sync mode + device profile (virtual time on the barrier loop)
# ---------------------------------------------------------------------------

class TestSyncVirtualTime:
    def test_profile_stamps_cumulative_virtual_time(self):
        hist = run_experiment(tiny_spec(device_profile="iot"))
        times = hist.virtual_times()
        assert not np.isnan(times).any()
        assert (np.diff(times) > 0).all()
        # Synchronous rounds have zero staleness by construction.
        assert all(r.update_staleness == [0] * len(r.selected) for r in hist.records)

    def test_mismatched_system_model_raises_before_pool_spawn(self):
        """A bad system model must raise from __init__ *before* the executor
        is built (a later raise would leak a spawned process pool)."""
        from repro.api.engine import Engine
        from repro.fl.systems import SystemModel

        spec = tiny_spec()
        with pytest.raises(ValueError, match="system model covers"):
            Engine(spec.build_data(), spec.build_strategy(), spec.build_config(),
                   model_name=spec.model,
                   system_model=SystemModel("wifi", n_clients=TINY["n_clients"] + 1))

    def test_no_profile_means_no_virtual_clock(self):
        hist = run_experiment(tiny_spec())
        assert np.isnan(hist.virtual_times()).all()
        assert all(r.update_staleness is None for r in hist.records)
        assert hist.time_to_accuracy(0.0) is None

    def test_time_to_accuracy_reads_virtual_clock(self):
        hist = run_experiment(tiny_spec(device_profile="iot"))
        t = hist.time_to_accuracy(0.0)  # any evaluated accuracy hits 0
        assert t is not None
        assert 0 < t <= hist.records[-1].virtual_time_s

    def test_profile_does_not_change_trained_numbers(self):
        plain = run_experiment(tiny_spec())
        priced = run_experiment(tiny_spec(device_profile="iot", heterogeneity=4.0))
        for ra, rb in zip(plain.records, priced.records):
            assert ra.selected == rb.selected
            assert ra.mean_train_loss == rb.mean_train_loss
            assert ra.test_accuracy == rb.test_accuracy

    def test_iot_slower_than_wifi_end_to_end(self):
        wifi = run_experiment(tiny_spec(device_profile="wifi"))
        iot = run_experiment(tiny_spec(device_profile="iot"))
        assert iot.records[-1].virtual_time_s > wifi.records[-1].virtual_time_s


# ---------------------------------------------------------------------------
# FedTrip measured xi
# ---------------------------------------------------------------------------

class TestFedTripMeasuredXi:
    def test_measured_staleness_preferred_over_round_arithmetic(self):
        from repro.algorithms.fedtrip import FedTrip

        strat = FedTrip(mu=0.4)

        class Ctx:
            round_idx = 10
            state = {"historical": ["x"], "last_round": 7}
            xi_measured = None

        assert strat._xi(Ctx()) == 3.0  # round arithmetic fallback
        Ctx.xi_measured = 5.0
        assert strat._xi(Ctx()) == 5.0  # scheduler measurement wins
        Ctx.xi_measured = 0.0
        assert strat._xi(Ctx()) == 1.0  # floored like the paper's xi

    def test_async_fedtrip_trains_and_differs_from_sync(self):
        """Under real staleness the measured xi changes the trajectory."""
        sync = run_experiment(tiny_spec(method="fedtrip", rounds=6))
        asyn = run_experiment(
            tiny_spec(method="fedtrip", rounds=6, mode="async",
                      device_profile="iot", heterogeneity=4.0)
        )
        assert len(asyn) == 6
        assert np.isfinite(asyn.train_losses()).all()
        assert asyn.records[-1].mean_train_loss != sync.records[-1].mean_train_loss


# ---------------------------------------------------------------------------
# spec / registry / CLI / persistence plumbing
# ---------------------------------------------------------------------------

class TestPlumbing:
    def test_builtin_modes_registered(self):
        assert {"sync", "semisync", "async"} <= set(available_modes())

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_experiment(tiny_spec(mode="lockstep"))

    def test_build_mode_returns_event_engine(self):
        spec = tiny_spec(mode="semisync")
        engine = build_mode("semisync", spec=spec, data=spec.build_data(), callbacks=())
        try:
            assert isinstance(engine, AsyncFLEngine)
            assert engine.buffer_size == spec.clients_per_round
        finally:
            engine.close()

    def test_spec_round_trips_mode_fields(self):
        spec = tiny_spec(mode="semisync", deadline_s=12.5, buffer_size=2,
                         device_profile="iot", heterogeneity=3.0)
        back = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.cell_key() == spec.cell_key()

    def test_cell_key_discriminates_mode_and_profile(self):
        base = tiny_spec()
        assert base.cell_key() != tiny_spec(mode="async").cell_key()
        assert base.cell_key() != tiny_spec(device_profile="iot").cell_key()
        assert (tiny_spec(mode="semisync", deadline_s=5.0).cell_key()
                != tiny_spec(mode="semisync", deadline_s=9.0).cell_key())

    def test_sync_mode_rejects_inapplicable_knobs(self):
        """A knob that would silently do nothing is an error (same policy
        as from_dict's unknown-key rejection)."""
        with pytest.raises(ValueError, match="event-driven"):
            tiny_spec(mode="sync", deadline_s=5.0)
        with pytest.raises(ValueError, match="event-driven"):
            tiny_spec(mode="sync", buffer_size=2)
        with pytest.raises(ValueError, match="heterogeneity"):
            tiny_spec(mode="sync", heterogeneity=4.0)  # no device_profile
        # ... but heterogeneity with a profile is the sync straggler knob.
        assert tiny_spec(device_profile="iot", heterogeneity=4.0).heterogeneity == 4.0

    def test_build_system_model_default(self):
        assert tiny_spec().build_system_model() is None
        model = tiny_spec().build_system_model(default="wifi")
        assert model is not None and len(model.profiles) == TINY["n_clients"]
        iot = tiny_spec(device_profile="iot").build_system_model(default="wifi")
        assert iot.profiles[0].bandwidth_bps == NETWORK_PRESETS["iot"].bandwidth_bps

    def test_history_persistence_round_trips_virtual_fields(self, tmp_path):
        hist = History()
        hist.append(RoundRecord(0, [0, 1], 50.0, 1.0, 2.0, 1e9, 1e6, 0.1,
                                virtual_time_s=12.5, update_staleness=[0, 2]))
        hist.append(RoundRecord(1, [2], None, None, 1.9, 2e9, 2e6, 0.1))
        path = str(tmp_path / "hist.json")
        save_history(hist, path)
        back = load_history(path)
        assert back.records[0].virtual_time_s == 12.5
        assert back.records[0].update_staleness == [0, 2]
        assert back.records[1].virtual_time_s is None
        assert back.to_dict() == hist.to_dict()

    def test_cli_train_semisync_smoke(self, capsys):
        rc = cli_main([
            "train", "--dataset", "tiny", "--model", "mlp", "--method", "fedtrip",
            "--clients", "4", "--clients-per-round", "2", "--rounds", "2",
            "--batch-size", "20", "--mode", "semisync", "--device-profile", "iot",
            "--heterogeneity", "4.0", "--buffer-size", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated time" in out and "mode=semisync" in out

    def test_cli_train_async_smoke(self, capsys):
        rc = cli_main([
            "train", "--dataset", "tiny", "--model", "mlp", "--method", "fedavg",
            "--clients", "4", "--clients-per-round", "2", "--rounds", "2",
            "--batch-size", "20", "--mode", "async",
        ])
        assert rc == 0
        assert "mode=async" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# tier-1 rerun hook: CI runs the suite once more with
# ``--mode semisync --device-profile iot``
# ---------------------------------------------------------------------------

class TestModeRerun:
    def test_selected_mode_trains_deterministically(self, mode_name, device_profile_name):
        spec = tiny_spec(mode=mode_name, device_profile=device_profile_name)
        assert_identical_histories(
            run_experiment(spec), run_experiment(spec),
            f"mode={mode_name} profile={device_profile_name}",
        )

    def test_selected_mode_reaches_sane_accuracy(self, mode_name, device_profile_name):
        spec = tiny_spec(mode=mode_name, device_profile=device_profile_name,
                         rounds=6)
        hist = run_experiment(spec)
        assert len(hist) == 6
        assert np.isfinite(hist.best_accuracy())
