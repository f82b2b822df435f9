"""Cost accounting: Table VIII formulas and cross-checks vs. measured FLOPs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.costs import (
    TABLE8_FORMULAS,
    WorkloadShape,
    attach_overhead_flops,
    comm_overhead_units,
    round_training_flops,
    table8_row,
)
from repro.models import build_cnn, build_mlp, profile_model


@pytest.fixture
def mlp_profile(rng):
    return profile_model(build_mlp((1, 28, 28), 10, rng=rng))


@pytest.fixture
def shape():
    return WorkloadShape(n_samples=600, batch_size=50, local_epochs=1)


class TestWorkloadShape:
    def test_iterations(self):
        assert WorkloadShape(600, 50).iterations == 12
        assert WorkloadShape(601, 50).iterations == 13
        assert WorkloadShape(600, 50, local_epochs=5).iterations == 60

    def test_samples_processed(self):
        assert WorkloadShape(600, 50, local_epochs=2).samples_processed == 1200


class TestTable8:
    def test_fedtrip_equals_feddyn(self, mlp_profile, shape):
        """Table VIII: both cost 4K|w|."""
        assert attach_overhead_flops("fedtrip", mlp_profile, shape) == attach_overhead_flops(
            "feddyn", mlp_profile, shape
        )

    def test_fedprox_half_of_fedtrip(self, mlp_profile, shape):
        assert attach_overhead_flops("fedprox", mlp_profile, shape) * 2 == attach_overhead_flops(
            "fedtrip", mlp_profile, shape
        )

    def test_fedavg_zero(self, mlp_profile, shape):
        assert attach_overhead_flops("fedavg", mlp_profile, shape) == 0.0

    def test_moon_dwarfs_fedtrip(self, mlp_profile, shape):
        """The paper: MOON costs 50x FedTrip per iteration on MLP."""
        moon = attach_overhead_flops("moon", mlp_profile, shape)
        trip = attach_overhead_flops("fedtrip", mlp_profile, shape)
        assert moon / trip > 10.0

    def test_moon_ratio_matches_paper_formula(self, mlp_profile, shape):
        """Per-iteration ratio = M(1+p)FP / 4|w| (paper Appendix A)."""
        moon_it = shape.batch_size * 2 * mlp_profile.forward_flops
        trip_it = 4 * mlp_profile.num_params
        got = attach_overhead_flops("moon", mlp_profile, shape) / attach_overhead_flops(
            "fedtrip", mlp_profile, shape
        )
        assert got == pytest.approx(moon_it / trip_it)

    def test_scaffold_includes_full_grad(self, mlp_profile, shape):
        scaf = attach_overhead_flops("scaffold", mlp_profile, shape)
        expected = (
            2 * (shape.iterations + 1) * mlp_profile.num_params
            + shape.n_samples * 3 * mlp_profile.forward_flops
        )
        assert scaf == pytest.approx(expected)

    def test_comm_units(self):
        assert comm_overhead_units("scaffold") == 2.0
        assert comm_overhead_units("mimelite") == 2.0
        assert comm_overhead_units("feddane") == 2.0
        for m in ("fedavg", "fedprox", "fedtrip", "moon", "feddyn", "slowmo"):
            assert comm_overhead_units(m) == 0.0

    def test_unknown_method(self, mlp_profile, shape):
        with pytest.raises(KeyError):
            attach_overhead_flops("fednova", mlp_profile, shape)
        with pytest.raises(KeyError):
            comm_overhead_units("fednova")

    def test_formula_table_complete(self):
        for m in ("fedtrip", "fedprox", "feddyn", "moon", "scaffold", "mimelite", "fedavg"):
            assert m in TABLE8_FORMULAS

    def test_table8_row_structure(self, mlp_profile, shape):
        row = table8_row("fedtrip", mlp_profile, shape)
        assert row["computation_formula"] == "4K|w|"
        assert row["communication_extra_units"] == 0.0


class TestRoundTrainingFlops:
    def test_base_plus_overhead(self, mlp_profile, shape):
        base = shape.samples_processed * 3 * mlp_profile.forward_flops
        got = round_training_flops("fedprox", mlp_profile, shape)
        assert got == pytest.approx(base + 2 * shape.iterations * mlp_profile.num_params)

    def test_ordering_matches_table5(self, rng, shape):
        """Table V per-round ordering: MOON > SCAFFOLD-style > FedTrip > FedAvg."""
        prof = profile_model(build_cnn((1, 28, 28), 10, rng=rng))
        costs = {
            m: round_training_flops(m, prof, shape)
            for m in ("fedavg", "fedtrip", "fedprox", "moon", "feddyn")
        }
        assert costs["moon"] > costs["fedtrip"] > costs["fedprox"] > costs["fedavg"]
        assert costs["feddyn"] == costs["fedtrip"]


class TestMeasuredVsAnalytic:
    """The simulation's measured extra FLOPs must match the analytic model."""

    @pytest.mark.parametrize("method", ["fedprox", "fedtrip", "moon", "feddyn", "fedgkd"])
    def test_simulated_extra_flops_match_formula(self, tiny_data, method):
        from repro.algorithms import build_strategy
        from repro.api import Engine
        from repro.fl import FLConfig

        cfg = FLConfig(rounds=2, n_clients=6, clients_per_round=3, batch_size=20, seed=0)
        strat = build_strategy(method)
        sim = Engine(tiny_data, strat, cfg, model_name="mlp")
        hist = sim.run()

        avg = Engine(tiny_data, build_strategy("fedavg"), cfg, model_name="mlp")
        h_avg = avg.run()

        measured_extra = hist.flops()[-1] - h_avg.flops()[-1]
        # Analytic: sum over participating clients of per-iteration overhead.
        expected = 0.0
        for rec in hist.records:
            for cid in rec.selected:
                n_k = sim.clients[cid].num_samples
                ws = WorkloadShape(n_k, cfg.batch_size, cfg.local_epochs)
                if method in ("moon", "fedgkd"):
                    # Extra forwards are per *sample actually processed*:
                    # sum over batches of batch_size_actual * (1+p) * FP.
                    mult = 2 if method == "moon" else 1
                    expected += mult * n_k * sim.profile.forward_flops
                elif method == "fedtrip":
                    # Round 0 has no history -> 2|w|; later rounds 4|w|.
                    per_it = 2.0 if rec.round_idx == 0 else 4.0
                    expected += per_it * ws.iterations * sim.profile.num_params
                else:
                    expected += attach_overhead_flops(method, sim.profile, ws)
        assert measured_extra == pytest.approx(expected, rel=1e-6)
        sim.close()
        avg.close()
