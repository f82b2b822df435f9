"""The one-declaration contract of ``ExperimentSpec``: golden cell keys
(identity survives refactors of the declaration), metadata completeness,
and CLI <-> spec equivalence."""

from __future__ import annotations

import inspect
import json
from dataclasses import fields

import pytest

from repro.api import Engine, ExperimentSpec
from repro.cli import _CLI_DEFAULTS, build_parser, spec_from_args

FIELDS = fields(ExperimentSpec)

#: (spec kwargs, cell_key), re-pinned once when ``agg_block_size`` left the
#: spec (removing a field changes every key).  Sweep stores, snapshots and
#: the network handshake all key on these; a change here orphans every
#: stored result.
GOLDEN_CELL_KEYS = [
    (dict(), "df580d14c4a13ba6"),
    (dict(model="cnn", overrides={"mu": 0.4}), "78be4c88b4d6325f"),
    (dict(mode="semisync", buffer_size=2, deadline_s=5.0,
          device_profile="wifi", heterogeneity=4.0), "101d46a7a2c9f8d9"),
    (dict(aggregator="trimmed_mean", aggregator_kwargs={"beta": 0.25},
          adversary="sign_flip", adversary_fraction=0.25,
          adversary_kwargs={"gamma": 5.0}), "6ad8b7920629891d"),
    (dict(executor="network", n_workers=2, net_fault="drop_frame",
          net_fault_rate=0.1, net_codec="topk",
          net_codec_kwargs={"fraction": 0.05}, net_bind="0.0.0.0:9000",
          net_heartbeat_s=0.2, trace="/tmp/x.jsonl"), "862433591f04a9ba"),
    (dict(population_size=1024, state_mmap_mb=4,
          fault="crash", fault_rate=0.2, task_retries=2), "29afd84d726950d1"),
]

#: one non-default value per CLI-exposed field, chosen so that together
#: they form a valid spec (network executor + sync mode + a device profile,
#: no population: that excludes adversaries and profiles).
EVERY_FLAG = dict(
    dataset="tiny", model="mlp", method="fedavg", partition="orthogonal",
    alpha=0.3, n_clusters=2, n_clients=6, clients_per_round=3, rounds=7,
    batch_size=20, local_epochs=2, lr=0.01, seed=5, target_accuracy=88.5,
    sampler="dropout", sampler_kwargs={"dropout": 0.2}, n_workers=3,
    executor="network", net_bind="0.0.0.0:9100", net_workers=2,
    net_connect_timeout_s=7.5, net_heartbeat_s=0.25, net_fault="drop_frame",
    net_fault_rate=0.1, net_fault_kwargs={"x": [1, 2]}, net_codec="topk",
    net_codec_kwargs={"fraction": 0.05}, retry_backoff_base_s=0.5,
    device_profile="iot", heterogeneity=2.0,
    aggregator="trimmed_mean", aggregator_kwargs={"beta": 0.25},
    adversary="sign_flip", adversary_fraction=0.25,
    adversary_kwargs={"gamma": 5}, fault="straggler", fault_rate=0.2,
    fault_kwargs={"max_delay_s": 30}, task_retries=2, task_timeout_s=9.0,
    quorum_fraction=0.5, trace="t.jsonl",
    metrics_out="m.prom",
)
#: fields whose non-default value needs a different mode / roster than
#: EVERY_FLAG's; exercised on their own flag lines below.
OTHER_FLAG_LINES = [
    dict(mode="semisync", deadline_s=4.0, buffer_size=2),
    dict(population_size=64, state_mmap_mb=1),
]


def flag_line(kwargs):
    """Spell ``kwargs`` as CLI flags, via each field's first option string."""
    option = {
        action.dest: action.option_strings[0]
        for action in build_parser()._subparsers._group_actions[0]
        .choices["train"]._actions
    }
    argv = []
    for name, value in kwargs.items():
        if isinstance(value, dict):
            for k, v in value.items():
                argv += [option[name], f"{k}={json.dumps(v)}"]
        else:
            argv += [option[name], str(value)]
    return argv


def parse_train(argv):
    return spec_from_args(build_parser().parse_args(["train", *argv]))


class TestIdentity:
    @pytest.mark.parametrize("kwargs,key", GOLDEN_CELL_KEYS)
    def test_golden_cell_keys(self, kwargs, key):
        assert ExperimentSpec(**kwargs).cell_key() == key

    def test_field_count_and_to_dict_order(self):
        assert len(FIELDS) == 58
        assert list(ExperimentSpec().to_dict()) == [f.name for f in FIELDS]

    def test_topology_fields_are_exactly_the_cell_key_exclusions(self):
        assert {f.name for f in FIELDS if f.metadata["topology"]} == {
            "trace", "metrics_out", "net_bind", "net_workers",
            "net_connect_timeout_s", "net_heartbeat_s",
        }


class TestCompleteness:
    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_every_field_documents_itself(self, f):
        assert f.metadata["help"].strip(), "no help text"
        assert f.metadata["group"], "no group"

    def test_kv_fields_round_trip(self):
        kv = [f.name for f in FIELDS if f.metadata["kv"]]
        assert "overrides" in kv and all(
            f.name in kv for f in FIELDS if f.name.endswith("_kwargs"))
        spec = ExperimentSpec(**EVERY_FLAG, overrides={"mu": 0.4, "xs": [1, [2]]})
        assert all(getattr(spec, name) for name in kv)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert all(isinstance(spec.to_dict()[name], dict) for name in kv)

    def test_library_only_fields_have_no_flag(self):
        assert {f.name for f in FIELDS if not f.metadata["cli"]} == {
            "momentum", "optimizer", "eval_every", "eval_batch_size",
            "max_grad_norm", "samples_per_client", "feature_skew",
            "async_alpha", "async_poly", "overrides",
        }

    def test_engine_kwargs_match_the_engine_signature(self):
        accepted = set(inspect.signature(Engine.__init__).parameters)
        assert set(ExperimentSpec().engine_kwargs()) <= accepted


class TestCliEquivalence:
    def test_every_exposed_knob_has_a_case(self):
        covered = set(EVERY_FLAG).union(*OTHER_FLAG_LINES, {"mode"})
        assert covered == {f.name for f in FIELDS if f.metadata["cli"]}

    @pytest.mark.parametrize(
        "kwargs", [EVERY_FLAG, *OTHER_FLAG_LINES], ids=["all", "event", "population"])
    def test_flag_line_equals_hand_built_spec(self, kwargs):
        assert parse_train(flag_line(kwargs)) == ExperimentSpec(
            **{**_CLI_DEFAULTS, **kwargs})

    def test_empty_flag_line_yields_the_cli_defaults(self):
        assert _CLI_DEFAULTS == {"model": "cnn", "rounds": 30, "lr": 0.03}
        assert parse_train([]) == ExperimentSpec(model="cnn", rounds=30, lr=0.03)

    @pytest.mark.parametrize("command", ["compare", "partition"])
    def test_other_commands_share_the_derived_flags(self, command):
        shared = {k: v for k, v in EVERY_FLAG.items()
                  if k not in ("method", "target_accuracy")}
        args = build_parser().parse_args([command, *flag_line(shared)])
        assert spec_from_args(args, method="fedavg") == ExperimentSpec(
            **{**_CLI_DEFAULTS, **shared, "method": "fedavg"})
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--target-accuracy", "90"])

    def test_removed_block_size_knob_is_rejected(self):
        """The server has one fold and no staging block: the old knob is an
        unknown field in a stored spec and an unknown flag on the CLI."""
        with pytest.raises(ValueError, match="agg_block_size"):
            ExperimentSpec.from_dict({**ExperimentSpec().to_dict(), "agg_block_size": 2})
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--agg-block-size", "2"])

    def test_typo_in_a_registry_flag_dies_in_argparse(self):
        for flag in ("--net-fault", "--net-codec", "--fault"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["train", flag, "no-such-thing"])
