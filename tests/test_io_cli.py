"""Persistence (histories, checkpoints, experiment store) and the CLI."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.fl.history import History
from repro.fl.types import RoundRecord
from repro.io import (
    ExperimentStore,
    load_checkpoint,
    load_history,
    save_checkpoint,
    save_history,
)
from repro.models import build_mlp


def _history(n=5):
    h = History()
    for i in range(n):
        h.append(RoundRecord(i, [0, 1], 50.0 + i, 1.0 - i * 0.1, 2.0,
                             1e9 * (i + 1), 1e6 * (i + 1), 0.5))
    return h


class TestHistoryIO:
    def test_roundtrip(self, tmp_path):
        h = _history()
        path = save_history(h, str(tmp_path / "h.json"))
        back = load_history(path)
        assert len(back) == len(h)
        np.testing.assert_allclose(back.accuracies(), h.accuracies())
        np.testing.assert_allclose(back.flops(), h.flops())
        assert back.records[0].selected == [0, 1]

    def test_none_accuracy_preserved(self, tmp_path):
        h = History()
        h.append(RoundRecord(0, [0], None, None, 1.0, 1.0, 1.0, 0.1))
        back = load_history(save_history(h, str(tmp_path / "h.json")))
        assert back.records[0].test_accuracy is None


class TestCheckpointIO:
    def test_roundtrip_exact(self, tmp_path, rng):
        model = build_mlp((1, 4, 4), 3, rng=rng)
        path = save_checkpoint(model, str(tmp_path / "m.npz"), {"round": 7})
        other = build_mlp((1, 4, 4), 3, rng=np.random.default_rng(99))
        meta = load_checkpoint(other, path)
        assert meta == {"round": 7}
        for a, b in zip(model.get_weights(), other.get_weights()):
            np.testing.assert_array_equal(a, b)

    def test_no_metadata(self, tmp_path, rng):
        model = build_mlp((1, 4, 4), 3, rng=rng)
        path = save_checkpoint(model, str(tmp_path / "m.npz"))
        assert load_checkpoint(model, path) == {}


class TestExperimentStore:
    def test_key_stability(self):
        a = ExperimentStore.key({"x": 1, "y": "z"})
        b = ExperimentStore.key({"y": "z", "x": 1})
        assert a == b
        assert a != ExperimentStore.key({"x": 2, "y": "z"})

    def test_put_get_cycle(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "runs"))
        key = store.key({"method": "fedtrip"})
        assert not store.has(key)
        store.put(key, _history(), {"method": "fedtrip"})
        assert store.has(key)
        assert len(store.get(key)) == 5
        assert store.config(key)["method"] == "fedtrip"
        assert list(store.keys()) == [key]

    def test_missing_key_raises(self, tmp_path):
        store = ExperimentStore(str(tmp_path / "runs"))
        with pytest.raises(KeyError):
            store.get("deadbeef")


class TestCLI:
    def test_profile_command(self, capsys):
        assert main(["profile", "--dataset", "mnist", "--model", "cnn"]) == 0
        out = capsys.readouterr().out
        assert '"classes": 10' in out
        assert "params_m" in out

    def test_theory_command(self, capsys):
        assert main(["theory", "--mu", "6.0", "--p", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "rho_fedprox" in out
        assert "E[xi]" in out

    def test_partition_command(self, capsys):
        assert main([
            "partition", "--dataset", "tiny", "--clients", "4",
            "--clients-per-round", "2", "--partition", "dirichlet",
        ]) == 0
        out = capsys.readouterr().out
        assert "client  0" in out
        assert "mean_classes_per_client" in out

    def test_train_command(self, tmp_path, capsys):
        out_path = str(tmp_path / "hist.json")
        code = main([
            "train", "--dataset", "tiny", "--model", "mlp", "--method", "fedtrip",
            "--clients", "4", "--clients-per-round", "2", "--rounds", "2",
            "--batch-size", "20", "--target", "20", "--out", out_path,
        ])
        assert code == 0
        assert os.path.exists(out_path)
        with open(out_path) as fh:
            assert len(json.load(fh)["records"]) == 2
        assert "best accuracy" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        code = main([
            "compare", "--dataset", "tiny", "--model", "mlp",
            "--methods", "fedavg", "fedtrip",
            "--clients", "4", "--clients-per-round", "2", "--rounds", "2",
            "--batch-size", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fedtrip" in out and "fedavg" in out

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
