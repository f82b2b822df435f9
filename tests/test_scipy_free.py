"""A training run neither needs nor loads SciPy.

SciPy is an optional dependency: only the oracle in
``tests/test_synthetic_exact.py`` uses it.  Each check runs in a fresh
interpreter, because the test process itself may already hold SciPy.
"""

from __future__ import annotations

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: two rounds of the CNN/MNIST FedTrip cell, shrunk; prints the SciPy
#: modules loaded at the end (a ``None`` entry is a blocked import, not a
#: loaded module).
_RUN = """\
import sys
{block}
import repro
from repro.api import ExperimentSpec, run_experiment
spec = ExperimentSpec(dataset="mini_mnist", model="cnn", method="fedtrip",
                      partition="dirichlet", alpha=0.5, n_clients=8,
                      clients_per_round=2, samples_per_client=50,
                      batch_size=50, lr=0.02, rounds=2, seed=0)
history = run_experiment(spec)
assert len(history.records) == 2, history.records
print(sorted(name for name, module in sys.modules.items()
             if name.split(".")[0] == "scipy" and module is not None))
"""


def _run(block: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _RUN.format(block=block)],
                          env=env, cwd=REPO, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_training_runs_with_scipy_unimportable():
    """``sys.modules["scipy"] = None`` makes every ``import scipy...`` raise,
    as on a host without SciPy."""
    assert _run('sys.modules["scipy"] = None') == "[]"


def test_training_run_leaves_scipy_unloaded():
    assert _run("") == "[]"
