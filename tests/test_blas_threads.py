"""Idle OpenBLAS helper threads stop spinning in every model-math process.

The probe runs a threaded 512x512 float32 GEMM, then sleeps 50 ms and
reads ``time.process_time()`` across the sleep: OpenBLAS's default idle
spin (2**28 cycles, ~0.1 s) shows as tens of milliseconds of CPU, the
quieted spin (2**4 cycles) as well under one.  Every check runs in a fresh
interpreter, because the test process has usually built an engine already.
The probe checks skip where numpy's BLAS is not OpenBLAS or runs one
thread (CI sets ``OPENBLAS_NUM_THREADS=2`` so they never skip there).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.algorithms import build_strategy
from repro.api import Engine
from repro.obs import Recorder
from repro.utils import blas

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: CPU seconds a sleeping process may burn after a GEMM once quieted, and
#: the least the unquieted control must burn (it reads ~50 ms).
QUIET_CPU_S = 0.005
SPIN_CPU_S = 0.020

_PROBE = """\
import ctypes, json, multiprocessing, os, sys, time
import numpy as np


def probe():
    a = np.ones((512, 512), np.float32)
    cpu = []
    for _ in range(3):
        a @ a
        t0 = time.process_time()
        time.sleep(0.05)
        cpu.append(time.process_time() - t0)
    return min(cpu)


def forked_probe():
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.write(w, repr(probe()).encode())
        os._exit(0)
    os.close(w)
    os.waitpid(pid, 0)
    with os.fdopen(r) as fh:
        return float(fh.read())


def spawned_worker(spec, queue):
    from repro.fl.executor import build_worker_half

    build_worker_half(spec, bytearray(spec.layout.total_bytes), in_pool_worker=False)
    queue.put(probe())


def threads():
    from repro.utils import blas

    path = blas._openblas_path()
    if path is None:
        return {"lib": None}
    lib = ctypes.CDLL(path)
    get = getattr(lib, next(n for n in ("openblas_get_num_threads",
                                        "scipy_openblas_get_num_threads64_")
                            if hasattr(lib, n)))
    before = get()
    record = blas.quiet_blas_threads()
    probe()  # rebuilds the pool
    return {"lib": path, "record": record, "before": before, "after": get(),
            "timeout": lib.openblas_thread_timeout(),
            "env": os.environ.get("OPENBLAS_THREAD_TIMEOUT")}


def engine(executor):
    from repro.api import ExperimentSpec, build_mode

    spec = ExperimentSpec(dataset="tiny", model="mlp", method="fedavg", n_clients=4,
                          clients_per_round=2, rounds=1, batch_size=20,
                          executor=executor, n_workers=1 if executor == "serial" else 2)
    with build_mode(spec.mode, spec=spec, data=spec.build_data()) as eng:
        out = {"engine": probe(), "fork": forked_probe()}
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        proc = ctx.Process(target=spawned_worker, args=(eng.worker_spec(), queue))
        proc.start()
        out["spawn"] = queue.get(timeout=120)
        proc.join(timeout=60)
        assert proc.exitcode == 0, proc.exitcode
    return out


if __name__ == "__main__":
    mode = sys.argv[1]
    out = {"control": lambda: {"cpu": probe()}, "threads": threads,
           "engine": lambda: engine(sys.argv[2])}[mode]()
    print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def probe_script(tmp_path_factory):
    path = tmp_path_factory.mktemp("blas") / "probe.py"
    path.write_text(_PROBE)
    return str(path)


def _run(script: str, *args: str, **env_extra: str) -> dict:
    env = dict(os.environ, **env_extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, script, *args], env=env, cwd=REPO,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def fresh(probe_script):
    """The helper applied in a fresh interpreter; skips the module's probe
    checks where they cannot see a spin."""
    out = _run(probe_script, "threads")
    if out["lib"] is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if out["before"] < 2:
        pytest.skip("OpenBLAS runs one thread")
    return out


@pytest.fixture(scope="module")
def engine_probe(fresh, probe_script, executor_name):
    return _run(probe_script, "engine", executor_name)


def test_control_without_engine_shows_the_spin(fresh, probe_script):
    assert _run(probe_script, "control")["cpu"] > SPIN_CPU_S


def test_engine_process_is_quiet(engine_probe):
    assert engine_probe["engine"] < QUIET_CPU_S


def test_forked_child_of_engine_is_quiet(engine_probe):
    assert engine_probe["fork"] < QUIET_CPU_S


def test_spawned_worker_half_is_quiet(engine_probe):
    assert engine_probe["spawn"] < QUIET_CPU_S


def test_helper_sets_short_spin_and_keeps_thread_count(fresh):
    assert fresh["record"] == {"lib": fresh["lib"], "applied": True,
                               "timeout_log2": blas.TIMEOUT_LOG2, "threads": fresh["before"]}
    assert fresh["timeout"] == blas.TIMEOUT_LOG2 == 4
    assert fresh["after"] == fresh["before"]
    assert fresh["env"] is None  # the variable was set only around the re-read


def test_preset_timeout_is_left_alone(fresh, probe_script):
    out = _run(probe_script, "threads", OPENBLAS_THREAD_TIMEOUT="20")
    assert out["record"]["applied"] is False
    assert out["record"]["timeout_log2"] == 0
    assert out["env"] == "20"
    assert out["timeout"] == 20


@pytest.mark.parametrize("maps", ["no_openblas", "missing"])
def test_no_openblas_mapped_is_a_recorded_noop(maps, tmp_path, monkeypatch):
    path = tmp_path / "maps"
    if maps == "no_openblas":
        path.write_text("7f00-7f01 r-xp 00000000 fe:00 1    /usr/lib/libblas.so.3\n")
    monkeypatch.setattr(blas, "_MAPS", str(path))
    monkeypatch.setattr(blas, "_done", None)
    assert blas.quiet_blas_threads() == {
        "lib": None, "applied": False, "timeout_log2": 0, "threads": 0}


def test_engine_reports_the_helper_as_a_gauge(tiny_data, small_config):
    with Engine(tiny_data, build_strategy("fedavg"), small_config, model_name="mlp",
                recorder=Recorder()) as engine:
        gauge = engine.obs.metrics.get("fl_blas_thread_timeout_log2")
    assert gauge.value == blas.quiet_blas_threads()["timeout_log2"]


def test_numpy_openblas_is_preferred_over_another_copy(tmp_path, monkeypatch):
    # SciPy bundles its own OpenBLAS, mapped at a lower address once imported.
    path = tmp_path / "maps"
    path.write_text(
        "7f00-7f01 r-xp 00000000 fe:00 1    /sp/scipy.libs/libscipy_openblas-1.so\n"
        "7f02-7f03 r-xp 00000000 fe:00 2    /sp/numpy.libs/libscipy_openblas64_-2.so\n")
    monkeypatch.setattr(blas, "_MAPS", str(path))
    assert blas._openblas_path() == "/sp/numpy.libs/libscipy_openblas64_-2.so"
