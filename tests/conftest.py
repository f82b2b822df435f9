"""Shared fixtures and the numerical gradient-check helper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.spec import ExperimentSpec
from repro.data import build_federated_data
from repro.fl import FLConfig


def _choices(field_name):
    """The names ``ExperimentSpec.<field_name>`` accepts, read from the
    field's declaration — a newly registered name is runnable here without
    editing this file."""
    choices = ExperimentSpec.__dataclass_fields__[field_name].metadata["choices"]
    return list(choices() if callable(choices) else choices)


def pytest_addoption(parser):
    parser.addoption(
        "--executor",
        default="serial",
        choices=_choices("executor"),
        help="execution backend the backend-sensitive smoke tests run on "
             "(CI runs the suite once more with --executor process and "
             "again with --executor network --net-workers 2: the one "
             "loopback fleet under both of its names)",
    )
    parser.addoption(
        "--net-workers",
        type=int,
        default=2,
        help="loopback worker-process count for --executor network",
    )
    parser.addoption(
        "--mode",
        default="sync",
        choices=_choices("mode"),
        help="server mode the mode-sensitive smoke tests run on "
             "(CI runs the suite once more with --mode semisync "
             "--device-profile iot)",
    )
    parser.addoption(
        "--device-profile",
        default=None,
        choices=_choices("device_profile"),
        help="device/network preset for the mode-sensitive smoke tests",
    )
    parser.addoption(
        "--aggregator",
        default="mean",
        choices=_choices("aggregator"),
        help="server aggregation rule the aggregation-sensitive smoke tests "
             "run with (CI runs the suite once more with "
             "--aggregator trimmed_mean)",
    )
    parser.addoption(
        "--fault",
        default=None,
        choices=_choices("fault"),
        help="deterministic fault injector the fault-sensitive smoke tests "
             "run with (CI reruns tier-1 with --fault crash --fault-rate "
             "0.2 --task-retries 2 to keep the failure policy continuously "
             "exercised)",
    )
    parser.addoption(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-(client, round, attempt) fire probability for --fault",
    )
    parser.addoption(
        "--task-retries",
        type=int,
        default=0,
        help="retry budget the fault-sensitive smoke tests run with",
    )
    parser.addoption(
        "--run-tier2",
        action="store_true",
        default=False,
        help="also run tests marked tier2 (slow resource-ceiling checks, "
             "e.g. the population peak-RSS regression); skipped by default "
             "so tier-1 stays fast",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "tier2: slow resource-ceiling regression tests, run with --run-tier2",
    )
    config.addinivalue_line("markers", "slow: long-running end-to-end test")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-tier2"):
        return
    skip = pytest.mark.skip(reason="tier-2 test; enable with --run-tier2")
    for item in items:
        if "tier2" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def executor_name(request):
    """The backend selected with ``--executor`` (default: serial)."""
    return request.config.getoption("--executor")


@pytest.fixture(scope="session")
def net_workers(request):
    """Loopback fleet size selected with ``--net-workers`` (default: 2)."""
    return request.config.getoption("--net-workers")


@pytest.fixture(scope="session")
def mode_name(request):
    """The server mode selected with ``--mode`` (default: sync)."""
    return request.config.getoption("--mode")


@pytest.fixture(scope="session")
def device_profile_name(request):
    """The preset selected with ``--device-profile`` (default: None)."""
    return request.config.getoption("--device-profile")


@pytest.fixture(scope="session")
def aggregator_name(request):
    """The aggregation rule selected with ``--aggregator`` (default: mean)."""
    return request.config.getoption("--aggregator")


@pytest.fixture(scope="session")
def fault_options(request):
    """The (fault, fault_rate, task_retries) triple selected on the CLI.

    ``fault`` defaults to None, so the fault-sensitive smoke tests run the
    clean path unless CI opts into an injector.
    """
    return (
        request.config.getoption("--fault"),
        request.config.getoption("--fault-rate"),
        request.config.getoption("--task-retries"),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def tiny_data():
    """A 6-client Dirichlet-partitioned tiny dataset shared across tests."""
    return build_federated_data("tiny", n_clients=6, partition="dirichlet", alpha=0.5, seed=0)


@pytest.fixture(scope="session")
def tiny_iid_data():
    return build_federated_data("tiny", n_clients=6, partition="iid", seed=0)


@pytest.fixture
def small_config():
    return FLConfig(
        rounds=3, n_clients=6, clients_per_round=3, batch_size=20, lr=0.05, seed=1
    )


# ---------------------------------------------------------------------------
# Numerical gradient checking for layers (float32 tolerances).
# ---------------------------------------------------------------------------

def numeric_grad_scalar(f, x: np.ndarray, eps: float = 1e-2, max_checks: int = 40, seed: int = 0):
    """Central-difference gradient of scalar f at sampled entries of x.

    Returns (indices, numeric_values) for up to ``max_checks`` randomly
    sampled flat indices — checking every entry of a conv kernel would be
    O(params) forward passes for no extra signal.
    """
    rng = np.random.default_rng(seed)
    flat = x.reshape(-1)
    n = flat.size
    idx = rng.choice(n, size=min(max_checks, n), replace=False)
    grads = np.empty(idx.size, dtype=np.float64)
    for j, i in enumerate(idx):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        grads[j] = (fp - fm) / (2 * eps)
    return idx, grads


def check_layer_gradients(layer, x: np.ndarray, atol: float = 2e-2, rtol: float = 8e-2, seed: int = 0):
    """Verify a layer's analytic backward against central differences.

    Strategy: define scalar loss L = sum(forward(x) * R) for a fixed random
    R; then dL/dx = backward(R) and dL/dw accumulates in parameter grads.
    Checks the input gradient and every parameter's gradient on sampled
    entries.  Tolerances are sized for float32 arithmetic.
    """
    rng = np.random.default_rng(seed)
    layer.train()
    out = layer.forward(x)
    r = rng.standard_normal(out.shape).astype(x.dtype)

    def loss() -> float:
        return float(np.sum(layer.forward(x).astype(np.float64) * r))

    # Analytic gradients.
    layer.zero_grad()
    layer.forward(x)
    dx = layer.backward(r)

    def compare(name, analytic, target_array, f):
        idx, num = numeric_grad_scalar(f, target_array, seed=seed + hash(name) % 1000)
        ana = analytic.reshape(-1)[idx].astype(np.float64)
        denom = np.maximum(np.abs(num), np.abs(ana))
        err = np.abs(num - ana)
        ok = (err <= atol) | (err <= rtol * denom)
        assert ok.all(), (
            f"{name}: gradient mismatch; worst abs err "
            f"{err.max():.4g} at analytic={ana[err.argmax()]:.4g} "
            f"numeric={num[err.argmax()]:.4g}"
        )

    compare("input", dx, x, loss)
    for pname, p in layer.named_parameters():
        compare(f"param:{pname}", p.grad, p.data, loss)
