"""The six named workloads: ``ExperimentSpec`` keyword sets plus the output
floors each must clear.  Why each exists is recorded in ``BENCHMARK.json``
(``workloads[].why``) and ``README.md``.

Every spec runs on ``rounds=UNBOUNDED_ROUNDS``: a run measures for a fixed
*time*, so the round loop is driven by ``engine.run_round()`` until the
clock says stop, never by ``config.rounds`` (which would also force a
last-round evaluation at a speed-dependent round).

Two deliberate departures from the hyper-parameters first proposed for
these cells, both because a timed run reaches many more rounds on some
seeds than a fixed ``2+N`` schedule and the original settings diverge
there (non-finite updates, skipped rounds) — a workload on which
operations fail cannot be a benchmark:

* ``fanout_serial`` keeps FedTrip's triplet term but uses
  ``xi_mode="normalized"`` (staleness x participation rate): raw
  staleness is the population over the cohort (8 here, 32 at the 4096 ids
  first proposed), and ``lr*mu*xi`` then pushes local models away from
  their historical anchor faster than the loss pulls them back (every
  seed skipped rounds from ~round 90).  The population is 1024, so every
  id has been touched — and the state arena has reached its plateau —
  within the first two seconds of an engine lifetime; peak RSS then does
  not depend on how many rounds a faster or slower program fits in.
* ``semisync_serial`` runs ``lr=0.02`` (0.05 oscillates between 50% and
  98% accuracy after ~300 rounds).
"""

from __future__ import annotations

from typing import Any, Dict

#: untimed rounds at the start of every engine lifetime: pool/fleet spawn,
#: handshake and lazy caches are set-up cost, not steady-state round time.
WARMUP_ROUNDS = 2

#: rounds a serial twin replays to prove an x2 backend computed the same
#: History (warm-up included).
TWIN_ROUNDS = 6

UNBOUNDED_ROUNDS = 10 ** 6

#: timed rounds the one lifetime that chases ``target_accuracy`` may run.  A
#: round count, not seconds: whether the target is reached must depend on
#: the seed and the arithmetic only, never on how fast the host is.
TARGET_ROUNDS = 160

#: the paper's CNN/MNIST cell (Tables IV/V); the three cnn_* workloads run
#: this same arithmetic through three executors.
_CNN = dict(
    dataset="mini_mnist", model="cnn", method="fedtrip",
    partition="dirichlet", alpha=0.5, n_clients=64, clients_per_round=16,
    samples_per_client=100, batch_size=50, lr=0.02, local_epochs=1, eval_every=1,
)

#: Accuracy floors (``min_best_accuracy``, on the best test accuracy any
#: lifetime of an invocation reaches).  A lifetime measures for a fixed time,
#: so how far it learns depends on the host's speed; each floor is therefore
#: set below the worst probed seed at *half* the rounds a lifetime fits on the
#: reference host (probed: 88 seeds CNN, 330 tiny, 40 fanout/semisync, small
#: and 31-bit seeds), so neither an unlucky seed nor a host running at half
#: speed fails it.  They catch a model that is not learning (chance is 10%,
#: 25% on ``tiny``); arithmetic is pinned by the History fingerprints, and
#: learning to the paper's level by ``target_accuracy``.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "cnn_serial": {
        "spec": dict(_CNN, executor="serial"),
        # ~15 rounds per lifetime (worst seed 61.1%), six guaranteed (27.1%).
        "min_best_accuracy": 20.0,
        # Table IV/V target for the to-target metrics.  The 76 probed seeds
        # need 24-82 rounds, so a traced invocation lets one lifetime run on
        # for up to TARGET_ROUNDS; not reaching it fails the output check.
        "target_accuracy": 97.0,
    },
    "cnn_process_x2": {
        "spec": dict(_CNN, executor="process", n_workers=2),
        # only the six guaranteed rounds fit a lifetime (worst seed 27.1%);
        # byte-identity with the serial twin is the real check.
        "min_best_accuracy": 20.0,
    },
    "cnn_network_x2": {
        "spec": dict(_CNN, executor="network", n_workers=2),
        "min_best_accuracy": 20.0,
    },
    "tiny_network_x2": {
        "spec": dict(
            dataset="tiny", model="mlp", method="fedavg",
            partition="dirichlet", alpha=0.5, n_clients=8, clients_per_round=4,
            batch_size=20, lr=0.05, local_epochs=1, eval_every=1,
            executor="network", n_workers=2,
        ),
        # ~600 rounds per lifetime (worst seed 79%; 76% after 100 rounds).
        "min_best_accuracy": 60.0,
    },
    "fanout_serial": {
        "spec": dict(
            dataset="mini_mnist", model="mlp", method="fedtrip",
            partition="iid", alpha=None, n_clients=128, clients_per_round=128,
            population_size=1024, samples_per_client=40, batch_size=20,
            lr=0.02, local_epochs=1, eval_every=10, executor="serial",
            overrides={"xi_mode": "normalized", "participation_rate": 128 / 1024},
        ),
        # ~32 rounds per lifetime (worst seed 78.8%; 58.4% after 16 rounds).
        "min_best_accuracy": 45.0,
    },
    "semisync_serial": {
        "spec": dict(
            dataset="mini_mnist", model="mlp", method="fedtrip",
            partition="dirichlet", alpha=0.5, n_clients=64, clients_per_round=32,
            mode="semisync", buffer_size=16, device_profile="wifi",
            heterogeneity=4.0, samples_per_client=40, batch_size=20,
            lr=0.02, local_epochs=1, eval_every=10, executor="serial",
        ),
        # ~200 rounds per lifetime (worst seed 83.4%; 76.0% after 100 rounds).
        "min_best_accuracy": 60.0,
    },
}


def spec_kwargs(name: str, seed: int, serial_twin: bool = False) -> Dict[str, Any]:
    """``ExperimentSpec`` keywords of workload ``name`` at ``seed``.

    ``serial_twin`` swaps the backend for the plain serial executor and
    nothing else — the reference the x2 Histories must equal byte for byte.
    """
    kwargs = dict(WORKLOADS[name]["spec"], seed=int(seed), rounds=UNBOUNDED_ROUNDS)
    if serial_twin:
        kwargs.update(executor="serial", n_workers=1)
    return kwargs


def has_twin(name: str) -> bool:
    """Whether the workload runs on a pooled backend (and so has a serial
    twin to be compared against)."""
    return WORKLOADS[name]["spec"]["executor"] != "serial"
