"""repro — a full reproduction of *FedTrip: A Resource-Efficient Federated
Learning Method with Triplet Regularization* (Li et al., IPDPS 2023).

Quickstart — declare the run as one :class:`~repro.api.spec.ExperimentSpec`
and train it through the callback-driven engine::

    from repro import ExperimentSpec, EarlyStopping, run_experiment

    spec = ExperimentSpec(dataset="mini_mnist", model="cnn", method="fedtrip",
                          partition="dirichlet", alpha=0.5,
                          n_clients=10, clients_per_round=4,
                          rounds=30, lr=0.02, seed=0,
                          overrides={"mu": 0.4})
    history = run_experiment(spec, callbacks=[EarlyStopping(target_accuracy=85.0)])
    print(history.best_accuracy(), history.rounds_to_accuracy(80.0),
          history.stop_reason)

The same spec drives the CLI (``python -m repro train ...``), the sweep grid
(:mod:`repro.experiments`) and the benchmark harness; the imperative API is
the :class:`~repro.api.engine.Engine` itself (see :mod:`repro.api`).

Subpackages
-----------
``repro.nn``          NumPy layer library (the PyTorch substitute)
``repro.models``      MLP / CNN / AlexNet-lite + cost profiling
``repro.optim``       SGD / SGDm / Adam + LR schedules
``repro.data``        synthetic datasets, loaders, non-IID partitioners
``repro.fl``          server / clients / round loop / metrics
``repro.api``         ExperimentSpec + callback-driven Engine front door
``repro.algorithms``  FedTrip + 9 baselines behind one Strategy API
``repro.costs``       Table VIII / Table V resource accounting
``repro.analysis``    Theorem 1 calculator, toy trajectories, t-SNE
"""

from repro.data import build_federated_data, FederatedData, get_spec
from repro.fl import FLConfig, History, UniformSampler
from repro.api import (
    ExperimentSpec,
    Engine,
    run_experiment,
    Callback,
    EarlyStopping,
    ProgressLogger,
    Checkpointer,
)
from repro.algorithms import (
    build_strategy,
    available_strategies,
    FedTrip,
    FedAvg,
    FedProx,
    MOON,
    FedDyn,
    SlowMo,
    SCAFFOLD,
    FedDANE,
    MimeLite,
    FedGKD,
)
from repro.models import build_model, profile_model

__version__ = "1.0.0"

__all__ = [
    "build_federated_data",
    "FederatedData",
    "get_spec",
    "FLConfig",
    "History",
    "UniformSampler",
    "ExperimentSpec",
    "Engine",
    "run_experiment",
    "Callback",
    "EarlyStopping",
    "ProgressLogger",
    "Checkpointer",
    "build_strategy",
    "available_strategies",
    "FedTrip",
    "FedAvg",
    "FedProx",
    "MOON",
    "FedDyn",
    "SlowMo",
    "SCAFFOLD",
    "FedDANE",
    "MimeLite",
    "FedGKD",
    "build_model",
    "profile_model",
    "__version__",
]
