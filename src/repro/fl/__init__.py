"""Federated-learning runtime: server, clients, round loop, metrics."""

from repro.fl.types import FLConfig, ClientUpdate, RoundRecord
from repro.fl.history import History
from repro.fl.params import (
    MatrixPool,
    ParamPlane,
    WeightLayout,
    as_flat,
    reset_default_pool,
    stack_updates,
)
from repro.fl.sampling import UniformSampler, WeightedSampler, FixedSampler
from repro.fl.population import (
    ClientDirectory,
    FlatStateArena,
    Population,
    PopulationSampler,
)
from repro.fl.aggregation import fedavg_aggregate, weighted_average_flat
from repro.fl.robust import (
    Adversary,
    RobustAggregator,
    available_adversaries,
    available_aggregators,
    build_adversary,
    build_aggregator,
    register_adversary,
    register_aggregator,
    robust_aggregate,
)
from repro.fl.client import Client, run_client_round
from repro.fl.server import Server
from repro.fl.evaluation import evaluate_model, full_batch_gradient
from repro.fl.executor import (
    WorkerContext,
    ClientTaskSpec,
    TaskResult,
    TaskRuntime,
    SerialExecutor,
    make_optimizer,
)
from repro.fl.asyncfl import EventQueue, VirtualClock
from repro.fl.availability import DropoutSampler, DiurnalSampler
from repro.fl.centralized import CentralizedResult, train_centralized
from repro.fl.systems import DeviceProfile, NETWORK_PRESETS, SystemModel, RoundTime
from repro.fl.compression import (
    QuantizationCompressor,
    TopKCompressor,
    CompressedExchange,
    CompressedUploadWrapper,
)
from repro.fl.secure import PairwiseMasker, secure_sum
from repro.fl.privacy import (
    GaussianMechanism,
    PrivacyAccountant,
    PrivateAggregationWrapper,
)

__all__ = [
    "FLConfig",
    "ClientUpdate",
    "RoundRecord",
    "History",
    "UniformSampler",
    "WeightedSampler",
    "FixedSampler",
    "MatrixPool",
    "ParamPlane",
    "WeightLayout",
    "as_flat",
    "reset_default_pool",
    "stack_updates",
    "ClientDirectory",
    "FlatStateArena",
    "Population",
    "PopulationSampler",
    "fedavg_aggregate",
    "weighted_average_flat",
    "Adversary",
    "RobustAggregator",
    "available_adversaries",
    "available_aggregators",
    "build_adversary",
    "build_aggregator",
    "register_adversary",
    "register_aggregator",
    "robust_aggregate",
    "Client",
    "run_client_round",
    "Server",
    "evaluate_model",
    "full_batch_gradient",
    "WorkerContext",
    "ClientTaskSpec",
    "TaskResult",
    "TaskRuntime",
    "SerialExecutor",
    "make_optimizer",
    "EventQueue",
    "VirtualClock",
    "DeviceProfile",
    "NETWORK_PRESETS",
    "SystemModel",
    "RoundTime",
    "CentralizedResult",
    "train_centralized",
    "DropoutSampler",
    "DiurnalSampler",
    "QuantizationCompressor",
    "TopKCompressor",
    "CompressedExchange",
    "CompressedUploadWrapper",
    "PairwiseMasker",
    "secure_sum",
    "GaussianMechanism",
    "PrivacyAccountant",
    "PrivateAggregationWrapper",
]
