"""FL algorithms: FedTrip (the paper's contribution) and all baselines."""

from repro.algorithms.base import Strategy, ClientRoundContext
from repro.algorithms.fedavg import FedAvg
from repro.algorithms.fedprox import FedProx
from repro.algorithms.fedtrip import FedTrip
from repro.algorithms.moon import MOON
from repro.algorithms.feddyn import FedDyn
from repro.algorithms.slowmo import SlowMo
from repro.algorithms.scaffold import SCAFFOLD
from repro.algorithms.feddane import FedDANE
from repro.algorithms.mimelite import MimeLite
from repro.algorithms.fedgkd import FedGKD
from repro.algorithms.fednova import FedNova
from repro.algorithms.fedtrip_adaptive import AdaptiveFedTrip
from repro.algorithms.fedbn import FedBN
from repro.algorithms.registry import (
    STRATEGY_CLASSES,
    PAPER_EVALUATED,
    build_strategy,
    available_strategies,
    paper_defaults,
)

__all__ = [
    "Strategy",
    "ClientRoundContext",
    "FedAvg",
    "FedProx",
    "FedTrip",
    "MOON",
    "FedDyn",
    "SlowMo",
    "SCAFFOLD",
    "FedDANE",
    "MimeLite",
    "FedGKD",
    "FedNova",
    "AdaptiveFedTrip",
    "FedBN",
    "STRATEGY_CLASSES",
    "PAPER_EVALUATED",
    "build_strategy",
    "available_strategies",
    "paper_defaults",
]
