"""Name-based strategy construction with paper-default hyperparameters."""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.algorithms.base import Strategy
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

__all__ = [
    "STRATEGY_CLASSES",
    "PAPER_EVALUATED",
    "build_strategy",
    "available_strategies",
    "paper_defaults",
]

STRATEGY_CLASSES: Dict[str, Callable[..., Strategy]] = {
    "fedavg": FedAvg,
    "fedprox": FedProx,
    "fedtrip": FedTrip,
    "moon": MOON,
    "feddyn": FedDyn,
    "slowmo": SlowMo,
    "scaffold": SCAFFOLD,
    "feddane": FedDANE,
    "mimelite": MimeLite,
    "fedgkd": FedGKD,
    "fednova": FedNova,
    "fedtrip_adaptive": AdaptiveFedTrip,
    "fedbn": FedBN,
}

#: The six methods the paper's evaluation compares (Tables IV-VII, Figs. 5-7).
PAPER_EVALUATED = ("fedtrip", "fedavg", "fedprox", "slowmo", "moon", "feddyn")


def paper_defaults(name: str, model: str = "cnn", dataset: str = "mnist") -> Dict[str, Any]:
    """Hyperparameters from Sec. V-A.

    FedTrip: mu=1.0 on MLP, 0.4 otherwise.  FedProx: mu=0.1.
    MOON: mu=1, tau=0.5.  FedDyn: alpha=1 on MNIST, 0.1 otherwise.
    """
    key = name.lower()
    if key in ("fedtrip", "fedtrip_adaptive"):
        return {"mu": 1.0 if model == "mlp" else 0.4}
    if key == "fedprox":
        return {"mu": 0.1}
    if key == "moon":
        return {"mu": 1.0, "temperature": 0.5}
    if key == "feddyn":
        return {"alpha": 1.0 if "mnist" == dataset.replace("mini_", "") else 0.1}
    return {}


def build_strategy(name: str, model: str = "cnn", dataset: str = "mnist", **overrides) -> Strategy:
    """Build a strategy by name with paper-default hyperparameters.

    Keyword overrides replace defaults, e.g. ``build_strategy("fedtrip", mu=0.8)``.
    """
    key = name.lower()
    if key not in STRATEGY_CLASSES:
        raise KeyError(f"unknown strategy {name!r}; available: {available_strategies()}")
    kwargs = paper_defaults(key, model=model, dataset=dataset)
    kwargs.update(overrides)
    return STRATEGY_CLASSES[key](**kwargs)


def available_strategies() -> Tuple[str, ...]:
    return tuple(sorted(STRATEGY_CLASSES))
