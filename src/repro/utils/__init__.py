"""Shared utilities: seeded RNG management, parameter-vector ops, logging, timing.

These are the lowest-level building blocks of the reproduction; everything in
:mod:`repro.nn`, :mod:`repro.fl` and :mod:`repro.algorithms` builds on the
deterministic RNG streams and the flat-parameter-vector representation defined
here.
"""

from repro.utils.rng import RngStream, spawn_rngs, seed_everything
from repro.utils.vectorize import (
    flatten_arrays,
    unflatten_like,
    tree_copy,
)
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.timer import Timer, StageTimer

__all__ = [
    "RngStream",
    "spawn_rngs",
    "seed_everything",
    "flatten_arrays",
    "unflatten_like",
    "tree_copy",
    "get_logger",
    "set_verbosity",
    "Timer",
    "StageTimer",
]
