"""Deterministic, seeded fault injection for client tasks.

Where :mod:`repro.fl.robust.adversaries` models *malicious values*, this
module models *missing or broken participation*: clients that crash before
uploading, payloads that arrive corrupted, stragglers that blow past the
round deadline, and worker processes that die mid-task.  A
:class:`FaultInjector` is applied inside
:func:`repro.fl.executor.execute_task` — the one code path every backend
shares — so the identical fault lands whether the round ran on the serial
executor or the worker-process fleet and whether the server is sync,
semisync or async (a precondition for the byte-identity contract).

Determinism: every fault decision is a pure function of ``(seed, fault
name, client_id, round_idx, attempt)`` through the named
:class:`~repro.utils.rng.RngStream` tree — never of call order or wall
time.  Keying by *attempt* means a retried task re-draws its fault coin,
so bounded retry actually recovers at sub-certain fault rates while a
replayed run reproduces every failure exactly.  Injectors cross the
process boundary inside ``WorkerSpec`` and therefore hold only
plain numbers, like adversaries.

Built-in fault kinds (``rate`` is the per-(client, round, attempt) firing
probability):

==================  ======================================================
``crash``           the client never uploads: no training happens, the
                    task fails with kind ``"crash"`` (client state is
                    untouched, so a retry restarts from the same state on
                    every backend)
``crash_mid_train`` same observable outcome, but half the client's usual
                    FLOPs are charged as wasted work on the failure
``corrupt``         the upload arrives mangled: a fabricated payload — a
                    NaN-filled flat vector (``mode="nan"``) or a truncated
                    one (``mode="truncate"``) — rides the failed result so
                    tests and tools can inspect what the wire saw; the
                    engine's failure policy, the same on every backend,
                    decides what happens next
``straggler``       the client trains *honestly* but its (virtual-clock)
                    report time is inflated by a seeded delay in
                    ``[min_delay_s, max_delay_s]``; with
                    ``task_timeout_s`` set, delays past the deadline turn
                    into ``"timeout"`` failures whose update is discarded
                    (the trained state is still adopted — it reached the
                    device, not the server)
``worker_death``    the process executing the task dies: a worker the
                    executor spawned itself (``executor="process"``, a
                    loopback ``"network"`` fleet) literally ``os._exit``\\ s
                    — the coordinator sees the connection drop, files the
                    task as a retryable ``connection_lost`` and the
                    executor starts a replacement; everywhere else an
                    equally retryable ``worker_death`` failure is
                    synthesized directly, keeping histories
                    byte-identical across backends
==================  ======================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from repro.fl.types import ClientUpdate
from repro.utils.rng import RngStream

__all__ = [
    "TaskFailure",
    "SeededCoin",
    "CoinRegistry",
    "FaultInjector",
    "CrashFault",
    "CrashMidTrainFault",
    "CorruptFault",
    "StragglerFault",
    "WorkerDeathFault",
    "available_faults",
    "build_fault",
    "register_fault",
]


@dataclass
class TaskFailure:
    """Why a client task produced no usable update — plain data, picklable.

    ``retryable`` separates transient failures (a crash re-drawn on the
    next attempt may not recur) from deterministic ones (re-training a
    client whose loss diverged to NaN reproduces the NaN bit-for-bit, so
    the retry budget is not spent on it).
    """

    kind: str
    client_id: int
    round_idx: int
    attempt: int = 0
    retryable: bool = True
    detail: str = ""


class SeededCoin:
    """What the task faults here and the wire faults of
    :mod:`repro.fl.net.netfaults` share: a firing ``rate``, a ``seed``, and
    a coin that is a pure function of ``(seed, family, name, *key)``."""

    #: RNG namespace of the family, and the word its error messages use.
    family: str = "fault"
    name: str = "base"

    def __init__(self, *, rate: float, seed: int) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{self.family} rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)

    def _rng(self, *path) -> np.random.Generator:
        """Fresh generator keyed by ``(seed, family, name, *path)``."""
        return RngStream(self.seed).child(self.family, self.name, *path).generator

    def fires(self, *key) -> bool:
        """The fault coin for one event."""
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return bool(self._rng(*key).random() < self.rate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rate={self.rate}, seed={self.seed})"


class CoinRegistry(dict):
    """``name -> factory(rate=..., seed=..., **kwargs)`` for one fault
    family, with the register / available / build trio over it."""

    def __init__(self, family: str) -> None:
        super().__init__()
        self.family = family

    def register(self, name: str, factory: Callable[..., SeededCoin]) -> None:
        """Register (or replace) an injector factory under ``name``."""
        self[name.lower()] = factory

    def available(self) -> List[str]:
        return sorted(self)

    def build(self, name: str, *, rate: float, seed: int, **kwargs: Any):
        """Instantiate the injector registered under ``name``.

        ``kwargs`` are injector-specific (``mode=``, ``max_delay_s=``); an
        unknown name or an argument the injector does not accept raises
        ``ValueError``.
        """
        try:
            factory = self[name.lower()]
        except KeyError:
            raise ValueError(
                f"unknown {self.family} {name!r}; available: {self.available()}"
            ) from None
        try:
            return factory(rate=rate, seed=seed, **kwargs)
        except TypeError as exc:
            raise ValueError(
                f"bad arguments for {self.family} {name!r}: {exc}"
            ) from None


class FaultInjector(SeededCoin):
    """Base injector: the seeded fault coin plus the two backend hooks.

    Subclasses implement at most two behaviours: :meth:`pre_train` (return
    a failed result *instead of* training — crash-style faults) and
    :meth:`delay_s` (extra simulated seconds appended to an honestly
    trained task — straggler-style faults).  Instances ship inside
    ``WorkerSpec`` and must stay picklable: hold plain numbers,
    derive generators fresh per call.
    """

    def fires(self, client_id: int, round_idx: int, attempt: int = 0) -> bool:
        """The fault coin for one task attempt — a deterministic function
        of exactly ``(seed, name, client_id, round_idx, attempt)``."""
        return super().fires(client_id, round_idx, attempt)

    def _failure(self, task, kind: str, detail: str = "",
                 retryable: bool = True) -> TaskFailure:
        return TaskFailure(
            kind=kind,
            client_id=task.client_id,
            round_idx=task.round_idx,
            attempt=task.attempt,
            retryable=retryable,
            detail=detail,
        )

    def pre_train(self, task, runtime) -> Optional["TaskResultLike"]:
        """Fail the task before any training happens, or return ``None``
        to let training proceed (stragglers).  The returned object is a
        :class:`~repro.fl.executor.TaskResult` with ``failure`` set and
        ``state=None`` — client state is untouched, which is what keeps
        retries byte-identical across in-place (serial) and copy-shipping
        (process) backends."""
        return None

    def delay_s(self, task) -> float:
        """Extra simulated seconds this (fired) task's report takes."""
        return 0.0


#: duck type only — avoids importing the executor module (cycle).
TaskResultLike = Any


def _failed_result(failure: TaskFailure, update: Optional[ClientUpdate] = None,
                   flops_wasted: float = 0.0):
    from repro.fl.executor import TaskResult

    return TaskResult(update=update, state=None, failure=failure,
                      flops_wasted=flops_wasted)


class CrashFault(FaultInjector):
    """Crash before upload: the device went away and the server never hears
    from it this attempt.  No work is billed (the crash is modelled at
    dispatch time)."""

    name = "crash"

    def pre_train(self, task, runtime):
        return _failed_result(self._failure(task, "crash"))


class CrashMidTrainFault(FaultInjector):
    """Crash halfway through local training: same observable outcome as
    :class:`CrashFault`, but half the client's usual local FLOPs are
    recorded as wasted work (surfaced through the obs layer, never through
    the cost model — a crashed client uploads nothing)."""

    name = "crash_mid_train"

    def pre_train(self, task, runtime):
        client = runtime.clients[task.client_id]
        wasted = 0.5 * (
            client.num_samples * runtime.config.local_epochs
            * 3.0 * runtime.fp_flops
        )
        return _failed_result(
            self._failure(task, "crash_mid_train"), flops_wasted=wasted
        )


class CorruptFault(FaultInjector):
    """The upload arrives mangled.  ``mode="nan"`` fabricates a NaN-filled
    flat vector of the model's true size; ``mode="truncate"`` ships only
    the first half of it.  The corrupted payload rides the failed result
    (inspectable, never aggregated); training is skipped so client state
    stays untouched on every backend."""

    name = "corrupt"

    def __init__(self, *, rate: float, seed: int, mode: str = "nan") -> None:
        super().__init__(rate=rate, seed=seed)
        if mode not in ("nan", "truncate"):
            raise ValueError(f"corrupt mode must be 'nan' or 'truncate', got {mode!r}")
        self.mode = mode

    def _corrupt_payload(self, task, runtime) -> ClientUpdate:
        flat = runtime.global_flat
        if self.mode == "truncate":
            payload = np.zeros(max(1, flat.size // 2), dtype=flat.dtype)
        else:
            payload = np.full(flat.size, np.nan, dtype=flat.dtype)
        client = runtime.clients[task.client_id]
        return ClientUpdate(
            client_id=task.client_id,
            weights=[payload],
            num_samples=client.num_samples,
            train_loss=float("nan"),
            flat=payload,
        )

    def pre_train(self, task, runtime):
        return _failed_result(
            self._failure(task, "corrupt", detail=self.mode),
            update=self._corrupt_payload(task, runtime),
        )


class StragglerFault(FaultInjector):
    """Train honestly, report late: a seeded uniform delay in
    ``[min_delay_s, max_delay_s]`` is appended to the task's simulated
    report time.  On its own this only stretches the virtual clock (and, in
    the event-driven modes, interacts with deadlines/buffers); combined
    with ``task_timeout_s`` it becomes the ``"timeout"`` failure source."""

    name = "straggler"

    def __init__(self, *, rate: float, seed: int,
                 min_delay_s: float = 1.0, max_delay_s: float = 10.0) -> None:
        super().__init__(rate=rate, seed=seed)
        if not 0.0 <= min_delay_s <= max_delay_s:
            raise ValueError(
                f"need 0 <= min_delay_s <= max_delay_s, got "
                f"[{min_delay_s}, {max_delay_s}]"
            )
        self.min_delay_s = float(min_delay_s)
        self.max_delay_s = float(max_delay_s)

    def delay_s(self, task) -> float:
        rng = self._rng("delay", task.client_id, task.round_idx, task.attempt)
        return float(rng.uniform(self.min_delay_s, self.max_delay_s))


class WorkerDeathFault(FaultInjector):
    """The *worker* (not the modelled device) dies mid-task.  A worker its
    executor spawned really exits — exercising the coordinator's
    lost-connection detection and the executor's respawn path; every other
    worker synthesizes the same retryable failure, so a fixed seed yields
    the same History on every backend."""

    name = "worker_death"

    def pre_train(self, task, runtime):
        if getattr(runtime, "in_pool_worker", False):
            # Actually die.  The coordinator reads EOF on this worker's
            # connection, synthesizes the task's failure itself, and the
            # executor replaces the process.
            os._exit(1)
        return _failed_result(self._failure(task, "worker_death"))


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_FAULTS = CoinRegistry("fault")
register_fault = _FAULTS.register
available_faults = _FAULTS.available
build_fault = _FAULTS.build


register_fault("crash", CrashFault)
register_fault("crash_mid_train", CrashMidTrainFault)
register_fault("corrupt", CorruptFault)
register_fault("straggler", StragglerFault)
register_fault("worker_death", WorkerDeathFault)
