"""Stop idle OpenBLAS helper threads from busy-spinning (2**28 cycles after each
threaded call).  OpenBLAS reads ``OPENBLAS_THREAD_TIMEOUT`` when numpy loads it,
and a forked worker inherits that reading, so setting the variable later is moot."""

from __future__ import annotations

import ctypes
import os
import threading
from typing import Any, Dict, Optional

__all__ = ["TIMEOUT_LOG2", "quiet_blas_threads"]

#: log2 of the cycles an idle helper thread spins (OpenBLAS clamps to [4, 30]).
TIMEOUT_LOG2 = 4
_ENV = "OPENBLAS_THREAD_TIMEOUT"
_MAPS = "/proc/self/maps"
_lock = threading.Lock()
_done: Optional[Dict[str, Any]] = None


def _openblas_path() -> Optional[str]:
    """The OpenBLAS mapped into this process; None on another BLAS or host."""
    try:
        with open(_MAPS) as fh:
            hits = [f[5].strip() for f in (line.split(None, 5) for line in fh)
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])]
    except OSError:
        return None
    return min(hits, key=lambda p: "numpy" not in p, default=None)  # numpy's own first


def _fn(lib, *names, restype=ctypes.c_int):
    for fn in (getattr(lib, n) for n in names if hasattr(lib, n)):
        fn.argtypes, fn.restype = [], restype  # every function used here takes none
        return fn


def quiet_blas_threads() -> Dict[str, Any]:
    """Re-read the environment with ``OPENBLAS_THREAD_TIMEOUT=TIMEOUT_LOG2`` and shut
    the pool down; OpenBLAS rebuilds it lazily with the short spin and the same
    thread count.  Once per process; returns ``{lib, applied, timeout_log2, threads}``
    (not applied, exponent 0, if the variable was preset or no OpenBLAS is mapped)."""
    global _done
    with _lock:
        if _done is not None:
            return _done
        path = _openblas_path()
        lib = ctypes.CDLL(path) if path is not None else None
        get = _fn(lib, "openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
        read_env = _fn(lib, "openblas_read_env", restype=None)
        shutdown = _fn(lib, "blas_thread_shutdown_")
        _done = {"lib": path, "applied": False, "timeout_log2": 0, "threads": get() if get else 0}
        if _ENV in os.environ or read_env is None or shutdown is None:
            return _done
        os.environ[_ENV] = str(TIMEOUT_LOG2)
        try:
            read_env()
        finally:
            del os.environ[_ENV]
        shutdown()
        _done.update(applied=True, timeout_log2=TIMEOUT_LOG2)
        return _done
