"""Deterministic replicate runner, optionally thread-parallel, on single-threaded BLAS.

Replicate ``r`` must derive all randomness from its own index (plus the master
seed), and results are always collected in replicate order, so the output is
byte-identical whatever ``threads`` is.

A replicate makes many small BLAS calls (a p x p Gram matrix, its Cholesky,
one product with the test rows), and OpenBLAS's own thread pool costs more
than it saves on them.  For the length of the loop the runner therefore sets
both OpenBLAS pools, numpy's and scipy's, to one thread, and restores their
counts afterwards, also when a replicate fails.  It leaves BLAS alone when
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, and when a library or
its thread controls cannot be found.  Code outside a replicate loop, such as
the ``eval`` command's one large fit, keeps the libraries' own threading.
"""

from __future__ import annotations

import ctypes
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterator, TypeVar

from .errors import ReplicateError

T = TypeVar("T")

#: Variables through which the user sets BLAS threading; either one wins.
USER_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# (package, library directory beside it, library glob, thread-control symbol)
_OPENBLAS = (
    ("numpy", "numpy.libs", "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "scipy.libs", "libscipy_openblas*.so", "scipy_openblas_{}_num_threads"),
)


@lru_cache(maxsize=None)
def _blas_pools() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """``(get, set)`` thread controls of the OpenBLAS builds bundled with numpy and scipy."""
    pools = []
    for package, libdir, pattern, symbol in _OPENBLAS:
        try:
            site = Path(importlib.import_module(package).__file__).parent.parent
            lib = ctypes.CDLL(str(sorted((site / libdir).glob(pattern))[0]))
            get, set_ = getattr(lib, symbol.format("get")), getattr(lib, symbol.format("set"))
        except (ImportError, TypeError, IndexError, OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        pools.append((get, set_))
    return tuple(pools)


def _user_blas_threads() -> int | str | None:
    for var in USER_BLAS_ENV:
        value = os.environ.get(var)
        if value:
            return int(value) if value.isdigit() else value
    return None


def blas_threads(*, in_loop: bool) -> int | str | None:
    """BLAS threads in force: inside a replicate loop, or else outside one.

    The user's ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` when set; else 1
    inside a loop and the libraries' own count outside one; None when no
    OpenBLAS thread control was found.
    """
    user = _user_blas_threads()
    if user is not None:
        return user
    pools = _blas_pools()
    if not pools:
        return None
    return 1 if in_loop else max(get() for get, _ in pools)


_pin_lock = threading.Lock()
_pin_depth = 0
_saved_counts: list[int] = []


@contextmanager
def _single_threaded_blas() -> Iterator[None]:
    """Pin the BLAS pools to one thread; nested and concurrent loops share one pin."""
    global _pin_depth
    pools = () if _user_blas_threads() is not None else _blas_pools()
    if not pools:
        yield
        return
    with _pin_lock:
        if _pin_depth == 0:
            _saved_counts[:] = [get() for get, _ in pools]
            for _, set_ in pools:
                set_(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                for (_, set_), count in zip(pools, _saved_counts):
                    set_(count)


def run_replicates(
    fn: Callable[[int], T], reps: int, threads: int, master_seed: int
) -> list[T]:
    """Evaluate ``fn(0) .. fn(reps-1)``, returning results in index order.

    A failing replicate aborts the run with a `ReplicateError` that records
    the replicate index and master seed needed to reproduce it (one that
    ``fn`` raises itself passes through as it is).  Results are
    read in index order, so at any ``threads`` the error names the lowest
    failing replicate, and replicates not yet started are cancelled.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")

    def checked(r: int) -> T:
        try:
            return fn(r)
        except ReplicateError:
            raise
        except Exception as exc:
            raise ReplicateError(r, master_seed, exc) from exc

    with _single_threaded_blas():
        if threads <= 1:
            return list(map(checked, range(reps)))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(checked, range(reps)))
