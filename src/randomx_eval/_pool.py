"""Deterministic replicate runner, optionally thread-parallel, on single-threaded BLAS.

Replicate ``r`` must derive all randomness from its own index (plus the master
seed), and results are always collected in replicate order, so the output is
byte-identical whatever ``threads`` is.

A replicate makes many small BLAS calls (a p x p Gram matrix, its Cholesky
and inverse, one product with the test rows), and OpenBLAS's own thread pool
costs more than it saves on them.  Every BLAS and LAPACK call the package
makes goes to the OpenBLAS numpy links (`linalg` binds its LAPACK), so there
is one pool.  For the length of the loop the runner sets it to one thread,
through the thread controls of the same library handle `linalg` opens, and
restores its count afterwards, also when a replicate fails.  It leaves BLAS
alone when ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, and when
the thread controls cannot be found.  Code outside a replicate loop, such as
the ``eval`` command's one large fit, keeps OpenBLAS's own threading.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, TypeVar

from .errors import ReplicateError
from .linalg import _BLAS

T = TypeVar("T")

#: Variables through which the user sets BLAS threading; either one wins.
USER_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: Thread controls of the OpenBLAS bundled with numpy.
_THREAD_CONTROLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@lru_cache(maxsize=None)
def _blas_pools() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """``(get, set)`` thread controls of numpy's OpenBLAS, or none if they cannot be found."""
    try:
        get, set_ = (getattr(_BLAS, symbol) for symbol in _THREAD_CONTROLS)
    except AttributeError:
        return ()
    get.restype, get.argtypes = ctypes.c_int, []
    set_.restype, set_.argtypes = None, [ctypes.c_int]
    return ((get, set_),)


def _user_blas_threads() -> int | str | None:
    for var in USER_BLAS_ENV:
        value = os.environ.get(var)
        if value:
            return int(value) if value.isdigit() else value
    return None


def blas_threads(*, in_loop: bool) -> int | str | None:
    """BLAS threads in force: inside a replicate loop, or else outside one.

    The user's ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` when set; else 1
    inside a loop and OpenBLAS's own count outside one; None when its thread
    controls were not found.
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
    """Pin the BLAS pool to one thread; nested and concurrent loops share one pin."""
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
    """Evaluate ``fn(0) .. fn(reps-1)`` on ``threads`` workers, returning results in index order.

    ``reps`` or ``threads`` below 1 is a ValueError before any replicate runs.
    A failing replicate aborts the run with a `ReplicateError` that records
    the replicate index and master seed needed to reproduce it (one that
    ``fn`` raises itself passes through as it is).  Results are read in
    index order, so at any ``threads`` the error names the lowest failing
    replicate, and replicates not yet started are cancelled.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")

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
