"""Tests for the replicate runner's BLAS pin.

Each test first sets numpy's OpenBLAS pool, the only one the package uses,
to 2 threads through the same controls the runner uses, so a pin to 1 and
its restore are both visible even on a one-core machine.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from randomx_eval import _pool
from randomx_eval._pool import USER_BLAS_ENV, _blas_pools, blas_threads, run_replicates
from randomx_eval.errors import ReplicateError

POOLS = _blas_pools()



def test_numpy_openblas_pool_is_found():
    assert len(POOLS) == 1


def counts() -> list[int]:
    return [get() for get, _ in POOLS]


@pytest.fixture(autouse=True)
def two_blas_threads(monkeypatch):
    for var in USER_BLAS_ENV:
        monkeypatch.delenv(var, raising=False)
    before = counts()
    for _, set_ in POOLS:
        set_(2)
    yield
    for (_, set_), count in zip(POOLS, before):
        set_(count)


@pytest.mark.parametrize("threads", [1, 2])
def test_loop_runs_on_one_blas_thread_and_restores(threads):
    assert run_replicates(lambda r: counts(), 4, threads, 0) == [[1]] * 4
    assert counts() == [2]
    assert blas_threads(in_loop=True) == 1 and blas_threads(in_loop=False) == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_restored_after_replicate_error(threads):
    def fn(r):
        if r == 2:
            raise ValueError("boom")
        return counts()

    with pytest.raises(ReplicateError):
        run_replicates(fn, 4, threads, 0)
    assert counts() == [2]


def test_nested_loop_keeps_the_outer_pin():
    def outer(r):
        inner = run_replicates(lambda s: counts(), 2, 1, 0)
        return inner + [counts()]

    assert run_replicates(outer, 2, 2, 0) == [[[1]] * 3] * 2
    assert counts() == [2]


def test_concurrent_loops_share_one_pin():
    # more callers than cores, switching often, with loops that overlap: a
    # lost update to the pin's depth or saved counts would leave a pool at 1
    # or unpin a running loop
    def replicate(r):
        time.sleep(0.001)
        return counts()

    def caller(_):
        return [run_replicates(replicate, 3, 1, 0) for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            seen = list(pool.map(caller, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(c == [1] for loops in seen for loop in loops for c in loop)
    assert counts() == [2]


@pytest.mark.parametrize("var", USER_BLAS_ENV)
def test_user_setting_left_alone(monkeypatch, var):
    monkeypatch.setenv(var, "2")
    assert run_replicates(lambda r: counts(), 3, 2, 0) == [[2]] * 3
    assert blas_threads(in_loop=True) == 2


@pytest.mark.parametrize("reps, threads, words", [
    (0, 1, "reps must be >= 1"), (4, 0, "threads must be >= 1"), (4, -2, "threads must be >= 1"),
])
def test_counts_below_one_are_rejected_before_any_replicate(reps, threads, words):
    calls = []
    with pytest.raises(ValueError, match=words):
        run_replicates(calls.append, reps, threads, 0)
    assert calls == []


def test_runs_when_no_library_is_found(monkeypatch):
    monkeypatch.setattr(_pool, "_blas_pools", lambda: ())
    assert run_replicates(lambda r: r * r, 4, 2, 0) == [0, 1, 4, 9]
    assert counts() == [2]
    assert blas_threads(in_loop=True) is None


@pytest.mark.parametrize("control", [0, 1], ids=["get", "set"])
def test_missing_thread_controls_leave_blas_alone(monkeypatch, control):
    names = list(_pool._THREAD_CONTROLS)
    names[control] = "no_such_symbol"
    monkeypatch.setattr(_pool, "_THREAD_CONTROLS", tuple(names))
    _blas_pools.cache_clear()
    try:
        assert _blas_pools() == ()
        assert run_replicates(lambda r: counts(), 2, 1, 0) == [[2]] * 2
        assert blas_threads(in_loop=True) is None
    finally:
        _blas_pools.cache_clear()  # the next call, after the names are restored, finds them
