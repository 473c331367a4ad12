"""Fixtures and reference helpers shared across the test modules."""

import math
import os
from collections import Counter

import pytest

from cdmafusion import DetectorSpec, SystemParams, asymptotic_performance, core, exact


_SESSION_PID = os.getpid()


def _check_process(when: str) -> None:
    if os.getpid() != _SESSION_PID:  # a forked worker that got out of its pool into pytest
        os._exit(70)
    if not hasattr(os, "waitid"):
        return
    try:  # WNOWAIT: look at a child without reaping it
        child = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    if child is None:
        pytest.fail(f"a child process is still running {when}")
    os.waitpid(child.si_pid, 0)
    pytest.fail(f"child process {child.si_pid} was left unreaped {when}")


needs_two_cpus = pytest.mark.skipif(core._cpus() < 2, reason="the worker pool forks no child on fewer than 2 CPUs")


def assert_no_child() -> None:
    """Assert that this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Ends, with exit code 70, any process other than the pytest session's
    that reaches a test's setup or teardown, so a forked worker cannot run on
    as a second pytest; and fails a test that leaves a child process behind."""
    _check_process("before the test")
    yield
    _check_process("after the test")


def q(x: float) -> float:
    """Upper tail P(Z >= x) of a standard normal variable, through erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def zero_threshold_pe(params: SystemParams) -> float:
    """Large-system error probability of the zero-threshold detector, q(m/sqrt(mu))."""
    return asymptotic_performance(params, DetectorSpec(criterion="fixed", tau_prime=0.0)).pe


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the Cholesky factorizations and triangular solves exact makes.

    "cholesky" counts the matrices exact._cholesky factors, each matrix of a
    stack on its own, and "solve_lower" the calls of exact._solve_lower, the
    block substitution behind every triangular solve.  A name that was never
    called has no key, so comparing the counts with a dict also asserts that
    no other counted routine ran.
    """
    calls = Counter()
    cholesky, solve_lower = exact._cholesky, exact._solve_lower

    def counted_cholesky(a):
        calls["cholesky"] += math.prod(a.shape[:-2])
        return cholesky(a)

    def counted_solve_lower(L, B):
        calls["solve_lower"] += 1
        return solve_lower(L, B)

    monkeypatch.setattr(exact, "_cholesky", counted_cholesky)
    monkeypatch.setattr(exact, "_solve_lower", counted_solve_lower)
    return calls
