"""Fixtures and reference helpers shared across the test modules."""

import math
from collections import Counter

import pytest

from cdmafusion import DetectorSpec, SystemParams, asymptotic_performance, exact


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
