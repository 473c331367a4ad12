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
    """Counts of the Cholesky factorizations, solves and triangular solves made
    through exact's scipy names.

    A name that was never called has no key, so comparing the counts with a
    dict also asserts that no other counted routine ran.
    """
    calls = Counter()
    for name in ("cho_factor", "cho_solve", "solve_triangular"):
        original = getattr(exact, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exact, name, counted)
    return calls
