"""Fixtures shared across the test modules."""

from collections import Counter

import pytest

from cdmafusion import exact


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
