"""Fixtures shared across the test modules."""

import pytest

from cdmafusion import exact


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the Cholesky factorizations and solves made through exact's scipy names."""
    calls = {"cho_factor": 0, "cho_solve": 0}
    for name in calls:
        original = getattr(exact, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(exact, name, counted)
    return calls
