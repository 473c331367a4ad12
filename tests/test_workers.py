"""The worker map on forked processes, and the package errors that cross it.

sweep-grid maps its (N, alpha) points over forked children (core.map_workers
with processes=True): results and exceptions come back pickled, in the
items' order, and a child that dies takes the run down with one exception,
never a hang.
"""

import os
import pickle
import signal
import time

import pytest

from cdmafusion import errors
from cdmafusion.core import map_workers
from conftest import assert_no_child

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")

SESSION = os.getpid()


def square(x):
    return x * x


def started(x):
    return x, os.getpid(), time.monotonic()


def fail_at_3_and_7(x):
    if x in (3, 7):
        raise errors.InvalidParam("x", x, "must not be 3 or 7")
    return x


class TwoArguments(Exception):
    """Pickles, but its unpickling calls __init__ with the message alone, which fails."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def raise_two_arguments(x):
    raise TwoArguments(x, x + 1)


def die_at_2(x):
    if x == 2 and os.getpid() != SESSION:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestErrorsPickle:
    SAMPLES = [
        errors.CdmaFusionError("base"),
        errors.InvalidParam("N", 0, "must be >= 1"),
        errors.DomainError("outside the domain"),
        errors.InvalidSpreadingMatrix("entry off the alphabet", row=2, col=5),
        errors.DimensionMismatch("4x4 against N=8"),
        errors.NumericalFailure("covariance factorization failed"),
        errors.ParseError("invalid JSON"),
    ]

    def test_every_class_has_a_sample(self):
        classes = {v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)}
        assert {type(e) for e in self.SAMPLES} == classes

    @pytest.mark.parametrize("exc", SAMPLES, ids=lambda e: type(e).__name__)
    def test_round_trip_keeps_type_message_and_attributes(self, exc):
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)


class TestProcessPool:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_results_in_order_past_a_pipe_of_indices(self, workers):
        # 10,000 indices of 8 bytes would overfill a 64 KiB pipe if written up front
        items = list(range(10_000))
        assert map_workers(square, items, workers, processes=True) == [x * x for x in items]

    def test_more_workers_than_items(self):
        assert map_workers(square, [3], 4, processes=True) == [9]
        assert map_workers(square, [], 2, processes=True) == []

    def test_the_parent_runs_no_item_and_each_child_takes_the_last_first(self):
        runs = map_workers(started, list(range(40)), 2, processes=True)
        assert [x for x, _, _ in runs] == list(range(40))
        pids = {pid for _, pid, _ in runs}
        assert SESSION not in pids and len(pids) == 2
        for pid in pids:
            mine = sorted((t, x) for x, p, t in runs if p == pid)
            assert [x for _, x in mine] == sorted((x for _, x in mine), reverse=True)

    def test_first_failing_item_raises_its_exception_unchanged(self):
        with pytest.raises(errors.InvalidParam) as info:
            map_workers(fail_at_3_and_7, list(range(10)), 2, processes=True)
        assert str(info.value) == "x=3 violates: must not be 3 or 7"
        assert (info.value.name, info.value.value) == ("x", 3)

    def test_an_exception_that_does_not_unpickle_arrives_by_name(self):
        with pytest.raises(RuntimeError, match=r"^TwoArguments: 0/1$"):
            map_workers(raise_two_arguments, [0, 1], 2, processes=True)

    def test_a_worker_that_dies_raises_and_leaves_no_child(self):
        with pytest.raises(RuntimeError, match=r"^worker process \d+ ended without a result \(exit code -9\)$"):
            map_workers(die_at_2, list(range(6)), 2, processes=True)
        assert_no_child()

    def test_children_leave_the_parents_buffers_unflushed(self, tmp_path):
        # a child that left through the interpreter's exit would flush its copy of the buffer too
        path = tmp_path / "buffered.txt"
        with open(path, "w") as fh:
            fh.write("once\n")
            assert map_workers(square, list(range(4)), 2, processes=True) == [0, 1, 4, 9]
        assert path.read_text() == "once\n"
        assert_no_child()

    def test_without_fork_the_items_run_in_line(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert map_workers(started, [0, 1], 2, processes=True)[1][1] == SESSION
