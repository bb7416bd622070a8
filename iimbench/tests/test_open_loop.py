"""Open-loop due-time and lag accounting."""

import time

import pytest

from client import Record
from common import LagTracker
from loadgen import run_open_loop


class FakeConnection:
    """Answers instantly; ``stall`` seconds of send time per request."""

    def __init__(self, stall=0.0):
        self.stall = stall

    def send(self, request, kind, due=None, tag=None):
        record = Record(0, kind, due, tag)
        record.sent = time.perf_counter()
        time.sleep(self.stall)
        record.done = time.perf_counter()
        return record


def test_requests_are_due_on_schedule():
    lag = LagTracker()
    conn = FakeConnection()
    offsets = [0.0, 0.01, 0.02, 0.05]
    plan = [(o, conn, {}, "impute", i) for i, o in enumerate(offsets)]
    records, start = run_open_loop(plan, lag)
    assert [r.due - start for r in records] == pytest.approx(offsets)
    for record in records:
        assert record.sent >= record.due
        assert record.latency == record.done - record.due
    assert len(lag.lags) == len(offsets)
    assert lag.p99_ms() < 20.0


def test_a_stall_is_charged_to_the_requests_behind_it():
    lag = LagTracker()
    conn = FakeConnection(stall=0.05)
    plan = [(0.001 * i, conn, {}, "impute", i) for i in range(4)]
    records, _ = run_open_loop(plan, lag)
    # Each send blocks 50 ms, so later requests leave late and their
    # latency counts from when they were due, not from when they left.
    assert records[-1].sent - records[-1].due >= 0.14
    assert records[-1].latency >= 0.19
    assert lag.p99_ms() >= 140.0


def test_lag_is_never_negative():
    lag = LagTracker()
    lag.record(due=10.0, sent=9.0)
    lag.record(due=10.0, sent=10.5)
    assert lag.lags == [0.0, 0.5]
    assert LagTracker().p99_ms() == 0.0
