"""Self-time subtraction over nested spans."""

import pytest

from spans import Recorder, Span, covered, layer_totals, self_times


def span(name, start, end, parent=-1):
    return Span(name, start, end, parent, (), 0)


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        span("serve.handle", 0.0, 10.0),
        span("engine.impute_batch", 1.0, 6.0, parent=0),
        span("store.gather", 2.0, 3.0, parent=1),
        span("store.topk", 2.5, 4.0, parent=1),  # overlaps its sibling
        span("messages.encode", 8.0, 9.0, parent=0),
    ]
    selves = self_times(spans)
    assert selves[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selves[1] == pytest.approx(5.0 - 2.0)  # union of [2,3] and [2.5,4]
    assert selves[2] == pytest.approx(1.0)
    assert selves[4] == pytest.approx(1.0)
    # Self times of a tree add up to the root's duration.
    assert sum(selves) == pytest.approx(10.0 + 0.5)  # the overlap counts twice


def test_child_sticking_out_is_clipped():
    selves = self_times([span("a", 0.0, 4.0), span("b", 3.0, 6.0, parent=0)])
    assert selves[0] == pytest.approx(3.0)


def test_recorder_nests_real_calls():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap(lambda: None, "store.gather")

    def body():
        inner()
        inner()

    outer = recorder.wrap(body, "engine.impute_batch")
    outer()
    names = [s.name for s in recorder.spans]
    assert names == ["engine.impute_batch", "store.gather", "store.gather"]
    assert [s.parent for s in recorder.spans] == [-1, 0, 0]
    totals = layer_totals(recorder.spans, self_times(recorder.spans))
    assert totals["store.gather"]["calls"] == 2
    assert totals["store.gather"]["self"] == pytest.approx(2.0)
    # outer spans ticks 0..5; its children cover [1,2] and [3,4].
    assert totals["engine.impute_batch"]["self"] == pytest.approx(3.0)


def test_disabled_recorder_records_nothing():
    recorder = Recorder(enabled=False)
    assert recorder.wrap(lambda x: x + 1, "core.impute")(1) == 2
    assert recorder.spans == []


def test_spans_carry_request_ids():
    recorder = Recorder()
    recorder.set_requests([7, 8])
    recorder.wrap(lambda: None, "serve.handle")()
    assert recorder.spans[0].requests == (7, 8)
