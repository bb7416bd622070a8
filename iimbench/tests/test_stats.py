"""Percentile rule and failure counting."""

import pytest

from common import Outcomes, percentile, samples_beyond, summarize, tail_percentile


def test_p99_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert tail_percentile(1000) == 99.0
    assert samples_beyond(999, 99.0) == 9
    assert tail_percentile(999) == 95.0


@pytest.mark.parametrize("n,expected", [
    (10000, 99.9), (1000, 99.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (99, 75.0), (40, 75.0), (39, None), (1, None),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_is_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(list(range(1, 1001)), 99) == 990


def test_summarize_reports_count_and_supported_tail():
    stats = summarize([float(i) for i in range(250)])
    assert stats["n"] == 250
    assert stats["tail_pct"] == 95.0
    assert stats["beyond"] >= 10
    assert "p99" not in stats
    assert "p99" in summarize([1.0] * 1000)


def test_failed_frac_counts_errors_overloaded_and_no_reply():
    outcomes = Outcomes()
    assert outcomes.add({"ok": True, "result": {}})
    assert not outcomes.add({"ok": False, "error": {"code": "overloaded"}})
    assert not outcomes.add({"ok": False, "error": {"code": "quota"}})
    assert not outcomes.add(None)
    assert outcomes.attempted == 4
    assert outcomes.failed == 3
    assert outcomes.errors == {"overloaded": 1, "quota": 1}
    assert outcomes.no_reply == 1
    assert outcomes.failed_frac == pytest.approx(0.75)


def test_failed_frac_of_nothing_is_zero():
    assert Outcomes().failed_frac == 0.0
