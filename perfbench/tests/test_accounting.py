"""Unit tests: the tail-percentile rule, failure accounting, self time."""

import json
import math

import pytest

import harness
import tracing
from harness import Outcome, Result


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (20, 50.0, 10),  # the smallest sample with any supported tail
        (99, 50.0, 49),  # p90 would leave only 9 beyond
        (100, 90.0, 10),
        (168, 90.0, 16),
        (410, 90.0, 41),
        (999, 90.0, 99),  # p99 would leave only 9 beyond
        (1000, 99.0, 10),
        (10_000, 99.9, 10),
    ],
)
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(1, n + 1)]
    p, value, got_beyond = harness.tail_percentile(samples[::-1])
    assert (p, got_beyond) == (percentile, beyond)
    # Nearest rank: exactly `beyond` samples are larger than the value.
    assert sum(s > value for s in samples) == beyond


def test_tail_of_a_sample_too_small_is_its_maximum():
    assert harness.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert harness.tail_percentile([float(i) for i in range(19)]) == (100.0, 18.0, 0)


def test_tail_rejects_an_empty_sample():
    with pytest.raises(ValueError):
        harness.tail_percentile([])


def test_failed_operations_count_as_attempted_and_miss_every_latency_limit():
    outcome = Outcome(wall_s=2.0)
    for _ in range(7):
        outcome.add(0.010, 4, None)
    outcome.add(0.001, 4, "HTTP 500")
    outcome.add(0.002, 4, "row 0: predicted 1, expected 0")
    outcome.add(0.003, 4, "transport error")
    assert (outcome.attempted, outcome.failed, outcome.completed) == (10, 3, 7)
    assert outcome.rows == 28  # rows of successful operations only
    assert sum(math.isinf(x) for x in outcome.latencies_s) == 3
    assert outcome.reasons[1].startswith("row 0")
    metrics, notes = harness.end_to_end_metrics(outcome, setup_s=1.5, peak_rss_mb=10.0)
    assert metrics["throughput_ops_s"] == (3.5, "1/s")
    assert metrics["rows_per_s"] == (14.0, "rows/s")
    # The fast failures do not pull the median down.
    assert metrics["latency_p50_ms"][0] == pytest.approx(10.0)
    assert any("failed_ratio = 0.3 (3/10" in note for note in notes)


def test_majority_failures_push_latency_to_infinity():
    outcome = Outcome(wall_s=1.0)
    outcome.add(0.010, 1, None)
    outcome.add(0.010, 1, "HTTP 429")
    outcome.add(0.010, 1, "HTTP 429")
    metrics, _ = harness.end_to_end_metrics(outcome, setup_s=1.0, peak_rss_mb=1.0)
    assert math.isinf(metrics["latency_p50_ms"][0])


def test_merge_sums_phases():
    a, b = Outcome(wall_s=1.0), Outcome(wall_s=2.0)
    a.add(0.1, 2, None)
    b.add(0.1, 2, "boom")
    a.merge(b)
    assert (a.attempted, a.failed, a.rows, a.wall_s, a.reasons) == (2, 1, 2, 3.0, ["boom"])


def test_result_line_is_last_and_marks_failures(capsys):
    outcome = Outcome(wall_s=1.0)
    outcome.add(0.010, 1, None)
    outcome.add(0.010, 1, "wrong label")
    metrics, notes = harness.end_to_end_metrics(outcome, setup_s=0.5, peak_rss_mb=1.0)
    result = Result(metrics, notes, outcome.attempted, outcome.failed)
    assert not result.correct
    harness.emit(result)
    lines = capsys.readouterr().out.strip().splitlines()
    line = json.loads(lines[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    assert line["metrics"]["latency_tail_ms"] == {"value": None, "unit": "ms"}
    assert "metric setup_s = 0.5 s" in lines


def test_layer_metrics_lists_every_layer_and_rejects_unknown_names():
    out = harness.layer_metrics({"serve.http.self_ms": 2.5})
    assert list(out) == list(harness.PER_LAYER)
    assert out["serve.http.self_ms"] == (2.5, "ms")
    assert out["core.records.fit_ms"] == (0.0, "ms")
    with pytest.raises(KeyError):
        harness.layer_metrics({"serve.http.selfms": 1.0})


def test_overhead_is_lost_throughput_share():
    assert harness.overhead_pct(100.0, 95.0) == pytest.approx(5.0)
    assert harness.overhead_pct(100.0, 101.0) == pytest.approx(-1.0)


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    children = [
        {"start": 1.0, "end": 3.0},
        {"start": 2.0, "end": 4.0},  # overlaps the first
        {"start": 9.0, "end": 12.0},  # runs past the parent's end
        {"start": 20.0, "end": 21.0},  # outside the parent
    ]
    assert tracing.self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0)
    assert tracing.self_time(parent, []) == pytest.approx(10.0)


def test_recorder_nests_spans_per_thread():
    rec = tracing.SpanRecorder()
    with rec.span("outer", request_id="r1"):
        inner = rec.wrap(lambda x: x + 1, "inner", attrs=lambda x: {"rows": x})
        assert inner(4) == 5
    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["inner"]["rows"] == 4
    assert by_name["outer"]["parent"] is None
    assert by_name["outer"]["request_id"] == "r1"
    assert tracing.children_index(rec.spans)[by_name["outer"]["id"]] == [by_name["inner"]]
