"""Load generator: bit-identical determinism, queueing math, SLO logic.

The unit tests here never touch a wall clock or a socket: the inline
discrete-event engine plus :class:`FakeClock`/:class:`FakeTransport`
make a whole load run a pure function of the :class:`TrafficSpec` seed.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.obs.metrics import REGISTRY
from repro.scenarios.errors import ScenarioError
from repro.scenarios.load import (
    FakeClock,
    FakeTransport,
    LoadReport,
    arrival_schedule,
    evaluate_slo,
    find_saturation,
    request_row_indices,
    run_load,
    summarize,
)
from repro.scenarios.schema import SLOSpec, TrafficSpec


def _traffic(**overrides) -> TrafficSpec:
    base = dict(
        mode="open",
        n_requests=200,
        rate_rps=100.0,
        concurrency=4,
        rows_per_request=1,
        seed=42,
        timeout_s=10.0,
    )
    base.update(overrides)
    return TrafficSpec(**base)


def _counter(name: str) -> float:
    metric = REGISTRY.get(name)
    return float(metric.value) if metric is not None else 0.0


# ----------------------------------------------------------------------
# arrival schedule + row plan
# ----------------------------------------------------------------------
def test_arrival_schedule_is_bit_identical():
    traffic = _traffic()
    first = arrival_schedule(traffic)
    second = arrival_schedule(traffic)
    assert np.array_equal(first, second)
    assert first.shape == (traffic.n_requests,)
    assert np.all(np.diff(first) >= 0)


def test_arrival_schedule_depends_on_seed_and_rate():
    base = arrival_schedule(_traffic(seed=1))
    assert not np.array_equal(base, arrival_schedule(_traffic(seed=2)))
    slower = arrival_schedule(_traffic(seed=1, rate_rps=10.0))
    assert slower[-1] > base[-1]  # lower rate stretches the schedule


def test_arrival_schedule_mean_gap_tracks_rate():
    traffic = _traffic(n_requests=5000, rate_rps=250.0)
    gaps = np.diff(np.concatenate([[0.0], arrival_schedule(traffic)]))
    assert np.mean(gaps) == pytest.approx(1.0 / 250.0, rel=0.1)


def test_request_row_indices_plan():
    traffic = _traffic(n_requests=10, rows_per_request=3)
    plan = request_row_indices(traffic, 7)
    assert plan.shape == (10, 3)
    assert plan.min() >= 0 and plan.max() < 7
    # 30 draws over 7 rows wraps around: every row gets used
    assert set(np.unique(plan)) == set(range(7))
    assert np.array_equal(plan, request_row_indices(traffic, 7))


def test_request_row_indices_needs_rows():
    with pytest.raises(ScenarioError):
        request_row_indices(_traffic(), 0)


# ----------------------------------------------------------------------
# deterministic end-to-end runs (inline engine, fake clock)
# ----------------------------------------------------------------------
def _inline_run(traffic: TrafficSpec, **kwargs) -> LoadReport:
    return run_load(
        traffic,
        kwargs.pop("transport", FakeTransport(service_s=0.001)),
        clock=FakeClock(),
        workers="inline",
        **kwargs,
    )


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_inline_run_is_bit_identical(mode):
    traffic = _traffic(mode=mode, n_requests=300)
    first = _inline_run(traffic)
    second = _inline_run(traffic)
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )
    assert first.n_requests == 300
    assert first.status_counts == {"200": 300}
    assert first.error_rate == 0.0


def test_inline_engine_never_sleeps_wall_clock():
    # 2000 requests at 5 rps is ~400 simulated seconds; the inline engine
    # with a fake clock must get through it in real milliseconds.
    traffic = _traffic(n_requests=2000, rate_rps=5.0)
    started = time.perf_counter()
    report = _inline_run(traffic)
    assert time.perf_counter() - started < 5.0
    assert report.duration_s > 300.0  # simulated time actually advanced
    assert report.throughput_rps == pytest.approx(5.0, rel=0.2)


def test_open_loop_underload_latency_is_service_time():
    # 1 ms service at 10 rps: ~1% utilisation, so the median request
    # never queues and client latency equals the service time.
    traffic = _traffic(n_requests=500, rate_rps=10.0)
    report = _inline_run(traffic)
    assert report.latency_ms["p50"] == pytest.approx(1.0)
    assert report.latency_ms["max"] < 20.0


def test_open_loop_overload_builds_queueing_delay():
    # Same 1 ms server offered 2000 rps (utilisation 2.0): the FIFO queue
    # grows without bound and tail latency dwarfs the underloaded run.
    under = _inline_run(_traffic(n_requests=400, rate_rps=100.0))
    over = _inline_run(_traffic(n_requests=400, rate_rps=2000.0))
    assert over.latency_ms["p99"] > 10 * under.latency_ms["p99"]
    assert over.latency_ms["p99"] > 50.0


def test_closed_loop_throughput_is_bounded_by_the_server():
    # Closed loop adapts to the server: four workers against a 1 ms FIFO
    # server sustain ~1000 rps no matter the nominal rate_rps.
    traffic = _traffic(mode="closed", n_requests=400, concurrency=4)
    report = _inline_run(traffic)
    assert report.offered_rps is None  # offered rate is a meaningless knob here
    assert report.throughput_rps == pytest.approx(1000.0, rel=0.05)


def test_error_statuses_are_counted_and_judged():
    traffic = _traffic(mode="closed", n_requests=40, concurrency=2)
    transport = FakeTransport(
        service_s=0.001, status_fn=lambda i: 429 if i % 4 == 0 else 200
    )
    report = run_load(
        traffic,
        transport,
        slo=SLOSpec(max_error_rate=0.0),
        clock=FakeClock(),
        workers="inline",
    )
    assert report.status_counts == {"200": 30, "429": 10}
    assert report.error_rate == pytest.approx(0.25)
    assert not report.ok
    assert any("error rate" in v for v in report.slo_violations)


@pytest.mark.parametrize("mode", ["open", "closed"])
def test_inline_engine_is_the_pool_simulator_at_one_worker(mode, monkeypatch):
    import repro.scenarios.load as load_module
    from repro.scenarios.sweep import simulate_pool

    traffic = _traffic(mode=mode, n_requests=300, rate_rps=400.0)

    def service(i):
        return 0.001 * (1 + i % 3)

    def status(i):
        return 503 if i % 7 == 0 else 200

    fake = FakeTransport(service_s=service, status_fn=status)
    sent = []

    class CountingTransport:
        def send(self, rows):
            sent.append(rows)
            return fake.send(rows)

    seen = {}
    real_summarize = load_module.summarize

    def spy(traffic, slo, latencies, statuses, duration):
        seen.update(latencies=list(latencies), statuses=list(statuses), duration=duration)
        return real_summarize(traffic, slo, latencies, statuses, duration)

    monkeypatch.setattr(load_module, "summarize", spy)
    clock = FakeClock()
    run_load(traffic, CountingTransport(), clock=clock, workers="inline")
    latencies, statuses, duration = simulate_pool(
        traffic, n_workers=1, service_s=service, dispatch_s=0.0, status_fn=status
    )
    assert len(sent) == traffic.n_requests
    assert seen == {"latencies": latencies, "statuses": statuses, "duration": duration}
    assert clock.now() == duration


def test_run_load_rejects_unknown_engine():
    with pytest.raises(ScenarioError, match="workers"):
        run_load(_traffic(), FakeTransport(), workers="bogus")


def test_run_load_feeds_obs_registry():
    before_req = _counter("loadgen.requests")
    before_err = _counter("loadgen.errors")
    before_runs = _counter("loadgen.runs")
    traffic = _traffic(mode="closed", n_requests=25, concurrency=1)
    transport = FakeTransport(status_fn=lambda i: 500 if i < 5 else 200)
    run_load(traffic, transport, clock=FakeClock(), workers="inline")
    assert _counter("loadgen.requests") - before_req == 25
    assert _counter("loadgen.errors") - before_err == 5
    assert _counter("loadgen.runs") - before_runs == 1


# ----------------------------------------------------------------------
# clocks
# ----------------------------------------------------------------------
def test_fake_clock_advances_without_waiting():
    clock = FakeClock(start=100.0)
    assert clock.now() == 100.0
    clock.sleep(2.5)
    clock.advance(0.5)
    assert clock.now() == 103.0
    clock.sleep(-1.0)  # negative sleeps must not rewind time
    assert clock.now() == 103.0


# ----------------------------------------------------------------------
# SLO evaluation + summarize
# ----------------------------------------------------------------------
def test_evaluate_slo_reports_each_violated_bound():
    latency = {"p50": 5.0, "p95": 40.0, "p99": 90.0}
    slo = SLOSpec(p50_ms=10.0, p95_ms=20.0, p99_ms=50.0, min_throughput_rps=500.0)
    violations = evaluate_slo(slo, latency, error_rate=0.0, throughput_rps=100.0)
    assert len(violations) == 3  # p95, p99, throughput — p50 is within bounds
    assert any("p95" in v for v in violations)
    assert any("p99" in v for v in violations)
    assert any("throughput" in v for v in violations)


def test_evaluate_slo_empty_when_met():
    slo = SLOSpec(p99_ms=100.0, max_error_rate=0.1)
    assert evaluate_slo(slo, {"p99": 50.0}, error_rate=0.05, throughput_rps=1.0) == []


def test_summarize_folds_raw_outcomes():
    traffic = _traffic(mode="closed", n_requests=4, rows_per_request=2)
    report = summarize(
        traffic,
        SLOSpec(),
        latencies_s=[0.001, 0.002, 0.003, 0.004],
        statuses=[200, 200, 200, 503],
        duration_s=2.0,
    )
    assert report.throughput_rps == pytest.approx(2.0)
    assert report.row_throughput_rps == pytest.approx(4.0)
    assert report.status_counts == {"200": 3, "503": 1}
    assert report.error_rate == pytest.approx(0.25)
    assert report.latency_ms["max"] == pytest.approx(4.0)
    round_tripped = json.loads(json.dumps(report.to_dict()))
    assert round_tripped["status_counts"] == {"200": 3, "503": 1}


# ----------------------------------------------------------------------
# saturation sweep
# ----------------------------------------------------------------------
def test_find_saturation_locates_the_knee():
    # A 2 ms FIFO server caps out at 500 rps.  Geometric steps from
    # 50 rps must pass while underloaded and break once oversubscribed,
    # deterministically under the fake clock.
    traffic = _traffic(n_requests=400, rate_rps=50.0)
    slo = SLOSpec(p99_ms=50.0)

    def sweep():
        return find_saturation(
            traffic,
            lambda: FakeTransport(service_s=0.002),
            slo=slo,
            clock=FakeClock(),
            workers="inline",
            start_rps=50.0,
            growth=2.0,
            max_steps=8,
        )

    result = sweep()
    assert result["saturation_rps"] is not None
    assert 50.0 <= result["saturation_rps"] < 800.0
    steps = result["steps"]
    assert steps[0]["offered_rps"] == 50.0
    assert not steps[0]["slo_violations"]  # underloaded step passes
    assert steps[-1]["slo_violations"]  # sweep stopped on a violation
    assert result["saturation_rps"] == steps[-2]["offered_rps"]
    # the whole sweep is deterministic, steps included
    assert json.dumps(sweep(), sort_keys=True) == json.dumps(result, sort_keys=True)


def test_find_saturation_validates_knobs():
    with pytest.raises(ScenarioError, match="growth"):
        find_saturation(_traffic(), FakeTransport, growth=1.0)
    with pytest.raises(ScenarioError, match="start_rps"):
        find_saturation(_traffic(), FakeTransport, start_rps=0.0)
