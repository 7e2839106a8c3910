"""Span lifecycle: nesting, disabled-mode no-ops, ingestion remapping."""

import os

import pytest

from repro import obs
from repro.obs.spans import NULL_SPAN, Tracer, _env_enabled


@pytest.fixture(autouse=True)
def clean_tracer():
    """Each test starts disabled with empty buffers and leaves them so."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestDisabledMode:
    def test_span_returns_shared_null_singleton(self):
        # Identity, not just equivalence: the disabled path must allocate
        # nothing per call site.
        assert obs.span("x") is NULL_SPAN
        assert obs.span("y", rows=3) is NULL_SPAN

    def test_null_span_is_inert(self):
        with obs.span("x") as s:
            assert s.set(rows=1) is s
        assert obs.spans() == []

    def test_env_gate_parsing(self, monkeypatch):
        for raw, expect in [
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("off", False),
        ]:
            monkeypatch.setenv("REPRO_OBS", raw)
            assert _env_enabled() is expect


class TestNesting:
    def test_parent_child_links(self):
        obs.enable()
        with obs.span("outer") as outer:
            with obs.span("inner"):
                pass
        recs = {r.name: r for r in obs.spans()}
        assert recs["inner"].parent_id == recs["outer"].span_id
        assert recs["outer"].parent_id is None
        # Children close first.
        assert [r.name for r in obs.spans()] == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        obs.enable()
        with obs.span("root"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        recs = {r.name: r for r in obs.spans()}
        assert recs["a"].parent_id == recs["root"].span_id
        assert recs["b"].parent_id == recs["root"].span_id

    def test_attrs_and_set(self):
        obs.enable()
        with obs.span("x", rows=5) as s:
            s.set(k=2)
        (rec,) = obs.spans()
        assert rec.attrs == {"rows": 5, "k": 2}
        assert rec.pid == os.getpid()
        assert rec.duration >= 0.0

    def test_current_span_id_tracks_stack(self):
        obs.enable()
        assert obs.current_span_id() is None
        with obs.span("x") as s:
            assert obs.current_span_id() == s.span_id
        assert obs.current_span_id() is None


class TestDrainAndIngest:
    def test_drain_clears(self):
        obs.enable()
        with obs.span("x"):
            pass
        assert len(obs.drain_spans()) == 1
        assert obs.spans() == []


class TestSpanHistogramFeed:
    def test_duration_lands_in_registry(self):
        obs.REGISTRY.reset()
        obs.enable()
        with obs.span("unit.test"):
            pass
        hist = obs.REGISTRY.get("span.unit.test.seconds")
        assert hist is not None and hist.count == 1
        obs.REGISTRY.reset()


class TestRunWithParent:
    def test_seeds_base_parent(self):
        obs.enable()

        def work():
            with obs.span("child"):
                pass
            return obs.current_span_id()

        with obs.span("root") as root:
            obs.run_with_parent(root.span_id, work)
        recs = {r.name: r for r in obs.spans()}
        assert recs["child"].parent_id == recs["root"].span_id

    def test_restores_previous_base(self):
        obs.enable()
        tracer_tls = obs.TRACER._tls
        obs.run_with_parent(123, lambda: None)
        assert tracer_tls.base_parent is None


class TestPrivateTracer:
    def test_tracers_are_independent(self):
        t = Tracer(enabled=True)
        with t.start("x", {}):
            pass
        assert [r.name for r in t.records()] == ["x"]
        assert obs.spans() == []
