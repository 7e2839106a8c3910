"""Worker span propagation through repro.parallel.parallel_map.

The contract: spans recorded inside workers (threads or processes) land
in the dispatching process's tracer, re-parented under the span that was
active at dispatch time, with unique ids — and worker metric deltas are
folded into the parent registry.  Results must be bit-identical to the
serial path in every mode.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.records import RecordEncoder, infer_feature_specs
from repro.parallel import parallel_map


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    obs.REGISTRY.reset()
    yield
    obs.disable()
    obs.reset()
    obs.REGISTRY.reset()


def traced_square(x):
    with obs.span("worker.item", x=x):
        return x * x


class TestThreadBackend:
    def test_worker_spans_adopt_dispatch_parent(self):
        obs.enable()
        with obs.span("root") as root:
            out = parallel_map(traced_square, range(6), n_jobs=3, backend="threads")
        assert out == [x * x for x in range(6)]
        items = [r for r in obs.spans() if r.name == "worker.item"]
        assert len(items) == 6
        assert all(r.parent_id == root.span_id for r in items)


class TestProcessBackend:
    def test_round_trip_spans_and_metrics(self):
        obs.enable()
        with obs.span("root") as root:
            out = parallel_map(
                traced_square, range(4), n_jobs=2, backend="processes"
            )
        assert out == [x * x for x in range(4)]
        records = obs.spans()
        items = [r for r in records if r.name == "worker.item"]
        assert len(items) == 4
        # Re-parented under the dispatch-time active span.
        assert all(r.parent_id == root.span_id for r in items)
        # Remapped ids stay unique across the whole trace.
        ids = [r.span_id for r in records]
        assert len(ids) == len(set(ids))
        # Worker-side histogram deltas merged into the parent registry.
        hist = obs.REGISTRY.get("span.worker.item.seconds")
        assert hist is not None and hist.count == 4

    def test_disabled_mode_records_nothing(self):
        out = parallel_map(traced_square, range(4), n_jobs=2, backend="processes")
        assert out == [x * x for x in range(4)]
        assert obs.spans() == []
        assert obs.REGISTRY.collect() == {}


class TestEncoderUnderProcessBackend:
    def test_transform_spans_and_results_round_trip(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(64, 4))
        specs = infer_feature_specs(X)
        baseline = RecordEncoder(specs=specs, dim=256, seed=11).fit(X).transform(X)
        enc = RecordEncoder(specs=specs, dim=256, seed=11, n_jobs=2, chunk_rows=16)
        enc.fit(X)

        obs.enable()
        monkeypatch.setenv("REPRO_BACKEND", "processes")
        with obs.span("root") as root:
            packed = enc.transform(X)
        np.testing.assert_array_equal(packed, baseline)

        records = obs.spans()
        names = {r.name for r in records}
        assert "encode.transform" in names
        chunks = [r for r in records if r.name == "encode.count_chunk"]
        assert len(chunks) == 4
        transform = next(r for r in records if r.name == "encode.transform")
        assert transform.parent_id == root.span_id
        # Worker chunk spans re-attach under the transform span and carry
        # the worker pids (proof they really crossed the process boundary).
        assert all(r.parent_id == transform.span_id for r in chunks)
