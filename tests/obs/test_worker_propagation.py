"""Worker span propagation through repro.parallel.parallel_map.

The contract: spans recorded inside worker threads nest under the span
that was active in the dispatching thread, and disarmed tracing records
nothing.  Results must be bit-identical to the serial path.
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
            out = parallel_map(traced_square, range(6), n_jobs=3)
        assert out == [x * x for x in range(6)]
        items = [r for r in obs.spans() if r.name == "worker.item"]
        assert len(items) == 6
        assert all(r.parent_id == root.span_id for r in items)

    def test_disabled_mode_records_nothing(self):
        out = parallel_map(traced_square, range(4), n_jobs=2)
        assert out == [x * x for x in range(4)]
        assert obs.spans() == []
        assert obs.REGISTRY.collect() == {}


class TestEncoderOnThreads:
    def test_transform_spans_and_results_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(64, 4))
        specs = infer_feature_specs(X)
        baseline = RecordEncoder(specs=specs, dim=256, seed=11).fit(X).transform(X)
        enc = RecordEncoder(specs=specs, dim=256, seed=11, n_jobs=2, chunk_rows=16)
        enc.fit(X)

        obs.enable()
        with obs.span("root") as root:
            packed = enc.transform(X)
        np.testing.assert_array_equal(packed, baseline)

        records = obs.spans()
        chunks = [r for r in records if r.name == "encode.count_chunk"]
        assert len(chunks) == 4
        transform = next(r for r in records if r.name == "encode.transform")
        assert transform.parent_id == root.span_id
        # Worker-thread chunk spans nest under the transform span.
        assert all(r.parent_id == transform.span_id for r in chunks)
