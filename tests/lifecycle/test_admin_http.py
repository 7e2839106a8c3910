"""The live admin surface: reload, candidate routing, feedback over HTTP.

Each test boots a real :class:`~repro.serve.ModelServer` from a
persisted artifact (with a ``train_centroid`` extra, so drift arms) and
drives ``/v1/admin/*`` exactly as an operator would — including the
failure paths, which must return the structured error schema and leave
the old primary serving.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.lifecycle import training_centroid
from repro.ml.pipeline import HDCFeaturePipeline
from repro.persist import MANIFEST_NAME, artifact_sha, save_artifact
from repro.serve import ModelServer, ServeConfig

DIM = 512


def _build_artifact(pima_r, path, seed):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=seed)
    pipe = HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )
    save_artifact(
        pipe,
        path,
        extras={"train_centroid": training_centroid(pipe.encoder_, pima_r.X)},
    )
    return path


@pytest.fixture(scope="module")
def artifact_a(pima_r, tmp_path_factory):
    return _build_artifact(pima_r, tmp_path_factory.mktemp("admin") / "a", seed=7)


@pytest.fixture(scope="module")
def artifact_b(pima_r, tmp_path_factory):
    return _build_artifact(pima_r, tmp_path_factory.mktemp("admin") / "b", seed=11)


@pytest.fixture()
def server(artifact_a):
    config = ServeConfig(port=0, max_rows_per_request=64)
    with ModelServer.from_artifact(artifact_a, config) as srv:
        yield srv


def _post(url, payload):
    data = b"" if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _predict_sha(srv, pima_r):
    status, body = _post(
        srv.url + "/v1/predict", {"rows": pima_r.X[:2].tolist()}
    )
    assert status == 200
    return body["model"]["artifact_sha"]


# -- hot-swap reload ---------------------------------------------------


def test_reload_with_empty_body_rereads_the_served_artifact(
    server, artifact_a, pima_r
):
    status, body = _post(server.url + "/v1/admin/reload", None)
    assert status == 200
    assert body["generation"] == 1
    assert body["model"]["artifact_sha"] == artifact_sha(artifact_a)
    assert body["artifact"] == str(artifact_a)
    assert _predict_sha(server, pima_r) == artifact_sha(artifact_a)


def test_reload_swaps_envelopes_to_the_new_sha(
    server, artifact_a, artifact_b, pima_r
):
    assert _predict_sha(server, pima_r) == artifact_sha(artifact_a)
    status, body = _post(
        server.url + "/v1/admin/reload", {"artifact": str(artifact_b)}
    )
    assert status == 200
    assert body["model"]["artifact_sha"] == artifact_sha(artifact_b)
    assert _predict_sha(server, pima_r) == artifact_sha(artifact_b)
    status, lifecycle = _get(server.url + "/v1/admin/lifecycle")
    assert status == 200
    assert lifecycle["generation"] == 1
    assert lifecycle["primary"]["path"] == str(artifact_b)


def test_failed_reload_is_400_and_keeps_the_old_primary(
    server, artifact_a, pima_r, tmp_path
):
    status, body = _post(
        server.url + "/v1/admin/reload", {"artifact": str(tmp_path / "nope")}
    )
    assert status == 400
    assert body["error"]["code"] == "reload_failed"
    # Traffic is untouched: the previous primary still serves.
    assert _predict_sha(server, pima_r) == artifact_sha(artifact_a)


def test_reload_of_stale_params_is_400_and_keeps_the_old_primary(
    server, artifact_a, pima_r, tmp_path
):
    # An artifact whose classifier params name a constructor argument
    # this build no longer takes (an older build's ``shards``).
    stale = _build_artifact(pima_r, tmp_path / "stale", seed=13)
    manifest_path = stale / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    estimator = manifest["state"]["state"]["items"]["estimator"]
    estimator["state"]["items"]["params"]["items"]["shards"] = 1
    manifest_path.write_text(json.dumps(manifest))
    status, body = _post(server.url + "/v1/admin/reload", {"artifact": str(stale)})
    assert status == 400
    assert body["error"]["code"] == "reload_failed"
    assert "shards" in body["error"]["message"]
    assert _predict_sha(server, pima_r) == artifact_sha(artifact_a)


# -- candidate routing -------------------------------------------------


def test_shadow_candidate_mirrors_without_touching_responses(
    server, artifact_a, artifact_b, pima_r
):
    status, body = _post(
        server.url + "/v1/admin/candidate",
        {"action": "mount", "artifact": str(artifact_b), "mode": "shadow"},
    )
    assert status == 200
    assert body["candidate"]["mode"] == "shadow"
    assert body["candidate"]["artifact_sha"] == artifact_sha(artifact_b)
    # Primary responses keep the primary's identity while traffic mirrors.
    for _ in range(4):
        assert _predict_sha(server, pima_r) == artifact_sha(artifact_a)
    deadline = time.monotonic() + 10.0
    shadow = {}
    while time.monotonic() < deadline:
        _, lifecycle = _get(server.url + "/v1/admin/lifecycle")
        shadow = lifecycle["candidate"]["shadow"]
        if shadow["rows"] >= 8:
            break
        time.sleep(0.05)
    assert shadow["rows"] >= 8
    assert "disagreements" in lifecycle
    status, body = _post(
        server.url + "/v1/admin/candidate", {"action": "unmount"}
    )
    assert status == 200
    assert body == {"unmounted": True}
    _, lifecycle = _get(server.url + "/v1/admin/lifecycle")
    assert lifecycle["candidate"] is None


def test_ab_candidate_serves_its_fraction_with_its_own_sha(
    server, artifact_b, pima_r
):
    status, _ = _post(
        server.url + "/v1/admin/candidate",
        {
            "action": "mount",
            "artifact": str(artifact_b),
            "mode": "ab",
            "fraction": 1.0,
        },
    )
    assert status == 200
    # fraction=1.0: every request routes to the candidate, so envelopes
    # must report the candidate's artifact identity deterministically.
    for _ in range(3):
        assert _predict_sha(server, pima_r) == artifact_sha(artifact_b)


def test_promote_makes_the_candidate_primary(server, artifact_b, pima_r):
    _post(
        server.url + "/v1/admin/candidate",
        {"action": "mount", "artifact": str(artifact_b), "mode": "shadow"},
    )
    status, body = _post(
        server.url + "/v1/admin/candidate", {"action": "promote"}
    )
    assert status == 200
    assert body["generation"] == 1
    assert body["model"]["artifact_sha"] == artifact_sha(artifact_b)
    assert _predict_sha(server, pima_r) == artifact_sha(artifact_b)
    _, lifecycle = _get(server.url + "/v1/admin/lifecycle")
    assert lifecycle["candidate"] is None
    assert lifecycle["primary"]["generation"] == 1


def test_promote_without_candidate_is_400(server):
    status, body = _post(
        server.url + "/v1/admin/candidate", {"action": "promote"}
    )
    assert status == 400
    assert body["error"]["code"] == "reload_failed"


def test_candidate_payload_validation(server):
    status, body = _post(server.url + "/v1/admin/candidate", {"action": "mount"})
    assert status == 400
    assert body["error"]["code"] == "invalid_request"
    status, body = _post(
        server.url + "/v1/admin/candidate", {"action": "sideload"}
    )
    assert status == 400
    assert "unknown candidate action" in body["error"]["message"]


# -- drift + feedback --------------------------------------------------


def test_lifecycle_status_reports_armed_drift(server, pima_r):
    for _ in range(2):
        _predict_sha(server, pima_r)
    status, lifecycle = _get(server.url + "/v1/admin/lifecycle")
    assert status == 200
    drift = lifecycle["drift"]
    assert drift["armed"] is True
    # In-distribution traffic scores close to the training centroid.
    deadline = time.monotonic() + 10.0
    while drift["distance"] is None and time.monotonic() < deadline:
        time.sleep(0.05)
        _, lifecycle = _get(server.url + "/v1/admin/lifecycle")
        drift = lifecycle["drift"]
    assert drift["distance"] is not None
    assert drift["alert"] is False


def test_feedback_accumulates_and_builds_a_candidate(server, pima_r, tmp_path):
    rows0 = pima_r.X[pima_r.y == 0][:16]
    rows1 = pima_r.X[pima_r.y == 1][:16]
    status, body = _post(
        server.url + "/v1/admin/feedback",
        {"rows": rows0.tolist(), "labels": [0] * 16},
    )
    assert status == 200
    assert body == {"rows": 16, "total": 16, "ready": False}
    # One class is not enough to snapshot a candidate yet.
    status, body = _post(
        server.url + "/v1/admin/feedback",
        {"build": str(tmp_path / "follow-up")},
    )
    assert status == 400
    assert body["error"]["code"] == "reload_failed"
    status, body = _post(
        server.url + "/v1/admin/feedback",
        {"rows": rows1.tolist(), "labels": [1] * 16},
    )
    assert status == 200
    assert body["ready"] is True
    _, lifecycle = _get(server.url + "/v1/admin/lifecycle")
    assert lifecycle["follow_up"]["rows"] == 32
    status, body = _post(
        server.url + "/v1/admin/feedback",
        {"build": str(tmp_path / "follow-up"), "mount": True},
    )
    assert status == 200
    assert body["artifact"] == str(tmp_path / "follow-up")
    assert body["candidate"]["artifact_sha"] == artifact_sha(
        tmp_path / "follow-up"
    )
    # The built candidate really serves: promote it and predict.
    status, _ = _post(server.url + "/v1/admin/candidate", {"action": "promote"})
    assert status == 200
    status, out = _post(
        server.url + "/v1/predict", {"rows": pima_r.X[:4].tolist()}
    )
    assert status == 200
    assert len(out["predictions"]) == 4


def test_feedback_payload_validation(server, pima_r):
    status, body = _post(
        server.url + "/v1/admin/feedback", {"rows": pima_r.X[:2].tolist()}
    )
    assert status == 400
    assert body["error"]["code"] == "invalid_request"
    status, body = _post(
        server.url + "/v1/admin/feedback",
        {"rows": pima_r.X[:2].tolist(), "labels": [0]},
    )
    assert status == 400
    assert body["error"]["code"] == "invalid_request"
    status, body = _post(server.url + "/v1/admin/feedback", {"other": 1})
    assert status == 400
    assert body["error"]["code"] == "invalid_request"
