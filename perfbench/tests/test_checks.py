"""The output checks must catch a wrong answer, and the command must fail.

The end-to-end tests run the real command in this process with a fault
planted between the program and the check (one flipped served label, one
flipped encoding bit), and check that the run counts a failed operation
and exits non-zero.  The process tests check that no server outlives a
run that failed partway.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import harness
import offline
import run
import serving

SHA = "a" * 64


def _body(predictions, sha=SHA, request_id="r1", n=None):
    return json.dumps(
        {
            "predictions": predictions,
            "n": len(predictions) if n is None else n,
            "model": {"kind": "HDCFeaturePipeline", "schema_version": 1, "artifact_sha": sha},
            "request_id": request_id,
        }
    ).encode()


def test_check_response_accepts_the_expected_answer():
    assert serving.check_response(200, _body([0, 1, 1]), "r1", (0, 1, 1), SHA) is None


@pytest.mark.parametrize(
    "status, body, needle",
    [
        (200, _body([0, 0, 1]), "row 1: predicted 0, expected 1"),
        (200, _body([0, 1]), "n=2"),
        (200, _body([0, 1, 1], n=3)[:-1], "not JSON"),
        (200, b"[0, 1, 1]", "not a JSON object"),
        (200, _body([0, 1, 1], sha="b" * 64), "artifact_sha"),
        (200, _body([0, 1, 1], request_id="r2"), "request_id"),
        (429, b'{"error": {"code": "queue_full"}}', "HTTP 429"),
        (None, b"", "HTTP None"),
    ],
)
def test_check_response_rejects_wrong_answers(status, body, needle):
    error = serving.check_response(status, body, "r1", (0, 1, 1), SHA)
    assert error is not None and needle in error


def _refs():
    rng = np.random.default_rng(0)
    return {
        name: (
            rng.integers(0, 2**63, size=(5, 3), dtype=np.uint64),
            rng.integers(0, 2, size=5),
        )
        for name in offline.DATASETS
    }


def test_check_pass_is_bit_exact():
    refs = _refs()
    result = {name: (p.copy(), y.copy()) for name, (p, y) in refs.items()}
    assert offline.check_pass(result, refs) is None
    result["pima_m"][0][3, 2] ^= np.uint64(1 << 40)
    assert "pima_m: encoding differs" in offline.check_pass(result, refs)
    result = {name: (p.copy(), y.copy()) for name, (p, y) in refs.items()}
    result["sylhet"][1][4] ^= 1
    assert "sylhet: LOO prediction 4" in offline.check_pass(result, refs)


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def test_one_flipped_served_label_fails_the_run(monkeypatch, capsys):
    check = serving.check_response
    calls = {"n": 0}

    def flip_fifth(status, body, request_id, expected, sha):
        calls["n"] += 1
        if calls["n"] == 5:
            payload = json.loads(body)
            payload["predictions"][0] = 1 - payload["predictions"][0]
            body = json.dumps(payload).encode()
        return check(status, body, request_id, expected, sha)

    monkeypatch.setattr(serving, "check_response", flip_fifth)
    monkeypatch.setattr(serving, "SETUP_SPAWNS", 1)
    code = run.main(["--workload", "serve_row", "--seed", "3", "--seconds", "1"])
    result = _last_json(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] > 10


def test_one_flipped_encoding_bit_fails_the_run(monkeypatch, capsys):
    from repro.core.records import RecordEncoder

    transform = RecordEncoder.transform
    calls = {"n": 0}

    def flip_one_bit(self, X, **kwargs):
        packed = transform(self, X, **kwargs)
        calls["n"] += 1
        if calls["n"] == 5:  # the second dataset of the first timed pass
            packed[7, 3] ^= np.uint64(1 << 11)
        return packed

    monkeypatch.setattr(RecordEncoder, "transform", flip_one_bit)
    code = run.main(["--workload", "paper_loo", "--seed", "3", "--seconds", "1"])
    out = capsys.readouterr().out
    result = _last_json(out)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == 1
    assert "pima_m: encoding differs from transform_reference (rows [7])" in out


def _gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_no_server_outlives_a_run_that_fails_partway(monkeypatch):
    started = []
    start = serving.ServerProcess.start

    def recording_start(self):
        started.append(self)
        return start(self)

    def broken_drive(*args, **kwargs):
        raise RuntimeError("client failed partway")

    monkeypatch.setattr(serving.ServerProcess, "start", recording_start)
    monkeypatch.setattr(serving, "drive", broken_drive)
    with pytest.raises(RuntimeError, match="partway"):
        run.main(["--workload", "serve_batch", "--seed", "1", "--seconds", "1"])
    assert len(started) == serving.SETUP_SPAWNS
    for server in started:
        assert server.proc.returncode is not None
        assert _gone(server.proc.pid)


def test_sigterm_to_the_benchmark_stops_its_server():
    proc = subprocess.Popen(
        [sys.executable, str(harness.HERE / "run.py"), "--workload", "serve_row",
         "--seed", "1", "--seconds", "60"],
        cwd=str(harness.ROOT), stdout=subprocess.PIPE, text=True,
    )
    try:
        pids = []
        deadline = time.monotonic() + 120
        while len(pids) < serving.SETUP_SPAWNS and time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith("server pid "):
                pids.append(int(line.split()[2]))
        assert len(pids) == serving.SETUP_SPAWNS
        time.sleep(3.0)  # inside the timed loop
        proc.send_signal(signal.SIGTERM)
        rest = proc.communicate(timeout=60)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"correct"' not in rest
    assert all(_gone(pid) for pid in pids)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(harness.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "tests"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_loo", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
