"""repro-serve CLI: argument handling and a real subprocess boot."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.core.classifier import PrototypeClassifier
from repro.core.records import RecordEncoder
from repro.ml.pipeline import HDCFeaturePipeline
from repro.persist import save_artifact
from repro.serve.cli import build_parser, main

DIM = 1024


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, pima_r):
    encoder = RecordEncoder(specs=pima_r.specs, dim=DIM, seed=7)
    model = HDCFeaturePipeline(encoder, PrototypeClassifier(dim=DIM)).fit(
        pima_r.X, pima_r.y
    )
    path = tmp_path_factory.mktemp("artifacts") / "pima-prototype"
    save_artifact(model, path, meta={"dataset": "pima_r"})
    return path


def test_parser_defaults_match_serve_config():
    args = build_parser().parse_args(["--artifact", "x"])
    assert args.host == "127.0.0.1"
    assert args.port == 8100
    assert args.max_batch == 64
    assert args.log_requests is False


def test_artifact_flag_is_required(capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([])
    assert excinfo.value.code == 2


def test_missing_artifact_is_exit_2(tmp_path, capsys):
    assert main(["--artifact", str(tmp_path / "nope")]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_config_is_exit_2(artifact, capsys):
    assert main(["--artifact", str(artifact), "--max-batch", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_subprocess_boot_and_predict(artifact, pima_r):
    """Boot `python -m repro.serve` on port 0 and exercise the endpoints."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--artifact", str(artifact), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"on (http://[\d.]+:\d+)", line)
        assert match, f"no serving banner in {line!r} (stderr: {proc.stderr.read()!r})"
        url = match.group(1)
        assert "HDCFeaturePipeline" in line and "schema v1" in line

        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=2) as resp:
                    assert resp.status == 200
                break
            except OSError:
                time.sleep(0.1)
        else:
            pytest.fail("server never became healthy")

        body = json.dumps({"rows": pima_r.X[:2].tolist()}).encode("utf-8")
        req = urllib.request.Request(
            url + "/v1/predict", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            payload = json.loads(resp.read())
        assert payload["n"] == 2
        assert all(p in (0, 1) for p in payload["predictions"])

        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0  # Ctrl-C is a clean shutdown
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def test_subprocess_pool_sigterm_with_sigint_ignored(artifact):
    """SIGTERM stops a 2-worker pool cleanly even when SIGINT is ignored.

    This is exactly the state a non-interactive shell leaves a
    backgrounded ``repro-serve ... &`` in: SIGINT arrives as SIG_IGN, so
    Python never installs the Ctrl-C handler and ``kill -INT`` is a
    no-op.  Init systems, containers, and CI stop services with SIGTERM
    instead — the supervisor must exit 0 and take its forked workers
    (which hold the SO_REUSEPORT socket) down with it.
    """
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve",
         "--artifact", str(artifact), "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"on (http://[\d.]+:\d+)", line)
        assert match, f"no serving banner in {line!r} (stderr: {proc.stderr.read()!r})"
        url = match.group(1)

        deadline = time.time() + 15
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=2) as resp:
                    assert resp.status == 200
                break
            except OSError:
                time.sleep(0.1)
        else:
            pytest.fail("pool never became healthy")

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0

        # No orphaned worker may still be accepting on the shared port.
        deadline = time.time() + 10
        while time.time() < deadline:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=2):
                    time.sleep(0.1)  # a worker is still alive; give it a beat
            except OSError:
                break
        else:
            pytest.fail("workers survived the supervisor's SIGTERM shutdown")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _boot_pool(artifact, tmp_path, *extra):
    """Start `python -m repro.serve --workers 2`; return (proc, url).

    stderr goes to a file, not a pipe: orphaned workers would hold a pipe
    open and hang any read of it.  The pool runs in its own session so
    :func:`_kill_pool` can reap any worker that outlived a failed check.
    """
    env = dict(os.environ, PYTHONPATH="src")
    stderr_path = tmp_path / "serve.stderr"
    with open(stderr_path, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve",
             "--artifact", str(artifact), "--port", "0", "--workers", "2", *extra],
            stdout=subprocess.PIPE,
            stderr=stderr,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            start_new_session=True,
        )
    line = proc.stdout.readline()
    match = re.search(r"on (http://[\d.]+:\d+)", line)
    if not match:
        _kill_pool(proc)
        pytest.fail(f"no serving banner in {line!r} (stderr: {stderr_path.read_text()!r})")
    return proc, match.group(1)


def _kill_pool(proc):
    """SIGKILL the pool's whole session: supervisor and any worker left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


def _port_closes(url, timeout):
    """True once nothing accepts on ``url`` any more (within ``timeout`` s)."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(url + "/healthz", timeout=2):
                time.sleep(0.1)
        except OSError:
            return True
    return False


def _live_children(pid):
    """Pids whose parent is ``pid`` and that have not exited (Linux /proc)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, ppid = fields[0], int(fields[1])
        if ppid == pid and state != "Z":
            kids.append(int(entry))
    return kids


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_pool_sigterm_on_banner_line_exits_cleanly(artifact, tmp_path):
    """SIGTERM sent the moment the banner appears still stops the pool.

    The handler is installed before the pool boots, so a SIGTERM that
    lands before the blocking loop is waiting must not kill the
    supervisor outright (exit -15) and leave its workers serving.
    ``--watch-artifact`` hashes the artifact between the banner and that
    loop, which holds the window open long enough to hit every time.
    """
    for _ in range(5):
        proc, url = _boot_pool(artifact, tmp_path, "--watch-artifact")
        try:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
            assert _port_closes(url, timeout=10), "a worker outlived the supervisor"
        finally:
            _kill_pool(proc)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs Linux /proc")
def test_pool_workers_exit_when_supervisor_is_killed(artifact, tmp_path):
    """Workers notice a SIGKILLed supervisor at their next flush tick."""
    from repro.serve.pool import FLUSH_PERIOD_S

    proc, url = _boot_pool(artifact, tmp_path)
    workers = _live_children(proc.pid)
    try:
        assert len(workers) == 2
        os.kill(proc.pid, signal.SIGKILL)  # the supervisor only
        proc.wait(timeout=10)
        deadline = time.time() + 8 * FLUSH_PERIOD_S
        while time.time() < deadline and any(_alive(pid) for pid in workers):
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in workers), "orphaned workers still running"
        assert _port_closes(url, timeout=2)
    finally:
        _kill_pool(proc)
