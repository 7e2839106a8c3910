"""repro-obs CLI: run a script under tracing, export JSON + Prometheus."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """\
import sys
from repro import obs
from repro.parallel import parallel_map


def work(x):
    with obs.span("worker.item", x=x):
        return x * x


with obs.span("stage.compute"):
    out = parallel_map(work, range(4), n_jobs=2)
assert out == [0, 1, 4, 9]
print("script-args:", sys.argv[1:])
"""


def run_cli(tmp_path, *extra, script_body=SCRIPT):
    script = tmp_path / "target.py"
    script.write_text(script_body, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_OBS", None)
    return subprocess.run(
        [sys.executable, "-m", "repro.obs", *extra, str(script)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )


class TestCli:
    def test_exports_json_and_prometheus(self, tmp_path):
        proc = run_cli(
            tmp_path, "--json", str(tmp_path / "trace.json"),
            "--prom", str(tmp_path / "metrics.prom"),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "trace.json").read_text())
        names = [s["name"] for s in doc["spans"]]
        assert "repro-obs" in names
        assert "stage.compute" in names
        assert names.count("worker.item") == 4
        prom = (tmp_path / "metrics.prom").read_text()
        assert 'repro_span_total{span="worker.item"} 4' in prom
        assert 'repro_span_seconds_total{span="repro-obs"}' in prom

    def test_coverage_summary_and_gate(self, tmp_path):
        proc = run_cli(tmp_path, "--min-coverage", "0.99")
        # stage.compute is essentially the whole script, but import time
        # sits outside it, so demand the summary rather than a pass.
        assert "direct-child coverage" in proc.stderr
        proc_ok = run_cli(tmp_path, "--min-coverage", "0.0")
        assert proc_ok.returncode == 0, proc_ok.stderr

    def test_script_exit_code_propagates(self, tmp_path):
        proc = run_cli(
            tmp_path, "--json", str(tmp_path / "trace.json"),
            script_body="import sys\nsys.exit(5)\n",
        )
        assert proc.returncode == 5
        # Exported anyway.
        assert (tmp_path / "trace.json").exists()

    def test_script_args_forwarded(self, tmp_path):
        script = tmp_path / "target.py"
        script.write_text("import sys\nprint(sys.argv[1:])\n", encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", str(script), "--alpha", "2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "['--alpha', '2']" in proc.stdout
