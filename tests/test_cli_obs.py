"""`repro metrics`, `repro top`, `repro traces`, `serve-bench --flight`.

The live-ops loop the runbook describes — slo-check, then top, then
traces — plus the Prometheus dump. Exit codes follow the repo-wide
convention: 0 ok, 3 on empty input, 1 on :class:`ReproError`.

`repro metrics` dumps the *process-global* registry, which a pytest
process has long since populated, so its empty-input leg must run in a
fresh interpreter.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_cli(argv, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


@pytest.fixture
def flight_bucket(tmp_path, capsys):
    """An indexed lake served once with the flight recorder on."""
    bucket = str(tmp_path / "bucket")
    assert main([
        "create-table", "--root", bucket, "--table", "lake/logs",
        "--schema", "request_id:binary",
        "--row-group-rows", "100", "--page-target-bytes", "1024",
    ]) == 0
    keys = [hashlib.sha256(f"k-{i}".encode()).digest()[:16] for i in range(200)]
    jsonl = tmp_path / "rows.jsonl"
    with open(jsonl, "w") as f:
        for key in keys:
            f.write(json.dumps({"request_id": key.hex()}) + "\n")
    assert main([
        "append", "--root", bucket, "--table", "lake/logs",
        "--jsonl", str(jsonl),
    ]) == 0
    assert main([
        "index", "--root", bucket, "--table", "lake/logs",
        "--index-dir", "idx/logs", "--column", "request_id",
        "--type", "uuid_trie",
    ]) == 0
    telemetry = str(tmp_path / "TELEMETRY_serve.json")
    assert main([
        "serve-bench", "--root", bucket, "--table", "lake/logs",
        "--index-dir", "idx/logs", "--column", "request_id",
        "--uuid", keys[3].hex(), "--repeat", "3", "--clients", "2",
        "--telemetry", telemetry, "--flight",
        # An impossibly tight p99 objective: every query breaches, so
        # the recorder retains traces for `top`/`traces` to surface.
        "--latency-p99-s", "1e-6",
    ]) == 0
    err = capsys.readouterr().err
    assert "flight recorder:" in err
    return bucket, telemetry


class TestMetricsCommand:
    def test_empty_registry_exits_three(self):
        # Fresh interpreter: no subsystem has recorded a sample yet.
        proc = _run_cli(["metrics"])
        assert proc.returncode == 3
        assert "empty input" in proc.stderr

    def test_dumps_prometheus_text_after_opening_lake(self, flight_bucket):
        bucket, _ = flight_bucket
        proc = _run_cli([
            "metrics", "--root", bucket, "--table", "lake/logs",
            "--index-dir", "idx/logs",
        ])
        assert proc.returncode == 0
        assert "# HELP" in proc.stdout
        assert "# TYPE store_requests_total counter" in proc.stdout


class TestTopCommand:
    def test_empty_store_exits_three(self, tmp_path, capsys):
        empty = tmp_path / "empty-bucket"
        empty.mkdir()
        assert main(["top", "--root", str(empty)]) == 3
        assert "empty input" in capsys.readouterr().err

    def test_renders_burn_rates_and_slowest_traces(
        self, flight_bucket, capsys
    ):
        bucket, _ = flight_bucket
        assert main(["top", "--root", bucket]) == 0
        out = capsys.readouterr().out
        assert "== burn rates ==" in out
        assert "== counters ==" in out
        assert "slowest retained traces" in out

    def test_telemetry_file_alone_suffices(self, flight_bucket, capsys):
        _, telemetry = flight_bucket
        assert main(["top", "--telemetry", telemetry]) == 0
        assert "queries" in capsys.readouterr().out


class TestTracesCommand:
    def test_unknown_trace_id_is_repro_error(self, flight_bucket, capsys):
        bucket, _ = flight_bucket
        assert main(["traces", "ffffffffffffffff", "--root", bucket]) == 1
        assert "error:" in capsys.readouterr().err


class TestUnreadableFlight:
    """A flight object of a foreign schema (an older build's) or corrupt
    JSON is skipped by `top` / `dashboard` and is a one-line error for
    `traces`, never a traceback."""

    @pytest.fixture
    def bucket(self, flight_bucket):
        bucket, telemetry = flight_bucket
        flights = os.path.join(bucket, "obs", "_flights")
        with open(os.path.join(flights, "deadbeef.json"), "w") as f:
            json.dump({"schema": "repro.obs.flight/v0"}, f)
        with open(os.path.join(flights, "0badc0de.json"), "w") as f:
            f.write("{not json")
        return bucket, telemetry

    def test_top_skips_and_counts(self, bucket, capsys):
        assert main(["top", "--root", bucket[0]]) == 0
        out, err = capsys.readouterr()
        assert "skipped 2 unreadable flight trace(s)" in err
        assert "slowest retained traces" in out

    def test_dashboard_skips_and_counts(self, bucket, tmp_path, capsys):
        out_path = str(tmp_path / "dash.html")
        assert main([
            "dashboard", "--telemetry", bucket[1], "--root", bucket[0],
            "--out", out_path,
        ]) == 0
        assert "skipped 2 unreadable flight trace(s)" in capsys.readouterr().err

    def test_traces_is_a_one_line_error(self, bucket, capsys):
        assert main(["traces", "deadbeef", "--root", bucket[0]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unreadable flight trace")
        assert err.count("\n") == 1


class TestServeBenchFlight:
    def test_commits_snapshot_into_the_plane(self, flight_bucket):
        bucket, _ = flight_bucket
        snaps = os.listdir(os.path.join(bucket, "obs", "_snapshots"))
        assert len([k for k in snaps if k.endswith(".json")]) == 1

    def test_dashboard_root_gains_cross_run_panel(
        self, flight_bucket, tmp_path, capsys
    ):
        bucket, telemetry = flight_bucket
        out_path = str(tmp_path / "dash.html")
        assert main([
            "dashboard", "--telemetry", telemetry, "--root", bucket,
            "--out", out_path,
        ]) == 0
        with open(out_path) as f:
            doc = f.read()
        assert "Cross-run" in doc
