"""`repro profile`: the attributed bill through the real CLI."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import main


@pytest.fixture
def indexed_bucket(tmp_path, capsys):
    """Disk-backed lake with an indexed binary column, built via CLI."""
    bucket = str(tmp_path / "bucket")
    assert main([
        "create-table", "--root", bucket, "--table", "lake/logs",
        "--schema", "request_id:binary,message:string",
        "--row-group-rows", "100", "--page-target-bytes", "1024",
    ]) == 0
    jsonl = tmp_path / "rows.jsonl"
    keys = [hashlib.sha256(f"k-{i}".encode()).digest()[:16] for i in range(300)]
    with open(jsonl, "w") as f:
        for i, key in enumerate(keys):
            f.write(json.dumps(
                {"request_id": key.hex(), "message": f"event {i}"}
            ) + "\n")
    assert main([
        "append", "--root", bucket, "--table", "lake/logs",
        "--jsonl", str(jsonl),
    ]) == 0
    assert main([
        "index", "--root", bucket, "--table", "lake/logs",
        "--index-dir", "idx/logs", "--column", "request_id",
        "--type", "uuid_trie",
    ]) == 0
    capsys.readouterr()  # drop setup output
    return bucket, keys


def test_profile_prints_bill_and_reconciles(indexed_bucket, capsys):
    bucket, keys = indexed_bucket
    code = main([
        "profile", "--root", bucket, "--table", "lake/logs",
        "--index-dir", "idx/logs", "--column", "request_id",
        "--uuid", keys[7].hex(), "-k", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    # Timeline with the phase spans...
    assert "search" in out
    assert "plan" in out
    assert "\n  probe " in out  # the fused per-record phase span
    assert "probe:index" not in out  # the split phases are scoring-only
    # ...the bill table...
    assert "per-query bill" in out
    assert "\nprobe " in out
    assert "index_probe" not in out
    assert "total cost" in out
    # ...and the acceptance criterion, verified by the command itself.
    assert "[exact]" in out
    assert "MISMATCH" not in out


def test_profile_prints_critical_path_and_tail_line(indexed_bucket, capsys):
    bucket, keys = indexed_bucket
    code = main([
        "profile", "--root", bucket, "--table", "lake/logs",
        "--index-dir", "idx/logs", "--column", "request_id",
        "--uuid", keys[5].hex(), "--repeat", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "critical path (follow the last-finishing child):" in out
    # The tail-attribution headline compares the batch's tail vs median.
    assert "is dominated by" in out
    assert "p50 is" in out
    # Reconciliation still holds when the bill aggregates 3 runs.
    assert "[exact]" in out


def test_profile_executor_path_and_spans_dump(indexed_bucket, capsys, tmp_path):
    bucket, keys = indexed_bucket
    spans_path = tmp_path / "spans.jsonl"
    code = main([
        "profile", "--root", bucket, "--table", "lake/logs",
        "--index-dir", "idx/logs", "--column", "request_id",
        "--uuid", keys[3].hex(), "--max-searchers", "4",
        "--spans", str(spans_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[exact]" in out
    rows = [json.loads(line) for line in open(spans_path)]
    assert rows[0]["name"] == "search"
    assert rows[0]["attributes"]["engine"] == "executor"
    names = {r["name"] for r in rows}
    assert "searcher:task" in names
    # Worker spans point back into the tree.
    ids = {r["span_id"] for r in rows}
    assert all(r["parent_id"] in ids for r in rows[1:])
