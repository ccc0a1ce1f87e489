"""Figure 13: search latency on uncompacted vs compacted index files.

Appends data in many small batches, indexing after each, then compares
search latency (and request counts) before and after index compaction
for substring and UUID search. Expected shape: uncompacted latency
grows with the number of index files (every file is opened and queried),
compacted latency is ~flat — which is what makes ``cpq_r`` effectively
constant in dataset size (§VII-D2).
"""

import pytest

from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices
from repro.core.queries import SubstringQuery, UuidQuery
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.text import TextWorkload
from repro.workloads.uuids import UuidWorkload

from benchmarks.common import write_result

LAT = LatencyModel()
BATCHES = [2, 4, 8, 16]


def uuid_series():
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("uuid", ColumnType.BINARY))
    lake = LakeTable.create(
        store, "lake/u", schema,
        TableConfig(row_group_rows=4000, page_target_bytes=32 * 1024),
        entropy=seeded_entropy(0),
    )
    client = RottnestClient(store, "idx/u", lake)
    gen = UuidWorkload(seed=0, nbytes=128)
    rows = []
    done = 0
    for target in BATCHES:
        while done < target:
            lake.append({"uuid": gen.batch(2000)})
            client.index("uuid", "uuid_trie")
            done += 1
        key = gen.present_queries(1)[0]
        before = client.search("uuid", UuidQuery(key), k=5)
        # Compact on a copy of the metadata state? Compaction is
        # destructive-by-addition; measure, compact, measure, then keep
        # appending (matching how an operator would run it).
        compact_indices(client, "uuid", "uuid_trie")
        after = client.search("uuid", UuidQuery(key), k=5)
        rows.append(
            (
                target,
                before.stats.index_files_queried,
                before.stats.estimated_latency(LAT),
                after.stats.index_files_queried,
                after.stats.estimated_latency(LAT),
            )
        )
    return rows


def unique_needle(docs0, appended, width=12):
    """A ``width``-char slice of the first batch that occurs in exactly
    one appended row: with a single match, a top-k search cannot stop
    early and must query every index file."""
    for doc in docs0:
        for start in range(len(doc) - width + 1):
            needle = doc[start : start + width]
            if sum(needle in row for row in appended) == 1:
                return needle
    raise AssertionError("no slice of the first batch is unique")


def text_series():
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("text", ColumnType.STRING))
    lake = LakeTable.create(
        store, "lake/t", schema,
        TableConfig(row_group_rows=2000, page_target_bytes=16 * 1024),
        entropy=seeded_entropy(0),
    )
    client = RottnestClient(store, "idx/t", lake)
    gen = TextWorkload(seed=0, vocabulary_size=1500)
    rows = []
    done = 0
    appended: list[str] = []
    for target in BATCHES:
        while done < target:
            docs = gen.documents(120, avg_chars=250)
            appended.extend(docs)
            lake.append({"text": docs})
            client.index(
                "text", "fm",
                params={"block_size": 8192, "sample_rate": 32,
                        "store_pagemap": False},
            )
            done += 1
        needle = unique_needle(appended[:120], appended)
        before = client.search("text", SubstringQuery(needle), k=5)
        compact_indices(client, "text", "fm")
        after = client.search("text", SubstringQuery(needle), k=5)
        rows.append(
            (
                target,
                before.stats.index_files_queried,
                before.stats.estimated_latency(LAT),
                after.stats.index_files_queried,
                after.stats.estimated_latency(LAT),
            )
        )
    return rows


def render_series(title, rows):
    lines = [
        f"--- {title} ---",
        f"{'files':>6} | {'uncompacted':>24} | {'compacted':>24}",
        f"{'':>6} | {'idx files / latency':>24} | {'idx files / latency':>24}",
    ]
    for batches, n_before, lat_before, n_after, lat_after in rows:
        lines.append(
            f"{batches:>6} | {n_before:>10} {lat_before*1000:9.1f} ms | "
            f"{n_after:>10} {lat_after*1000:9.1f} ms"
        )
    return "\n".join(lines)


#: Requests per uncompacted index-file query, measured from the micro
#: runs (open: HEAD + tail GET; query: ~1-2 component GETs).
REQUESTS_PER_INDEX = 4


def modeled_latency_at_scale(num_index_files: int, compacted: bool) -> float:
    """Latency at paper-scale index-file counts.

    Uncompacted search opens and queries every index file: the per-round
    width grows with the file count until it saturates connection
    concurrency and the per-prefix request rate; the plan phase must
    also page through a LIST of the metadata (1000 keys per page).
    Compacted search always touches a handful of large files.
    """
    n = 1 if compacted else num_index_files
    list_pages = max(1, -(-n // 1000))
    plan = list_pages * LAT.list_latency_s
    open_round = LAT.round_latency([256 * 1024] * n)
    query_rounds = 2 * LAT.round_latency([64 * 1024] * n)
    probe = LAT.round_latency([300_000] * 4)
    return plan + open_round + query_rounds + probe


def test_fig13_compaction(benchmark):
    u_rows = uuid_series()
    t_rows = text_series()
    benchmark(lambda: modeled_latency_at_scale(1000, compacted=False))

    scale_lines = [
        "--- modeled at paper-scale index-file counts ---",
        f"{'index files':>12} | {'uncompacted':>12} | {'compacted':>10}",
    ]
    scale_points = {}
    for n in (10, 100, 1000, 10_000):
        un = modeled_latency_at_scale(n, compacted=False)
        co = modeled_latency_at_scale(n, compacted=True)
        scale_points[n] = (un, co)
        scale_lines.append(f"{n:>12} | {un:10.2f} s | {co:8.2f} s")

    text = "\n".join(
        [
            "=== Figure 13: uncompacted vs compacted search latency ===",
            render_series("UUID search (25x-style compaction)", u_rows),
            render_series("substring search (100x-style compaction)", t_rows),
            "\n".join(scale_lines),
        ]
    )
    print(text)
    write_result("fig13_compaction.txt", text)

    for rows in (u_rows, t_rows):
        # Uncompacted: more index files are queried as batches grow.
        assert rows[-1][1] > rows[0][1]
        # Compacted: a single index file regardless of batch count.
        assert all(r[3] == 1 for r in rows)
        # Compacted latency is flat (within a round) across dataset
        # growth, and no worse than uncompacted at the largest size.
        compacted = [r[4] for r in rows]
        assert max(compacted) <= min(compacted) + LAT.first_byte_s + 1e-9
        assert rows[-1][4] <= rows[-1][2] + 1e-9
    # Paper-scale shape: uncompacted latency grows sharply with file
    # count; compacted stays constant (Fig. 13's divergence).
    assert scale_points[10_000][0] > scale_points[10][0] * 5
    assert scale_points[10_000][1] == pytest.approx(scale_points[10][1])
