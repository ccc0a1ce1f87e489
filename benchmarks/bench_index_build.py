"""Index construction microbenchmarks: the inputs behind ``ic_r``.

Measures this repo's actual (Python) build throughput per index type
and contrasts it with the calibrated native rates used to price
``ic_r`` in the TCO benches. The repro band for this paper notes that
"indexing performance needs native code" — this bench quantifies that
gap so the calibration in ``benchmarks/common.py`` is auditable rather
than asserted.
"""

import time


from repro.core.client import RottnestClient
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.text import TextWorkload
from repro.workloads.uuids import UuidWorkload
from repro.workloads.vectors import VectorWorkload

from benchmarks.common import NATIVE_INDEX_RATE, write_result


def make_lake(store, schema, batches):
    lake = LakeTable.create(
        store, "lake/b", schema,
        TableConfig(row_group_rows=5000, page_target_bytes=64 * 1024),
        entropy=seeded_entropy(0),
    )
    for batch in batches:
        lake.append(batch)
    return lake


def build_once(index_type, params=None):
    store = InMemoryObjectStore(clock=SimClock())
    if index_type == "fm":
        gen = TextWorkload(seed=0, vocabulary_size=2000)
        schema = Schema.of(Field("c", ColumnType.STRING))
        lake = make_lake(
            store, schema, [{"c": gen.documents(500, avg_chars=400)}]
        )
        column = "c"
    elif index_type in ("uuid_trie", "bloom"):
        gen = UuidWorkload(seed=0, nbytes=128)
        schema = Schema.of(Field("c", ColumnType.BINARY))
        lake = make_lake(store, schema, [{"c": gen.batch(20_000)}])
        column = "c"
    else:  # ivf_pq
        gen = VectorWorkload(dim=64, n_clusters=32, seed=0)
        schema = Schema.of(Field("c", ColumnType.VECTOR, vector_dim=64))
        lake = make_lake(store, schema, [{"c": gen.batch(8000)}])
        column = "c"
    client = RottnestClient(store, "idx/b", lake)
    data_bytes = lake.snapshot().total_bytes
    start = time.perf_counter()
    record = client.index(column, index_type, params=params)
    elapsed = time.perf_counter() - start
    return data_bytes, record, elapsed


def test_index_build_rates(benchmark):
    results = {}
    for index_type, params in [
        ("fm", {"block_size": 32 * 1024, "store_pagemap": False}),
        ("uuid_trie", None),
        ("bloom", None),
        ("ivf_pq", {"nlist": 48, "m": 16}),
    ]:
        data_bytes, record, elapsed = build_once(index_type, params)
        results[index_type] = (data_bytes, record.size, elapsed)
    benchmark(lambda: None)

    lines = [
        "=== Index build rates (this repo's Python vs calibrated native) ===",
        f"{'type':>10} | {'data KB':>8} | {'index KB':>8} | {'build s':>8} | "
        f"{'python MB/s':>11} | {'native cal. MB/s':>16}",
    ]
    for index_type, (data_bytes, index_bytes, elapsed) in results.items():
        python_rate = data_bytes / max(elapsed, 1e-9) / 1e6
        native = NATIVE_INDEX_RATE.get(index_type)
        native_text = f"{native / 1e6:16.1f}" if native else f"{'(n/a)':>16}"
        lines.append(
            f"{index_type:>10} | {data_bytes/1024:8.0f} | "
            f"{index_bytes/1024:8.0f} | {elapsed:8.2f} | "
            f"{python_rate:11.1f} | {native_text}"
        )
        assert elapsed < 120  # builds stay interactive at micro scale
    text = "\n".join(lines)
    print(text)
    write_result("index_build_rates.txt", text)
