"""Figure 10: Parquet reading micro-benchmarks.

* 10a — byte-range request latency vs read granularity at 1..512
  concurrent reads: flat until ~1 MB (time-to-first-byte bound), then
  linear in size. Parquet *pages* (~300 KB) sit in the flat region;
  *row groups* (~128 MB) sit deep in the linear region — the core
  argument for page-granular in-situ reads (§V-A, §VII-C).
* 10b — reading 300 KB raw byte ranges vs reading and decoding real
  Parquet pages: decompression adds little, measured as actual
  wall-clock decode time via pytest-benchmark.
"""

import zlib

import pytest

from repro.formats.encoding import decode_values
from repro.formats.page_reader import build_page_table, fetch_pages, inflate
from repro.formats.parquet import write_parquet
from repro.formats.schema import ColumnType, Field, Schema
from repro.storage.latency import LatencyModel
from repro.storage.object_store import InMemoryObjectStore
from repro.workloads.text import TextWorkload

from benchmarks.common import write_result

SIZES = [1 << k for k in range(12, 28)]  # 4 KB .. 128 MB
CONCURRENCY = [1, 8, 64, 512]
MODEL = LatencyModel()


def test_fig10a_latency_vs_granularity(benchmark):
    benchmark(lambda: MODEL.round_latency([300_000] * 64))
    lines = [
        "=== Figure 10a: S3 read latency vs granularity ===",
        f"{'size':>10} | " + " | ".join(f"c={c:>4}" for c in CONCURRENCY),
    ]
    table = {}
    for size in SIZES:
        cells = []
        for c in CONCURRENCY:
            # Per-request latency of one wave of c concurrent requests.
            latency = MODEL.round_latency([size] * c)
            table[(size, c)] = latency
            cells.append(f"{latency*1000:7.1f}ms")
        label = (
            f"{size//1024}KB" if size < (1 << 20) else f"{size >> 20}MB"
        )
        lines.append(f"{label:>10} | " + " | ".join(cells))
    text = "\n".join(lines)
    print(text)
    write_result("fig10a_granularity.txt", text)

    for c in CONCURRENCY:
        # Flat below 1 MB.
        assert table[(4096, c)] == pytest.approx(table[(1 << 20, c)])
        # Linear above: 128 MB costs ~2x of 64 MB.
        ratio = table[(1 << 27, c)] / table[(1 << 26, c)]
        assert 1.7 < ratio < 2.2
    # Pages (300 KB) are latency-bound; row groups (128 MB) are not.
    page = MODEL.request_latency(300_000)
    row_group = MODEL.request_latency(128 << 20)
    assert page == MODEL.first_byte_s
    assert row_group > 30 * page


@pytest.fixture(scope="module")
def page_corpus():
    """A file with ~300 KB compressed pages of realistic text."""
    gen = TextWorkload(seed=0, vocabulary_size=3000)
    docs = gen.documents(1500, avg_chars=900)
    schema = Schema.of(Field("text", ColumnType.STRING))
    result = write_parquet(
        schema,
        {"text": docs},
        row_group_rows=100_000,
        page_target_bytes=1 << 20,  # ~1 MB raw -> a few hundred KB packed
    )
    store = InMemoryObjectStore()
    store.put("c.parquet", result.data)
    # The CRCs an index build records, which ``fetch_pages`` checks.
    pages = build_page_table(result.metadata, "c.parquet", "text").entries
    crcs = [zlib.crc32(store.get("c.parquet", (e.offset, e.compressed_size))) for e in pages]
    table = build_page_table(result.metadata, "c.parquet", "text", crcs)
    return store, schema, table


def test_fig10b_page_decode_vs_raw_range(page_corpus, benchmark):
    """Wall-clock cost of page decode vs just fetching the bytes."""
    store, schema, table = page_corpus
    field = schema.field("text")
    entry = table.entry(0)

    def read_page():
        (raw,) = fetch_pages(store, [entry])
        return decode_values(field, inflate(entry, raw), entry.num_values)

    benchmark(read_page)
    # Compare modeled request latency with and without decode cost.
    import time

    reps = 20
    t0 = time.perf_counter()
    for _ in range(reps):
        store.get("c.parquet", (entry.offset, entry.compressed_size))
    raw_s = (time.perf_counter() - t0) / reps
    t0 = time.perf_counter()
    for _ in range(reps):
        read_page()
    decoded_s = (time.perf_counter() - t0) / reps

    request_s = MODEL.request_latency(entry.compressed_size)
    overhead = decoded_s - raw_s
    lines = [
        "=== Figure 10b: 300KB raw range vs real page read+decode ===",
        f"page compressed size: {entry.compressed_size/1024:.0f} KB "
        f"({entry.num_values} rows)",
        f"S3 request latency (model): {request_s*1000:.1f} ms",
        f"raw range fetch (wall): {raw_s*1000:.2f} ms",
        f"fetch+decompress+decode (wall): {decoded_s*1000:.2f} ms",
        f"decode overhead: {overhead*1000:.2f} ms "
        f"({overhead/request_s*100:.0f}% of request latency)",
    ]
    text = "\n".join(lines)
    print(text)
    write_result("fig10b_decode.txt", text)
    # The paper's point: decompression overhead is not a concern — it is
    # small relative to the object-store request latency.
    assert overhead < request_s
