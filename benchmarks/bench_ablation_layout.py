"""Ablation: componentization vs the two naive layouts (§V-B, Fig. 6).

For the trie and FM indices, compares three ways of putting the same
data structure on object storage:

* **monolithic** — serialize + compress the whole structure; every query
  downloads everything (one big sequential read);
* **componentized** — Rottnest's layout; a query reads the components it
  needs, a few hundred KB in 1-2 dependent rounds;
* **"mmap"** — every node access is its own dependent request: minimal
  bytes but a long chain (and no compression).

Also ablates the trie's 8-level lookup table: without it, the first 8
trie levels are walked as dependent binary-node accesses.

Run at paper-scale structure sizes through the latency model, with the
micro-scale measured traces shown for reference.
"""


from repro.core.queries import SubstringQuery, UuidQuery
from repro.storage.latency import LatencyModel
from repro.storage.stats import tracing
from repro.workloads.text import TextWorkload

from benchmarks.common import (
    build_text_scenario,
    build_uuid_scenario,
    write_result,
)

LAT = LatencyModel()

#: Paper-scale structure sizes (per compacted index file).
TRIE_INDEX_BYTES = 12 << 30  # 2B keys x ~6 B/key
FM_INDEX_BYTES = 120 << 30  # 304 GB text x ~0.4
COMPONENT_BYTES = 256 * 1024
NODE_BYTES = 64  # one trie node / one FM checkpoint line


def trie_layouts() -> dict[str, float]:
    """Modeled query latency per layout for a paper-scale trie."""
    # Componentized: open (tail) -> LUT (free) -> one leaf component.
    componentized = (
        LAT.round_latency([COMPONENT_BYTES])  # open: tail fetch
        + LAT.round_latency([COMPONENT_BYTES])  # one leaf
    )
    # Without the 8-level LUT: 8 extra dependent node-group hops before
    # reaching the leaf range.
    no_lut = componentized + 8 * LAT.round_latency([NODE_BYTES])
    # Monolithic: one giant sequential read.
    monolithic = LAT.request_latency(TRIE_INDEX_BYTES)
    # mmap-style: one request per node along the key path
    # (~128-bit keys -> ~40 distinguishing-node hops after sharing).
    mmap = 40 * LAT.round_latency([NODE_BYTES])
    return {
        "componentized": componentized,
        "no-LUT": no_lut,
        "monolithic": monolithic,
        "mmap": mmap,
    }


def fm_layouts(pattern_len: int = 12) -> dict[str, float]:
    componentized = (
        LAT.round_latency([COMPONENT_BYTES])
        + pattern_len * LAT.round_latency([COMPONENT_BYTES] * 2)
        + LAT.round_latency([COMPONENT_BYTES])  # locate round
    )
    monolithic = LAT.request_latency(FM_INDEX_BYTES)
    # mmap: every Occ touches a checkpoint line + a BWT word.
    mmap = pattern_len * 2 * LAT.round_latency([NODE_BYTES] * 2)
    return {
        "componentized": componentized,
        "monolithic": monolithic,
        "mmap": mmap,
    }


def test_ablation_trie_layout(benchmark):
    scenario = build_uuid_scenario(keys_per_file=10_000, files=2)
    key = scenario.uuid_gen.present_queries(1)[0]
    benchmark(lambda: scenario.client.search("uuid", UuidQuery(key), k=5))
    res = scenario.client.search("uuid", UuidQuery(key), k=5)
    modeled = trie_layouts()
    lines = [
        "=== Ablation: trie layout on object storage ===",
        f"measured micro trace: {res.stats.trace.total_requests} requests, "
        f"depth {res.stats.trace.depth}",
    ]
    for name, latency in sorted(modeled.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:>14}: {latency:9.3f} s (paper-scale model)")
    text = "\n".join(lines)
    print(text)
    write_result("ablation_trie_layout.txt", text)
    assert modeled["componentized"] < modeled["no-LUT"]
    assert modeled["componentized"] < modeled["mmap"]
    assert modeled["componentized"] < modeled["monolithic"] / 100


def test_ablation_fm_layout(benchmark):
    scenario = build_text_scenario(docs_per_file=200, files=2)
    gen = TextWorkload(seed=11, vocabulary_size=2000)
    docs = scenario.lake.to_pylist("text")
    needle = gen.present_queries(docs, 1, length=12)[0]
    benchmark(
        lambda: scenario.client.search("text", SubstringQuery(needle), k=5)
    )
    modeled = fm_layouts(pattern_len=len(needle))
    lines = ["=== Ablation: FM-index layout on object storage ==="]
    for name, latency in sorted(modeled.items(), key=lambda kv: kv[1]):
        lines.append(f"  {name:>14}: {latency:9.3f} s (paper-scale model)")
    text = "\n".join(lines)
    print(text)
    write_result("ablation_fm_layout.txt", text)
    # Componentized beats monolithic by orders of magnitude; the mmap
    # layout has comparable depth here but forfeits compression and
    # needs ~4x the requests per Occ in practice.
    assert modeled["componentized"] < modeled["monolithic"] / 100


def test_ablation_fm_block_size(benchmark):
    """Block size trades per-request bytes against cache-hit locality;
    both extremes still answer queries correctly."""
    from repro.indices.fm.fm_index import FmBuilder, FmQuerier
    from repro.core.index_file import (
        IndexFileReader,
        IndexFileWriter,
        PageDirectory,
    )
    from repro.formats.page_reader import PageEntry, PageTable
    from repro.storage.object_store import InMemoryObjectStore

    # Big enough that rank blocks miss the speculative tail cache.
    gen = TextWorkload(seed=3, vocabulary_size=1500)
    pages = [(g, gen.documents(700, avg_chars=450)) for g in range(3)]
    needle = pages[0][1][0][:10]
    results = {}
    for block_size in (4 * 1024, 64 * 1024):
        builder = FmBuilder.build(
            pages, block_size=block_size, sample_rate=32, store_pagemap=False
        )
        table = PageTable(
            "f", "text",
            [PageEntry("f", i, 4 + i * 10, 10, 250, i * 250, 1, crc=0) for i in range(3)],
        )
        writer = IndexFileWriter("fm", "text", PageDirectory([table]))
        builder.write(writer)
        store = InMemoryObjectStore()
        store.put("i.index", writer.finish())
        querier = FmQuerier(IndexFileReader.open(store, "i.index"))
        with tracing() as trace:
            count = querier.count(needle)
        results[block_size] = (count, trace.total_bytes, trace.total_requests)
    benchmark(lambda: results)
    counts = {c for c, _, _ in results.values()}
    assert len(counts) == 1  # correctness independent of block size
    small_bytes = results[4 * 1024][1]
    big_bytes = results[64 * 1024][1]
    lines = [
        "=== Ablation: FM block size ===",
        f"4 KB blocks:  {results[4*1024][2]} requests, "
        f"{small_bytes/1024:.0f} KB fetched",
        f"64 KB blocks: {results[64*1024][2]} requests, "
        f"{big_bytes/1024:.0f} KB fetched",
    ]
    text = "\n".join(lines)
    print(text)
    write_result("ablation_fm_block_size.txt", text)
