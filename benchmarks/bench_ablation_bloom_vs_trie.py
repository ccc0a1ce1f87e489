"""Ablation: binary trie vs per-page Bloom filters for identifier search.

Both serve :class:`UuidQuery`. The trade-off measured here:

* the Bloom index is several times smaller (a few bits/key vs the
  trie's LCP+8-bit prefixes + posting lists), lowering ``cpm_r``;
* the Bloom index probes false-positive pages at a tunable rate and
  must fetch *every* filter component per lookup, raising ``cpq_r``
  (more requests per query → also a lower QPS ceiling, §VII-D3).

This is exactly the ``cpm_r``-vs-``cpq_r`` dial of Figure 12: which
index wins depends on the workload's position in the phase diagram.
"""

import pytest

from repro.core.client import RottnestClient
from repro.core.queries import UuidQuery
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.uuids import UuidWorkload

from benchmarks.common import write_result


@pytest.fixture(scope="module")
def deployments():
    out = {}
    for index_type in ("uuid_trie", "bloom"):
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("uuid", ColumnType.BINARY))
        lake = LakeTable.create(
            store, "lake/u", schema,
            TableConfig(row_group_rows=4000, page_target_bytes=32 * 1024),
            entropy=seeded_entropy(0),
        )
        gen = UuidWorkload(seed=0, nbytes=128)
        for _ in range(3):
            lake.append({"uuid": gen.batch(8000)})
        client = RottnestClient(store, "idx/u", lake)
        record = client.index("uuid", index_type)
        out[index_type] = (store, lake, client, gen, record)
    return out


def measure(store, client, gen, queries):
    hits = 0
    requests = 0
    fp_pages = 0
    for key in queries:
        before = store.stats.snapshot()
        res = client.search("uuid", UuidQuery(key), k=10)
        delta = store.stats.delta(before)
        requests += delta.gets + delta.heads + delta.lists
        hits += len(res.matches)
        fp_pages += res.stats.false_positives
    return hits, requests / len(queries), fp_pages


def test_ablation_bloom_vs_trie(deployments, benchmark):
    trie_store, _, trie_client, gen, trie_record = deployments["uuid_trie"]
    bloom_store, _, bloom_client, gen_b, bloom_record = deployments["bloom"]
    benchmark(
        lambda: trie_client.search(
            "uuid", UuidQuery(gen.present_queries(1)[0]), k=10
        )
    )

    present = gen.present_queries(12)
    absent = gen.absent_queries(12)

    trie_hits, trie_reqs, trie_fp = measure(
        trie_store, trie_client, gen, present + absent
    )
    bloom_hits, bloom_reqs, bloom_fp = measure(
        bloom_store, bloom_client, gen_b, present + absent
    )

    lines = [
        "=== Ablation: bloom vs trie (24k x 128-byte keys) ===",
        f"{'':>12} | {'index bytes':>11} | {'reqs/query':>10} | "
        f"{'fp pages':>8} | hits",
        f"{'trie':>12} | {trie_record.size:>11} | {trie_reqs:>10.1f} | "
        f"{trie_fp:>8} | {trie_hits}",
        f"{'bloom':>12} | {bloom_record.size:>11} | {bloom_reqs:>10.1f} | "
        f"{bloom_fp:>8} | {bloom_hits}",
        f"size ratio: bloom is {trie_record.size / bloom_record.size:.1f}x "
        f"smaller",
    ]
    text = "\n".join(lines)
    print(text)
    write_result("ablation_bloom_vs_trie.txt", text)

    # Both find exactly the present keys and nothing else.
    assert trie_hits == bloom_hits == len(present)
    # Bloom is markedly smaller...
    assert bloom_record.size < trie_record.size / 2
    # ...but pays with more or equal probing work.
    assert bloom_fp >= trie_fp
