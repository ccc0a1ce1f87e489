"""LLM pretraining-data exploration: substring search over a corpus.

The paper's §II-B example: detect whether evaluation data leaked into a
pretraining corpus by substring-searching the training records. The
corpus lives as a STRING column in the lake; Rottnest's FM-index makes
each probe a handful of small reads instead of a full scan.

Run: ``python examples/llm_data_curation.py``
"""

from repro import (
    ColumnType,
    Field,
    InMemoryObjectStore,
    LakeTable,
    RottnestClient,
    Schema,
    SubstringQuery,
    TableConfig,
)
from repro.workloads.text import TextWorkload


def main() -> None:
    store = InMemoryObjectStore()
    schema = Schema.of(Field("document", ColumnType.STRING))
    lake = LakeTable.create(
        store, "lake/corpus", schema,
        TableConfig(row_group_rows=1000, page_target_bytes=32 * 1024),
    )
    gen = TextWorkload(seed=42, vocabulary_size=3000)

    # Crawl shards land as separate files (append-only corpus).
    shards = [gen.documents(400, avg_chars=500) for _ in range(3)]
    for shard in shards:
        lake.append({"document": shard})

    # Plant a "leaked" eval question inside one training document.
    eval_question = "what is the airspeed velocity of an unladen swallow"
    poisoned = shards[1][123] + " " + eval_question
    lake.append({"document": [poisoned]})

    client = RottnestClient(
        store, "indices/corpus", lake,
    )
    record = client.index(
        "document", "fm",
        params={"block_size": 32 * 1024, "sample_rate": 64,
                "store_pagemap": False},
    )
    snap = lake.snapshot()
    print(
        f"corpus: {snap.num_rows} documents, "
        f"{snap.total_bytes / 1024:.0f} KB compressed; "
        f"index: {record.size / 1024:.0f} KB "
        f"({record.size / snap.total_bytes:.2f}x the data)"
    )

    # Leak scan: eval snippets as probes.
    probes = [eval_question[:24], "nonexistent eval snippet xyz"]
    for probe in probes:
        result = client.search("document", SubstringQuery(probe), k=10)
        verdict = "LEAKED" if result.matches else "clean"
        print(
            f"probe {probe!r}: {verdict} "
            f"({len(result.matches)} hit(s), "
            f"{result.stats.pages_probed} page(s) probed, "
            f"~{result.stats.estimated_latency() * 1000:.0f} ms modeled)"
        )

    # Cross-check against a brute-force scan (the same plan with no
    # index) — same answers, far more IO.
    before = store.stats.snapshot()
    client.search(
        "document", SubstringQuery(eval_question[:24]), k=10, use_indices=False
    )
    brute_bytes = store.stats.delta(before).bytes_read
    before = store.stats.snapshot()
    client.search("document", SubstringQuery(eval_question[:24]), k=10)
    rott_bytes = store.stats.delta(before).bytes_read
    print(
        f"brute force read {brute_bytes / 1024:.0f} KB vs Rottnest "
        f"{rott_bytes / 1024:.0f} KB for the same verified answer "
        f"({brute_bytes / max(rott_bytes, 1):.0f}x more)"
    )

    # Frequency analytics straight off the index: exact occurrence
    # counts without touching the data at all.
    for term in [gen.vocabulary[0], gen.vocabulary[50], "zyzzyva"]:
        total = client.count("document", SubstringQuery(term))
        print(f"corpus frequency of {term!r}: {total}")


if __name__ == "__main__":
    main()
