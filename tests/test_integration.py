"""End-to-end integration: full workloads, random operation schedules,
and cross-engine agreement."""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices, vacuum_indices
from repro.core.queries import SubstringQuery, UuidQuery, VectorQuery
from repro.errors import IndexAborted
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.text import TextWorkload
from repro.workloads.uuids import UuidWorkload
from repro.workloads.vectors import VectorWorkload, exact_knn, recall_at_k


class TestUuidWorkloadEndToEnd:
    def test_observability_lookup_story(self):
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("uuid", ColumnType.BINARY))
        lake = LakeTable.create(
            store, "lake/obs", schema,
            TableConfig(row_group_rows=500, page_target_bytes=4096),
        )
        gen = UuidWorkload(seed=0)
        batches = [gen.batch(400) for _ in range(5)]
        for batch in batches:
            lake.append({"uuid": batch})
        client = RottnestClient(store, "idx/obs", lake)
        client.index("uuid", "uuid_trie")
        # One file per append: the oracle is where each key was appended.
        paths = lake.snapshot().file_paths
        for key in gen.present_queries(10):
            rott = client.search("uuid", UuidQuery(key), k=10)
            assert {(m.file, m.row) for m in rott.matches} == {
                (path, row)
                for path, batch in zip(paths, batches)
                for row, value in enumerate(batch)
                if value == key
            }
            assert len(rott.matches) >= 1
        for key in gen.absent_queries(10):
            assert client.search("uuid", UuidQuery(key), k=10).matches == []

    def test_search_cost_much_lower_than_brute(self):
        """The cpq gap that makes the whole paper work."""
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("uuid", ColumnType.BINARY))
        lake = LakeTable.create(
            store, "lake/obs", schema,
            TableConfig(row_group_rows=2000, page_target_bytes=16384),
        )
        gen = UuidWorkload(seed=1)
        for _ in range(3):
            lake.append({"uuid": gen.batch(3000)})
        client = RottnestClient(store, "idx/obs", lake)
        client.index("uuid", "uuid_trie")
        key = gen.present_queries(1)[0]

        before = store.stats.snapshot()
        client.search("uuid", UuidQuery(key), k=10)
        rott_bytes = store.stats.delta(before).bytes_read

        before = store.stats.snapshot()
        client.search("uuid", UuidQuery(key), k=10, use_indices=False)
        brute_bytes = store.stats.delta(before).bytes_read
        assert rott_bytes < brute_bytes / 5


class TestTextWorkloadEndToEnd:
    def test_llm_data_exploration_story(self):
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("text", ColumnType.STRING))
        lake = LakeTable.create(
            store, "lake/corpus", schema,
            TableConfig(row_group_rows=300, page_target_bytes=8192),
        )
        gen = TextWorkload(seed=2, vocabulary_size=800)
        all_docs = []
        for _ in range(3):
            docs = gen.documents(200, avg_chars=150)
            all_docs.extend(docs)
            lake.append({"text": docs})
        client = RottnestClient(store, "idx/corpus", lake)
        client.index("text", "fm", params={"block_size": 8192, "sample_rate": 32})
        # "Leak detection": find which documents contain an eval snippet.
        for needle in gen.present_queries(all_docs, 5, length=16):
            res = client.search("text", SubstringQuery(needle), k=10_000)
            expected = sum(needle in d for d in all_docs)
            assert len(res.matches) == expected
        for needle in gen.absent_queries(5):
            assert client.search("text", SubstringQuery(needle), k=10).matches == []


class TestVectorWorkloadEndToEnd:
    def test_rag_recall_story(self):
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("emb", ColumnType.VECTOR, vector_dim=32))
        lake = LakeTable.create(
            store, "lake/vec", schema,
            TableConfig(row_group_rows=1000, page_target_bytes=32 * 4 * 100),
        )
        gen = VectorWorkload(dim=32, n_clusters=16, seed=3)
        chunks = [gen.batch(1500) for _ in range(2)]
        for chunk in chunks:
            lake.append({"emb": chunk})
        corpus = np.vstack(chunks)
        client = RottnestClient(store, "idx/vec", lake)
        client.index("emb", "ivf_pq", params={"nlist": 32, "m": 8})

        recalls = []
        for query in gen.queries(15):
            res = client.search(
                "emb", VectorQuery(query, nprobe=12, refine=100), k=10
            )
            # Map matches back to corpus row order for recall.
            found = []
            snap = lake.snapshot()
            offsets = {}
            base = 0
            for entry in snap.files:
                offsets[entry.path] = base
                base += entry.num_rows
            for m in res.matches:
                found.append(offsets[m.file] + m.row)
            true = exact_knn(corpus, query, 10)
            recalls.append(recall_at_k(found, true.tolist()))
        assert float(np.mean(recalls)) > 0.85

    def test_recall_increases_with_nprobe_refine(self):
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("emb", ColumnType.VECTOR, vector_dim=16))
        lake = LakeTable.create(store, "lake/vec", schema,
                                TableConfig(row_group_rows=1000,
                                            page_target_bytes=6400))
        gen = VectorWorkload(dim=16, n_clusters=12, seed=4)
        corpus = gen.batch(2500)
        lake.append({"emb": corpus})
        client = RottnestClient(store, "idx/vec", lake)
        client.index("emb", "ivf_pq", params={"nlist": 24, "m": 8})

        def mean_recall(nprobe, refine):
            rng = np.random.default_rng(0)
            rs = []
            for _ in range(10):
                q = corpus[rng.integers(len(corpus))]
                res = client.search(
                    "emb", VectorQuery(q, nprobe=nprobe, refine=refine), k=10
                )
                found = [m.row for m in res.matches]
                rs.append(recall_at_k(found, exact_knn(corpus, q, 10).tolist()))
            return float(np.mean(rs))

        low = mean_recall(1, 15)
        high = mean_recall(16, 150)
        assert high >= low
        assert high > 0.9


OPS = st.lists(
    st.sampled_from(["append", "delete", "index", "lake_compact",
                     "idx_compact", "vacuum", "search"]),
    min_size=3,
    max_size=12,
)


@settings(max_examples=12, deadline=None)
@given(ops=OPS, seed=st.integers(0, 1000))
def test_random_schedule_never_misses_rows(ops, seed):
    """Property: under any interleaving of lake and index operations,
    search returns exactly the live matching rows (§IV-B correctness)."""
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("uuid", ColumnType.BINARY))
    lake = LakeTable.create(
        store, "lake/p", schema,
        TableConfig(row_group_rows=64, page_target_bytes=1024),
    )
    client = RottnestClient(store, "idx/p", lake)
    rng = np.random.default_rng(seed)
    live: dict[bytes, int] = {}
    counter = 0

    def fresh_keys(n):
        nonlocal counter
        keys = [hashlib.sha256(f"{seed}:{counter + i}".encode()).digest()[:16]
                for i in range(n)]
        counter += n
        return keys

    lake.append({"uuid": fresh_keys(40)})
    for k in list(live) or []:
        pass
    # Track multiplicity of live keys.
    for i in range(counter):
        key = hashlib.sha256(f"{seed}:{i}".encode()).digest()[:16]
        live[key] = live.get(key, 0) + 1

    for op in ops:
        if op == "append":
            keys = fresh_keys(int(rng.integers(5, 30)))
            lake.append({"uuid": keys})
            for k in keys:
                live[k] = live.get(k, 0) + 1
        elif op == "delete":
            if live:
                victim = sorted(live)[int(rng.integers(len(live)))]
                lake.delete_where("uuid", lambda v: bytes(v) == victim)
                live.pop(victim)
        elif op == "index":
            try:
                client.index("uuid", "uuid_trie")
            except IndexAborted:
                pass
        elif op == "lake_compact":
            lake.compact(min_file_rows=50, target_rows=200)
        elif op == "idx_compact":
            compact_indices(client, "uuid", "uuid_trie")
        elif op == "vacuum":
            vacuum_indices(client, snapshot_id=lake.latest_version())
            store.clock.advance(7200)
            vacuum_indices(client, snapshot_id=lake.latest_version())
        elif op == "search":
            if live:
                probe = sorted(live)[int(rng.integers(len(live)))]
                res = client.search("uuid", UuidQuery(probe), k=100)
                assert len(res.matches) == live[probe]

    # Final completeness check on a few keys.
    for key, count in list(live.items())[:5]:
        res = client.search("uuid", UuidQuery(key), k=100)
        assert len(res.matches) == count
    gone = hashlib.sha256(b"never-inserted").digest()[:16]
    assert client.search("uuid", UuidQuery(gone), k=10).matches == []
