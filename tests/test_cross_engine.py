"""Cross-engine oracle: Rottnest's indexed search, the plan's scan with
no index, and the copy-data system must each return what the appended
rows say, minus the deleted ones, over the same lake state."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import RottnestClient
from repro.core.queries import RangeQuery, SubstringQuery, UuidQuery, VectorQuery
from repro.engines.dedicated import DedicatedSearchSystem
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

from tests.conftest import event_batch, event_uuid


def rowset(matches):
    return {(m.file, m.row) for m in matches}


def appended_rows(lake, batches, column, deleted=frozenset()):
    """``(file, row, value)`` for every appended row not deleted: one
    file per appended batch, in commit order."""
    return [
        (entry.path, row, value)
        for entry, batch in zip(lake.snapshot().files, batches)
        for row, value in enumerate(batch[column])
        if (entry.path, row) not in deleted
    ]


def oracle(rows, query, k=None):
    """Every matching row of an exact query; the ``k`` nearest rows
    (with their distances) of a scoring one."""
    if not query.scoring:
        return {(path, row) for path, row, value in rows if query.matches(value)}
    scored = sorted((query.distance(value), path, row) for path, row, value in rows)
    return scored[:k]


class TestThreeWayAgreement:
    @pytest.fixture
    def engines(self, store, event_lake):
        client = RottnestClient(store, "idx/events", event_lake)
        client.index("uuid", "uuid_trie")
        client.index("text", "fm", params={"block_size": 4096})
        client.index("emb", "ivf_pq", params={"nlist": 8, "m": 8})
        copycat = DedicatedSearchSystem()
        # The event lake's two appends (see tests.conftest.event_lake).
        batches = [event_batch(300, seed=1), event_batch(300, seed=2)]
        return client, copycat, batches

    def test_uuid_agreement(self, engines, event_lake):
        client, copycat, batches = engines
        copycat.ingest(event_lake, "uuid")
        rows = appended_rows(event_lake, batches, "uuid")
        for seed, i in [(1, 0), (1, 299), (2, 150)]:
            query = UuidQuery(event_uuid(seed, i))
            want = oracle(rows, query)
            assert len(want) == 1
            assert rowset(client.search("uuid", query, k=50).matches) == want
            scan = client.search("uuid", query, k=50, use_indices=False)
            assert rowset(scan.matches) == want
            assert rowset(copycat.search(query, k=50)) == want

    def test_substring_agreement(self, engines, event_lake):
        client, copycat, batches = engines
        copycat.ingest(event_lake, "text")
        rows = appended_rows(event_lake, batches, "text")
        docs = [value for _, _, value in rows]
        for needle in [docs[0][:10], docs[400][:10], "impossible-needle"]:
            query = SubstringQuery(needle)
            want = oracle(rows, query)
            assert rowset(client.search("text", query, k=10_000).matches) == want
            scan = client.search("text", query, k=10_000, use_indices=False)
            assert rowset(scan.matches) == want
            assert rowset(copycat.search(query, k=10_000)) == want

    def test_vector_topk_agreement(self, engines, event_lake):
        client, copycat, batches = engines
        copycat.ingest(event_lake, "emb")
        rows = appended_rows(event_lake, batches, "emb")
        rng = np.random.default_rng(3)
        for _ in range(3):
            vec = rng.normal(size=16).astype(np.float32)
            # Exhaustive settings so the ANN result is exact.
            query = VectorQuery(vec, nprobe=8, refine=600)
            want = oracle(rows, query, k=5)
            for got in (
                client.search("emb", query, k=5).matches,
                client.search("emb", query, k=5, use_indices=False).matches,
                copycat.search(query, k=5),
            ):
                assert [(m.file, m.row) for m in got] == [w[1:] for w in want]
                for match, (distance, _, _) in zip(got, want):
                    assert match.score == pytest.approx(distance)

    def test_agreement_survives_deletes(self, engines, event_lake):
        client, _, batches = engines
        victim = event_uuid(1, 50)
        event_lake.delete_where("uuid", lambda v: bytes(v) == victim)
        first = event_lake.snapshot().files[0].path
        rows = appended_rows(event_lake, batches, "uuid", deleted={(first, 50)})
        query = UuidQuery(victim)
        assert oracle(rows, query) == set()
        assert client.search("uuid", query, k=5).matches == []
        assert client.search("uuid", query, k=5, use_indices=False).matches == []


@settings(max_examples=10, deadline=None)
@given(
    n_batches=st.integers(1, 3),
    rows=st.integers(20, 80),
    probe_seed=st.integers(0, 10_000),
    delete_mod=st.integers(3, 9),
)
def test_rottnest_equals_bruteforce_property(
    n_batches, rows, probe_seed, delete_mod
):
    """Property: for arbitrary lake contents, deletions, and probes,
    Rottnest search and the plan's scan both equal the appended rows
    minus the deleted ones (the ground truth)."""
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(
        Field("k", ColumnType.INT64), Field("t", ColumnType.STRING)
    )
    lake = LakeTable.create(
        store, "lake/x", schema,
        TableConfig(row_group_rows=32, page_target_bytes=512),
    )
    batches = []
    total = 0
    for b in range(n_batches):
        batches.append(
            {
                "k": list(range(total, total + rows)),
                "t": [f"row {total + i} tag{(total + i) % 7}"
                      for i in range(rows)],
            }
        )
        lake.append(batches[-1])
        total += rows
    lake.delete_where("k", lambda v: v % delete_mod == 0)
    deleted = {
        (path, row)
        for path, row, k in appended_rows(lake, batches, "k")
        if k % delete_mod == 0
    }
    client = RottnestClient(store, "idx/x", lake)
    client.index("t", "fm", params={"block_size": 512, "sample_rate": 8})
    client.index("k", "minmax")

    queries = [
        ("t", SubstringQuery(f"tag{probe_seed % 7}")),
        ("k", RangeQuery(probe_seed % total, probe_seed % total + 10)),
    ]
    for column, query in queries:
        want = oracle(appended_rows(lake, batches, column, deleted), query)
        got = client.search(column, query, k=10_000)
        assert rowset(got.matches) == want
        scan = client.search(column, query, k=10_000, use_indices=False)
        assert rowset(scan.matches) == want
