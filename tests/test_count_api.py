"""client.count(): exact occurrence counting off the FM index."""

import pytest

from repro.core.client import RottnestClient, _count_overlapping
from repro.core.queries import SubstringQuery, UuidQuery
from repro.errors import RottnestIndexError
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import tracing
from repro.util.clock import SimClock
from repro.workloads.text import TextWorkload


def naive_total(docs, needle):
    return sum(_count_overlapping(d, needle) for d in docs)


@pytest.fixture
def corpus_client():
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("text", ColumnType.STRING))
    lake = LakeTable.create(
        store, "lake/c", schema,
        TableConfig(row_group_rows=200, page_target_bytes=2048),
    )
    gen = TextWorkload(seed=1, vocabulary_size=400)
    docs = []
    for _ in range(2):
        batch = gen.documents(120, avg_chars=120)
        docs.extend(batch)
        lake.append({"text": batch})
    client = RottnestClient(store, "idx/c", lake)
    client.index("text", "fm", params={"block_size": 4096, "sample_rate": 16})
    return store, lake, client, docs, gen


class TestCountOverlapping:
    @pytest.mark.parametrize(
        "haystack,needle,expected",
        [("aaaa", "aa", 3), ("abcabc", "abc", 2), ("", "x", 0), ("xyz", "q", 0)],
    )
    def test_counts(self, haystack, needle, expected):
        assert _count_overlapping(haystack, needle) == expected


class TestCountApi:
    def test_matches_naive(self, corpus_client):
        _, _, client, docs, gen = corpus_client
        for needle in ["a", "ba", docs[0][:6], "zzqx"]:
            assert client.count("text", SubstringQuery(needle)) == naive_total(
                docs, needle
            ), needle

    def test_counts_without_probing_data(self, corpus_client):
        """Covered files contribute counts from the index alone."""
        store, lake, client, docs, _ = corpus_client
        data_paths = set(lake.snapshot().file_paths)
        with tracing() as trace:
            client.count("text", SubstringQuery("a"))
        touched = {
            req.key for round_ in trace.rounds for req in round_
            if req.op == "GET"
        }
        assert not (touched & data_paths)  # data files never read

    def test_uncovered_files_brute_counted(self, corpus_client):
        _, lake, client, docs, gen = corpus_client
        extra = gen.documents(30, avg_chars=100)
        lake.append({"text": extra})
        needle = "a"
        assert client.count("text", SubstringQuery(needle)) == naive_total(
            docs + extra, needle
        )

    def test_partition_scoped_count(self):
        store = InMemoryObjectStore(clock=SimClock())
        schema = Schema.of(Field("text", ColumnType.STRING))
        lake = LakeTable.create(
            store, "lake/p", schema,
            TableConfig(row_group_rows=100, page_target_bytes=1024),
        )
        lake.append({"text": ["alpha alpha", "beta"]}, partition="a")
        lake.append({"text": ["alpha"]}, partition="b")
        client = RottnestClient(store, "idx/p", lake)
        client.index("text", "fm")
        assert client.count("text", SubstringQuery("alpha")) == 3
        # The single index covers both partitions; a scoped count must
        # not leak the other partition's occurrences.
        assert (
            client.count("text", SubstringQuery("alpha"), partition="a") == 2
        )
        assert (
            client.count("text", SubstringQuery("alpha"), partition="b") == 1
        )

    def test_rejects_non_substring(self, corpus_client):
        _, _, client, _, _ = corpus_client
        with pytest.raises(RottnestIndexError):
            client.count("text", UuidQuery(b"\x00"))
