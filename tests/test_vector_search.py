"""Vector queries through the one search plan: the array path answers
exactly what the per-hit path answered, and a query vector of the wrong
dimension is refused on every path, before any probe."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader
from repro.core.queries import VectorQuery
from repro.core.results import SearchMatch, merge_topk
from repro.core.search import plan, scope
from repro.errors import RottnestIndexError
from repro.formats.encoding import decode_values
from repro.formats.page_reader import fetch_pages
from repro.formats.schema import ColumnType, Field, Schema
from repro.indices.vector.ivf_pq import IvfPqQuerier
from repro.lake.table import LakeTable, live_rows
from repro.serve import SearchExecutor

from tests.test_vector_index import reference_candidates

DIM = 16
SCHEMA = Schema.of(Field("id", ColumnType.INT64), Field("emb", ColumnType.VECTOR, DIM))
PARAMS = {"nlist": 8, "m": 8}


def batch(seed: int, n: int = 300, *, first_id: int = 0) -> dict:
    """``n`` rows whose last 50 vectors repeat the first 50 (identical
    codes in one list: exact PQ score ties inside one index file)."""
    emb = np.random.default_rng(seed).normal(size=(n, DIM)).astype(np.float32)
    emb[-50:] = emb[:50]
    return {"id": list(range(first_id, first_id + n)), "emb": emb}


def reference_search(client, query, k, *, file_predicate=None):
    """The scoring plan as it was: per-list ADC, one ``locate`` per hit,
    a stable sort of ``(entry, offset, score)`` tuples cut to
    ``refine``, then refine and brute-force fill."""
    store, lake = client.store, client.lake
    snap = lake.snapshot()
    paths = scope(snap, None, file_predicate)
    chosen, uncovered = plan(client.meta.records(), "emb", query.index_types, paths)
    candidates = []
    for record in chosen:
        reader = IndexFileReader.open(store, record.index_key, size=record.size)
        hits = reference_candidates(
            IvfPqQuerier(reader), query.vector, nprobe=query.nprobe, limit=query.refine
        )
        for gid, offset, score in zip(*hits):
            entry = reader.directory.locate(gid)
            if entry.file_key in paths:
                candidates.append((entry, offset, score))
    candidates.sort(key=lambda c: c[2])
    del candidates[query.refine :]
    pages = {}
    for entry, offset, _ in candidates:
        pages.setdefault((entry.file_key, entry.page_id), (entry, set()))[1].add(offset)
    found = []
    entries = [entry for entry, _ in pages.values()]
    field = snap.schema.field("emb")
    payloads = fetch_pages(store, entries) if entries else []
    for (entry, offsets), raw in zip(pages.values(), payloads):
        values = decode_values(field, raw, entry.num_values)
        dv = lake.deletion_vector(snap, entry.file_key)
        for offset in offsets:
            row, value = entry.row_start + offset, values[offset]
            if row not in dv:
                found.append(
                    SearchMatch(entry.file_key, row, value, query.distance(value))
                )
    for path in sorted(uncovered):
        for row, value in live_rows(store, lake, snap, "emb", path):
            found.append(SearchMatch(path, row, value, query.distance(value)))
    return merge_topk([found], k), len(candidates)


def _shape(matches):
    return [(m.file, m.row, m.score) for m in matches]


@pytest.fixture
def lake_client(store, small_config):
    """Five files under three index files plus one unindexed file:

    * ``A`` and ``B`` under one index file (a scoped query can leave
      ``B`` out of scope while ``A``'s hits stay);
    * ``C`` and its copy ``C2`` under two index files with identical
      contents, so their scores tie across records;
    * ``D`` indexed by nothing (the brute-force fill);
    * a few rows deleted from ``A`` and ``C``."""
    lake = LakeTable.create(store, "lake/vec", SCHEMA, small_config)
    client = RottnestClient(store, "idx/vec", lake)
    lake.append(batch(1, first_id=0))
    lake.append(batch(2, first_id=1000))
    client.index("emb", "ivf_pq", params=PARAMS)
    lake.append(batch(3, first_id=2000))
    client.index("emb", "ivf_pq", params=PARAMS)
    lake.append(batch(3, first_id=3000))
    client.index("emb", "ivf_pq", params=PARAMS)
    lake.append(batch(4, n=120, first_id=4000))
    lake.delete_where("id", lambda i: i % 1000 in (0, 3, 57, 260))
    return client


def _queries():
    probe = batch(3)["emb"]
    rng = np.random.default_rng(9)
    vectors = [probe[0], probe[7], probe[260], rng.normal(size=DIM), np.zeros(DIM)]
    settings = [(1, 1), (3, 7), (8, 40), (30, 2000), (2, 75)]
    return [
        VectorQuery(vector, nprobe=nprobe, refine=refine)
        for vector in vectors
        for nprobe, refine in settings
    ]


class TestArrayPathEqualsPerHitPath:
    @pytest.mark.parametrize("scoped", [False, True])
    def test_client_and_executor_match_the_reference(self, lake_client, scoped):
        lake = lake_client.lake
        first_b = lake.snapshot().file_paths[1]
        predicate = (lambda path: path != first_b) if scoped else None
        assert len(lake_client.meta.records()) == 3
        with SearchExecutor(lake_client, max_searchers=2) as executor:
            for query in _queries():
                for k in (1, 5, 20):
                    expected, candidates = reference_search(
                        lake_client, query, k, file_predicate=predicate
                    )
                    for runner in (lake_client, executor):
                        result = runner.search(
                            "emb", query, k=k, file_predicate=predicate
                        )
                        assert _shape(result.matches) == _shape(expected)
                        assert result.stats.candidates == candidates
                        assert result.stats.index_files_queried == 3

    def test_twin_index_files_tie(self, lake_client):
        """The fixture does what it claims: ``C`` and ``C2`` are scored
        identically by their two index files."""
        store = lake_client.store
        c, c2 = [r for r in lake_client.meta.records()][1:]
        scores = [
            IvfPqQuerier(IndexFileReader.open(store, r.index_key)).candidates(
                batch(3)["emb"][5], nprobe=8, limit=300
            )[2]
            for r in (c, c2)
        ]
        assert np.array_equal(scores[0], scores[1])


class TestQueryDimension:
    """One check in the plan: a wrong-length query vector is refused on
    indexed, unindexed and mixed lakes, by either runner."""

    @pytest.fixture(params=["indexed", "unindexed", "mixed"])
    def client(self, request, store, small_config):
        lake = LakeTable.create(store, "lake/dim", SCHEMA, small_config)
        client = RottnestClient(store, "idx/dim", lake)
        lake.append(batch(1))
        if request.param != "unindexed":
            client.index("emb", "ivf_pq", params=PARAMS)
        if request.param == "mixed":
            lake.append(batch(2, n=60))
        return client

    @pytest.mark.parametrize("dim", [1, DIM - 1, DIM + 1, 2 * DIM])
    def test_wrong_dimension_is_refused(self, client, dim):
        query = VectorQuery(np.ones(dim, dtype=np.float32), nprobe=4, refine=40)
        with SearchExecutor(client, max_searchers=2) as executor:
            for runner in (client, executor):
                with pytest.raises(RottnestIndexError, match="dim"):
                    runner.search("emb", query, k=3)

    def test_right_dimension_is_answered(self, client):
        query = VectorQuery(np.ones(DIM, dtype=np.float32), nprobe=4, refine=40)
        assert len(client.search("emb", query, k=3).matches) == 3
