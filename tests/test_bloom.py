"""Bloom-filter index: correctness, FP rates, merging, client use."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RottnestIndexError
from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.queries import UuidQuery
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.bloom import BloomBuilder, BloomQuerier, PageBloom
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import tracing
from repro.util.binio import BinaryReader, BinaryWriter

from tests.conftest import event_uuid


def key_of(i: int) -> bytes:
    return hashlib.sha256(str(i).encode()).digest()[:16]


def store_bloom(builder, n_pages, **write_kwargs):
    table = PageTable(
        "f.parquet",
        "uuid",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 10, i * 10, 1, crc=0)
            for i in range(n_pages)
        ],
    )
    w = IndexFileWriter("bloom", "uuid", PageDirectory([table]))
    builder.write(w, **write_kwargs)
    store = InMemoryObjectStore()
    store.put("b.index", w.finish())
    return store, BloomQuerier(IndexFileReader.open(store, "b.index"))


class TestPageBloom:
    def test_contains_all_inserted(self):
        keys = [key_of(i) for i in range(500)]
        bloom = PageBloom.build(0, keys, bits_per_key=12, num_hashes=7)
        assert all(bloom.might_contain(k) for k in keys)

    def test_false_positive_rate_bounded(self):
        keys = [key_of(i) for i in range(1000)]
        bloom = PageBloom.build(0, keys, bits_per_key=12, num_hashes=7)
        absent = [key_of(10_000 + i) for i in range(2000)]
        fp = sum(bloom.might_contain(k) for k in absent) / len(absent)
        # Theory for 12 bits/key, 7 hashes: ~0.3%; allow headroom.
        assert fp < 0.02

    def test_fewer_bits_more_false_positives(self):
        keys = [key_of(i) for i in range(1000)]
        tight = PageBloom.build(0, keys, bits_per_key=4, num_hashes=3)
        loose = PageBloom.build(0, keys, bits_per_key=16, num_hashes=7)
        absent = [key_of(10_000 + i) for i in range(2000)]
        fp_tight = sum(tight.might_contain(k) for k in absent)
        fp_loose = sum(loose.might_contain(k) for k in absent)
        assert fp_loose < fp_tight

    def test_serialize_roundtrip(self):
        bloom = PageBloom.build(3, [key_of(1)], bits_per_key=10, num_hashes=5)
        w = BinaryWriter()
        bloom.serialize(w)
        back = PageBloom.deserialize(BinaryReader(w.getvalue()))
        assert back.gid == 3
        assert back.num_bits == bloom.num_bits
        assert back.might_contain(key_of(1))


class TestBloomBuilder:
    def test_empty_rejected(self):
        with pytest.raises(RottnestIndexError):
            BloomBuilder.build([])

    def test_empty_query_rejected(self):
        builder = BloomBuilder.build([(0, [key_of(1)])])
        _, q = store_bloom(builder, 1)
        with pytest.raises(RottnestIndexError):
            q.candidate_pages(b"")

    def test_no_false_negatives(self):
        pages = [(g, [key_of(g * 100 + i) for i in range(100)]) for g in range(8)]
        builder = BloomBuilder.build(pages)
        _, q = store_bloom(builder, 8)
        for g, keys in pages:
            assert g in q.candidate_pages(keys[0])
            assert g in q.candidate_pages(keys[-1])

    def test_absent_keys_few_pages(self):
        pages = [(g, [key_of(g * 100 + i) for i in range(100)]) for g in range(8)]
        builder = BloomBuilder.build(pages)
        _, q = store_bloom(builder, 8)
        total = sum(
            len(q.candidate_pages(key_of(50_000 + i))) for i in range(100)
        )
        assert total <= 10  # ~0.3% FP x 8 pages x 100 probes

    def test_single_parallel_round(self):
        pages = [
            (g, [key_of(g * 1000 + i) for i in range(1000)]) for g in range(20)
        ]
        builder = BloomBuilder.build(pages)
        store, _ = store_bloom(builder, 20, component_target_bytes=4096)
        q = BloomQuerier(IndexFileReader.open(store, "b.index"))
        with tracing() as trace:
            q.candidate_pages(key_of(5))
        assert trace.depth <= 1  # all components in one round

    def test_load_roundtrip(self):
        pages = [(g, [key_of(g * 10 + i) for i in range(10)]) for g in range(4)]
        builder = BloomBuilder.build(pages)
        _, q = store_bloom(builder, 4, component_target_bytes=128)
        loaded = BloomBuilder.load(q.reader)
        assert [b.gid for b in loaded.blooms] == [0, 1, 2, 3]
        assert loaded.blooms[2].might_contain(key_of(21))

    def test_merge_shifts_gids(self):
        b1 = BloomBuilder.build([(0, [key_of(1)]), (1, [key_of(2)])])
        b2 = BloomBuilder.build([(0, [key_of(3)])])
        merged = BloomBuilder.merge_streaming([b1, b2], [0, 2])
        _, q = store_bloom(merged, 3)
        # No false negatives after the shift (tiny 12-bit filters may
        # add false-positive pages; the client's probing absorbs those).
        assert 2 in q.candidate_pages(key_of(3))
        assert 0 in q.candidate_pages(key_of(1))

    def test_merge_mismatch_rejected(self):
        b = BloomBuilder.build([(0, [key_of(1)])])
        with pytest.raises(RottnestIndexError):
            BloomBuilder.merge_streaming([b], [0, 1])

    @given(
        st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=40,
                 unique=True),
        st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_false_negatives_property(self, keys, n_pages):
        pages = {g: [] for g in range(n_pages)}
        truth = {}
        for i, key in enumerate(keys):
            pages[i % n_pages].append(key)
            truth.setdefault(key, set()).add(i % n_pages)
        pages = {g: v for g, v in pages.items() if v}
        builder = BloomBuilder.build(list(pages.items()))
        _, q = store_bloom(builder, n_pages)
        for key, expected in truth.items():
            assert expected <= set(q.candidate_pages(key))


class TestBloomThroughClient:
    def test_uuid_query_served_by_bloom_index(self, store, event_lake):
        client = RottnestClient(store, "idx/events", event_lake)
        record = client.index("uuid", "bloom")
        assert record.index_type == "bloom"
        key = event_uuid(1, 7)
        res = client.search("uuid", UuidQuery(key), k=5)
        assert len(res.matches) == 1
        assert bytes(res.matches[0].value) == key
        assert res.stats.files_brute_forced == 0

    def test_trie_preferred_over_bloom_on_tie(self, store, event_lake):
        client = RottnestClient(store, "idx/events", event_lake)
        client.index("uuid", "bloom")
        client.index("uuid", "uuid_trie")
        key = event_uuid(2, 3)
        res = client.search("uuid", UuidQuery(key), k=5)
        assert len(res.matches) == 1
        # Same created_at second: the trie ranks first in
        # UuidQuery.index_types, so exactly one index file is queried.
        assert res.stats.index_files_queried == 1

    def test_bloom_much_smaller_than_trie(self, store, event_lake):
        client = RottnestClient(store, "idx/events", event_lake)
        bloom = client.index("uuid", "bloom")
        trie = client.index("uuid", "uuid_trie")
        assert bloom.size < trie.size
