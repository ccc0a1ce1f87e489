"""Edge-case and knob coverage across modules."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.componentize import ComponentFileReader, ComponentFileWriter
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.uuid_trie import UuidTrieBuilder, UuidTrieQuerier
from repro.storage.object_store import InMemoryObjectStore


def trie_store(builder, n_pages=4):
    table = PageTable(
        "f", "uuid",
        [PageEntry("f", i, 4 + i * 10, 10, 10, i * 10, 1, crc=0) for i in range(n_pages)],
    )
    w = IndexFileWriter("uuid_trie", "uuid", PageDirectory([table]))
    builder.write(w)
    store = InMemoryObjectStore()
    store.put("t.index", w.finish())
    return UuidTrieQuerier(IndexFileReader.open(store, "t.index"))


class TestTrieKnobs:
    def test_extra_bits_zero_still_correct(self):
        """No merge headroom: lookups stay correct, prefixes shorter."""
        keys = [hashlib.sha256(str(i).encode()).digest()[:16]
                for i in range(500)]
        pages = [(g, keys[g * 125 : (g + 1) * 125]) for g in range(4)]
        tight = UuidTrieBuilder.build(pages, extra_bits=0)
        loose = UuidTrieBuilder.build(pages, extra_bits=16)
        q_tight = trie_store(tight)
        q_loose = trie_store(loose)
        for i in (0, 250, 499):
            expected = i // 125
            assert expected in q_tight.candidate_pages(keys[i])
            assert expected in q_loose.candidate_pages(keys[i])
        tight_bytes = sum(len(e.prefix) for e in tight.entries)
        loose_bytes = sum(len(e.prefix) for e in loose.entries)
        assert tight_bytes < loose_bytes

    def test_extra_bits_reduce_merge_collisions(self):
        """More headroom -> fewer multi-page entries after merging."""
        def build_merged(extra):
            parts = []
            for p in range(4):
                keys = [hashlib.sha256(f"{p}:{i}".encode()).digest()[:16]
                        for i in range(250)]
                parts.append(UuidTrieBuilder.build([(0, keys)],
                                                   extra_bits=extra))
            return UuidTrieBuilder.merge_streaming(parts, [0, 1, 2, 3])

        collisions_tight = sum(
            len(e.gids) > 1 for e in build_merged(0).entries
        )
        collisions_loose = sum(
            len(e.gids) > 1 for e in build_merged(8).entries
        )
        assert collisions_loose <= collisions_tight

    def test_adversarial_shared_prefixes(self):
        """Keys sharing long prefixes force deep distinguishing bits."""
        base = b"\xab" * 15
        keys = [base + bytes([i]) for i in range(256)]
        builder = UuidTrieBuilder.build([(g, keys[g * 64 : (g + 1) * 64])
                                         for g in range(4)])
        q = trie_store(builder)
        for i in (0, 63, 64, 255):
            assert i // 64 in q.candidate_pages(keys[i])

    def test_all_identical_keys(self):
        key = b"\x42" * 16
        builder = UuidTrieBuilder.build([(0, [key] * 5), (3, [key] * 5)])
        q = trie_store(builder)
        assert q.candidate_pages(key) == [0, 3]


class TestComponentizeProperties:
    @given(
        chunks=st.lists(st.binary(min_size=0, max_size=2000), min_size=1,
                        max_size=20),
        header_value=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, chunks, header_value):
        w = ComponentFileWriter()
        ids = [w.add(c) for c in chunks]
        store = InMemoryObjectStore()
        store.put("c.index", w.finish({"v": header_value}))
        r = ComponentFileReader.open(store, "c.index")
        assert r.header == {"v": header_value}
        for cid, chunk in zip(ids, chunks):
            assert r.read(cid) == chunk

    def test_empty_component(self):
        w = ComponentFileWriter()
        w.add(b"")
        store = InMemoryObjectStore()
        store.put("c.index", w.finish({}))
        assert ComponentFileReader.open(store, "c.index").read(0) == b""


class TestQueriesEdgeCases:
    def test_vector_query_validates_params(self):
        from repro.errors import TCOError
        from repro.core.queries import VectorQuery

        with pytest.raises(TCOError):
            VectorQuery(np.zeros(4), nprobe=0)
        with pytest.raises(TCOError):
            VectorQuery(np.zeros(4), refine=0)

    def test_vector_query_flattens(self):
        from repro.core.queries import VectorQuery

        q = VectorQuery(np.zeros((1, 4)))
        assert q.vector.shape == (4,)

    def test_regex_query_matches(self):
        from repro.core.queries import RegexQuery

        q = RegexQuery(r"err(or)?s?\b")
        assert q.matches("5 errors seen")
        assert not q.matches("erratic")

    def test_uuid_matches_bytearray(self):
        from repro.core.queries import UuidQuery

        assert UuidQuery(b"\x01").matches(bytearray(b"\x01"))


class TestDaemonWithBloomAndMinmax:
    def test_daemon_maintains_alternative_index_types(
        self, store, event_lake, clock
    ):
        from repro.core.client import RottnestClient
        from repro.core.daemon import MaintenanceDaemon, MaintenancePolicy
        from repro.core.queries import UuidQuery
        from tests.conftest import event_batch, event_uuid

        client = RottnestClient(store, "idx/events", event_lake)
        daemon = MaintenanceDaemon(
            client,
            [("uuid", "bloom"), ("uuid", "minmax")],
            policy=MaintenancePolicy(vacuum_interval_s=1.0),
        )
        daemon.tick()
        event_lake.append(event_batch(60, seed=40))
        clock.advance(10)
        daemon.tick()
        key = event_uuid(40, 3)
        res = client.search("uuid", UuidQuery(key), k=5)
        assert len(res.matches) == 1
        assert res.stats.files_brute_forced == 0
