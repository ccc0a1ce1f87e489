"""Binary trie index: correctness vs a hash-map reference (§V-C1)."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import FormatError, RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.bits import lcp_bits, prefix_matches, truncate_bits
from repro.indices.uuid_trie import UuidTrieBuilder, UuidTrieQuerier
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import tracing


class TestBitHelpers:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (b"\x00", b"\x00", 8),
            (b"\x00", b"\x80", 0),
            (b"\x00", b"\x01", 7),
            (b"\xff\x00", b"\xff\x80", 8),
            (b"\xab\xcd", b"\xab\xcd", 16),
            (b"\xab", b"\xab\xcd", 8),
        ],
    )
    def test_lcp_bits(self, a, b, expected):
        assert lcp_bits(a, b) == expected
        assert lcp_bits(b, a) == expected

    @pytest.mark.parametrize(
        "key,bits,expected",
        [
            (b"\xff\xff", 4, b"\xf0"),
            (b"\xff\xff", 8, b"\xff"),
            (b"\xff\xff", 12, b"\xff\xf0"),
            (b"\xff\xff", 16, b"\xff\xff"),
            (b"\xff\xff", 99, b"\xff\xff"),
            (b"\xab", 0, b""),
        ],
    )
    def test_truncate_bits(self, key, bits, expected):
        assert truncate_bits(key, bits) == expected

    def test_prefix_matches(self):
        assert prefix_matches(b"\xf0", 4, b"\xff\x00")
        assert not prefix_matches(b"\xf0", 4, b"\x0f")
        assert not prefix_matches(b"\xf0\x00", 12, b"\xf0")  # key too short

    @given(st.binary(min_size=1, max_size=8), st.integers(1, 64))
    def test_truncation_is_prefix(self, key, bits):
        bits = min(bits, len(key) * 8)
        assert prefix_matches(truncate_bits(key, bits), bits, key)


def key_of(i: int) -> bytes:
    return hashlib.sha256(str(i).encode()).digest()[:16]


def build_pages(n_keys: int, n_pages: int):
    pages: dict[int, list[bytes]] = {g: [] for g in range(n_pages)}
    truth: dict[bytes, int] = {}
    for i in range(n_keys):
        key = key_of(i)
        gid = i % n_pages
        pages[gid].append(key)
        truth[key] = gid
    return list(pages.items()), truth


def store_index(builder, n_pages, **write_kwargs):
    table = PageTable(
        "f.parquet",
        "uuid",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 10, i * 10, 1, crc=0)
            for i in range(n_pages)
        ],
    )
    w = IndexFileWriter("uuid_trie", "uuid", PageDirectory([table]))
    builder.write(w, **write_kwargs)
    store = InMemoryObjectStore()
    store.put("i.index", w.finish())
    return store, IndexFileReader.open(store, "i.index")


class TestTrieBuild:
    def test_empty_rejected(self):
        with pytest.raises(RottnestIndexError):
            UuidTrieBuilder.build([])

    def test_empty_key_rejected(self):
        with pytest.raises(RottnestIndexError):
            UuidTrieBuilder.build([(0, [b""])])

    def test_all_present_keys_found(self):
        pages, truth = build_pages(2000, 8)
        builder = UuidTrieBuilder.build(pages)
        store, reader = store_index(builder, 8)
        q = UuidTrieQuerier(reader)
        for i in range(0, 2000, 97):
            key = key_of(i)
            assert truth[key] in q.candidate_pages(key)

    def test_absent_keys_rarely_match(self):
        pages, _ = build_pages(1000, 4)
        builder = UuidTrieBuilder.build(pages)
        _, reader = store_index(builder, 4)
        q = UuidTrieQuerier(reader)
        false_hits = sum(
            bool(q.candidate_pages(hashlib.sha256(f"absent{i}".encode()).digest()[:16]))
            for i in range(200)
        )
        # LCP+8 extra bits makes false positives vanishingly rare.
        assert false_hits <= 2

    def test_duplicate_keys_merge_postings(self):
        key = key_of(1)
        builder = UuidTrieBuilder.build([(0, [key]), (3, [key])])
        _, reader = store_index(builder, 4)
        q = UuidTrieQuerier(reader)
        assert q.candidate_pages(key) == [0, 3]

    def test_empty_query_rejected(self):
        pages, _ = build_pages(10, 1)
        builder = UuidTrieBuilder.build(pages)
        _, reader = store_index(builder, 1)
        with pytest.raises(RottnestIndexError):
            UuidTrieQuerier(reader).candidate_pages(b"")

    def test_truncation_smaller_than_full_keys(self):
        pages, _ = build_pages(5000, 8)
        builder = UuidTrieBuilder.build(pages)
        total_prefix_bytes = sum(len(e.prefix) for e in builder.entries)
        assert total_prefix_bytes < 5000 * 16 / 2  # better than half


class TestTrieSerialization:
    def test_load_roundtrip(self):
        pages, _ = build_pages(500, 4)
        builder = UuidTrieBuilder.build(pages)
        _, reader = store_index(builder, 4)
        loaded = UuidTrieBuilder.load(reader)
        assert len(loaded.entries) == len(builder.entries)
        assert loaded.entries[0].prefix == builder.entries[0].prefix

    def test_small_components_increase_leaf_count(self):
        pages, _ = build_pages(2000, 4)
        builder = UuidTrieBuilder.build(pages)
        _, r_small = store_index(builder, 4, component_target_bytes=1024)
        _, r_big = store_index(builder, 4, component_target_bytes=1 << 20)
        assert r_small.params["num_leaves"] > r_big.params["num_leaves"]

    def test_query_reads_one_leaf(self):
        pages, truth = build_pages(3000, 4)
        builder = UuidTrieBuilder.build(pages)
        store, reader = store_index(builder, 4, component_target_bytes=2048)
        q = UuidTrieQuerier(reader)
        key = key_of(123)
        with tracing() as t:
            q.candidate_pages(key)
        # LUT rides in the tail; at most one leaf GET (zero if the whole
        # file fit in the tail, but 3000 keys exceed 256 KB? not always).
        assert t.total_requests <= 1

    def test_merge_equals_joint_build(self):
        pages, truth = build_pages(600, 6)
        b_all = UuidTrieBuilder.build(pages)
        b1 = UuidTrieBuilder.build(pages[:3])
        b2 = UuidTrieBuilder.build([(g - 3, vals) for g, vals in pages[3:]])
        merged = UuidTrieBuilder.merge_streaming([b1, b2], [0, 3])
        _, reader = store_index(merged, 6)
        q = UuidTrieQuerier(reader)
        for i in range(0, 600, 41):
            key = key_of(i)
            assert truth[key] in q.candidate_pages(key)

    def test_merge_mismatched_offsets_rejected(self):
        pages, _ = build_pages(10, 1)
        b = UuidTrieBuilder.build(pages)
        with pytest.raises(RottnestIndexError):
            UuidTrieBuilder.merge_streaming([b], [0, 1])


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(
        st.binary(min_size=2, max_size=12), min_size=1, max_size=80, unique=True
    ),
    n_pages=st.integers(1, 6),
)
def test_trie_matches_dict_reference(keys, n_pages):
    """Property: trie lookups are a superset of exact-match truth and
    never miss (false positives allowed, false negatives never)."""
    pages: dict[int, list[bytes]] = {g: [] for g in range(n_pages)}
    truth: dict[bytes, set[int]] = {}
    for i, key in enumerate(keys):
        gid = i % n_pages
        pages[gid].append(key)
        truth.setdefault(key, set()).add(gid)
    builder = UuidTrieBuilder.build(list(pages.items()))
    _, reader = store_index(builder, n_pages)
    q = UuidTrieQuerier(reader)
    for key, expected in truth.items():
        got = set(q.candidate_pages(key))
        assert expected <= got


# -- the byte-offset LUT against the layout it replaced ------------------
def brute_force(builder, key):
    """What any layout must return: a prefix scan over the entries."""
    hits = set()
    for e in builder.entries:
        if prefix_matches(e.prefix, e.bits, key):
            hits.update(e.gids)
    return sorted(hits)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.binary(min_size=1, max_size=6), min_size=1, max_size=60),
    shape=st.sampled_from(["any", "one_bucket", "hollow_ends"]),
    target=st.sampled_from([1, 48, 1 << 20]),
)
@example(keys=[b"\x00", b"\xff", b"\x00", b"\x7f\x01"], shape="any", target=1)
@example(keys=[b"a", b"ab", b"ab", b"abc"], shape="one_bucket", target=1)
def test_layouts_agree_with_prefix_scan(keys, shape, target):
    """Every leaf layout == brute force, on key sets with
    1-byte and duplicate keys, everything in one bucket, empty buckets
    at 0x00 / 0xFF, and a leaf target small enough that every non-empty
    bucket closes its own leaf."""
    if shape == "one_bucket":
        keys = [b"\x7f" + k[1:] for k in keys]
    elif shape == "hollow_ends":
        keys = [bytes([min(max(k[0], 1), 0xFE)]) + k[1:] for k in keys]
    n_pages = 3
    pages = [(g, keys[g::n_pages]) for g in range(n_pages) if keys[g::n_pages]]
    builder = UuidTrieBuilder.build(pages)
    _, reader = store_index(builder, n_pages, component_target_bytes=target)
    assert reader.has_component("lutb")
    probes = set(keys) | {k[:-1] + bytes([k[-1] ^ 1]) for k in keys}
    probes |= {b"\x00", b"\xff", b"\x7f"}
    for key in sorted(probes):
        expected = brute_force(builder, key)
        assert UuidTrieQuerier(reader).candidate_pages(key) == expected, key


class TestLutLayouts:
    def test_truncated_lut_is_a_format_error(self):
        pages, _ = build_pages(50, 2)
        _, reader = store_index(UuidTrieBuilder.build(pages), 2)
        lut, read = reader._names["lutb"], reader._reader.read
        reader._reader.read = lambda cid: read(cid)[:100] if cid == lut else read(cid)
        with pytest.raises(FormatError, match="lutb"):
            UuidTrieQuerier(reader).candidate_pages(key_of(1))

    def test_probe_issues_the_parents_requests(self, monkeypatch):
        """Open at the record's size = one tail GET (LUT inside it);
        probe = one dependent GET of exactly one leaf."""
        from repro.core import componentize

        monkeypatch.setattr(componentize, "TAIL_SPECULATIVE_BYTES", 4096)
        pages, truth = build_pages(3000, 4)
        builder = UuidTrieBuilder.build(pages)
        store, _ = store_index(builder, 4, component_target_bytes=2048)
        key = key_of(123)
        size = store.head("i.index").size
        with tracing() as trace:
            reader = IndexFileReader.open(store, "i.index", size=size)
            assert UuidTrieQuerier(reader).candidate_pages(key) == [truth[key]]
        leaf_sizes = {
            reader._reader.component_size(reader._names[name])
            for name in reader.component_names()
            if name.startswith("leaf")
        }
        shape = [[r.op for r in round_] for round_ in trace.rounds]
        assert shape == [["GET"], ["GET"]]
        assert trace.rounds[0][0].nbytes == 4096  # the tail, nothing more
        assert trace.rounds[1][0].nbytes in leaf_sizes
