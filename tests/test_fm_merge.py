"""FM merge (inversion from the SA samples plus one build) and the
multi-sentinel files the earlier interleave merge wrote."""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.errors import RottnestIndexError
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.fm.bwt import invert_bwt
from repro.indices.fm.fm_index import FmBuilder, FmQuerier, page_text
from repro.storage.object_store import InMemoryObjectStore

#: A three-part FM file written by the interleave merge (block size 64,
#: sample rate 4, no page map), over these pages with gids 0..5.
LEGACY_FIXTURE = Path(__file__).parent / "data" / "fm_legacy_3sentinels.index"
LEGACY_PAGES = [
    [["abracadabra", "banana bread"], ["cabana", "bandana"]],
    [["aaaaaaaaaaaa", "aaaa banana"], ["mississippi", "missing"]],
    [["panama canal", "abba"], ["nab a cab", "aaaaa"]],
]


def from_text(text: bytes, **params) -> FmBuilder:
    """A one-page builder over raw ``text``."""
    params = {"block_size": 64, "sample_rate": 4, **params}
    return FmBuilder._from_text(text, [len(text)], [0], **params)


def file_bytes(builder: FmBuilder) -> bytes:
    table = PageTable(
        "f.parquet",
        "text",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 1, i, 1)
            for i in range(max(builder.page_gids) + 1)
        ],
    )
    writer = IndexFileWriter("fm", "text", PageDirectory([table]))
    builder.write(writer)
    return writer.finish()


def open_file(data: bytes) -> IndexFileReader:
    store = InMemoryObjectStore()
    store.put("i.index", data)
    return IndexFileReader.open(store, "i.index")


def legacy_builder(
    parts: list[list[tuple[int, list[str]]]],
    *,
    block_size: int = 64,
    sample_rate: int = 4,
) -> FmBuilder:
    """The multi-string FM index the interleave merge produced from one
    fresh build per part, constructed naively: every suffix of every
    part's text, ended by that part's own sentinel (part ``i``'s sorts
    below part ``j``'s for ``i < j``), sorted; samples at each part's
    own multiples of the rate; the sentinel suffix's page is its part's
    last page."""
    texts = [b"".join(page_text(v) for _, v in pages) for pages in parts]
    k = len(texts)
    suffixes = []
    offset = 0
    for i, (text, pages) in enumerate(zip(texts, parts)):
        ends = np.cumsum([len(page_text(v)) for _, v in pages])
        for p in range(len(text) + 1):
            key = [k + c for c in text[p:]] + [i]
            page_index = int(np.searchsorted(ends, p, side="right"))
            page = pages[min(page_index, len(pages) - 1)][0]
            suffixes.append((key, i, p, offset + p, page))
        offset += len(text)
    suffixes.sort(key=lambda s: s[0])
    bwt = bytes(
        texts[i][p - 1] if p else 0 for _, i, p, _, _ in suffixes
    )
    sentinels = [row for row, s in enumerate(suffixes) if s[2] == 0]
    sampled = [row for row, s in enumerate(suffixes) if s[2] % sample_rate == 0]
    return FmBuilder(
        bwt=bwt,
        sentinels=sentinels,
        pagemap=np.array([s[4] for s in suffixes], dtype=np.uint32),
        sample_rows=np.array(sampled, dtype=np.int64),
        sample_positions=np.array([suffixes[r][3] for r in sampled], dtype=np.int64),
        page_lens=[len(page_text(v)) for pages in parts for _, v in pages],
        page_gids=[g for pages in parts for g, _ in pages],
        block_size=block_size,
        sample_rate=sample_rate,
    )


class TestMergeBwts:
    @pytest.mark.parametrize(
        "text_a,text_b",
        [
            (b"banana", b"ananas"),
            (b"aaa", b"aaa"),
            (b"abc", b"xyz"),
            (b"", b"hello"),
            (b"x", b""),
            (b"mississippi", b"mission"),
        ],
    )
    def test_merged_collection_inverts_to_both_texts(self, text_a, text_b):
        merged = FmBuilder.merge_streaming([from_text(text_a), from_text(text_b)], [0, 1])
        assert len(merged.sentinels) == 1
        assert merged.text() == text_a + text_b
        assert merged.bwt == from_text(text_a + text_b).bwt

    @given(st.binary(max_size=60), st.binary(max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_inverts_property(self, text_a, text_b):
        merged = FmBuilder.merge_streaming([from_text(text_a), from_text(text_b)], [0, 1])
        assert merged.text() == text_a + text_b


class TestMultiStringInversion:
    def test_three_way(self):
        """A three-sentinel collection inverts to its texts in order."""
        parts = [[(0, ["first text"])], [(1, ["second one"])], [(2, ["third"])]]
        legacy = legacy_builder(parts)
        assert len(legacy.sentinels) == 3
        assert legacy.text() == b"first text\x00second one\x00third\x00"

    def test_requires_sentinels(self):
        with pytest.raises(ValueError):
            invert_bwt(b"\x00", [], np.array([0]), np.array([0]))

    @given(
        st.lists(
            st.lists(st.text(alphabet="ab \x01", max_size=12), max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverts_any_multi_sentinel_collection(self, part_rows, rate):
        parts = [[(i, rows)] for i, rows in enumerate(part_rows)]
        legacy = legacy_builder(parts, sample_rate=rate)
        assert legacy.text() == b"".join(page_text(rows) for rows in part_rows)


page_rows = st.one_of(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=1, max_codepoint=300),
            max_size=20,
        ),
        max_size=5,
    ),
    # Highly repetitive: the input the interleave took longest on.
    st.integers(1, 80).map(lambda n: ["a" * n]),
    st.tuples(st.sampled_from(["ab", "aab", "x"]), st.integers(1, 30)).map(
        lambda unit_times: [unit_times[0] * unit_times[1]] * 2
    ),
)


class TestMergeEqualsFreshBuild:
    @given(
        st.lists(
            st.lists(page_rows, min_size=1, max_size=3).filter(
                lambda pages: any(pages)
            ),
            min_size=2,
            max_size=4,
        ),
        st.sampled_from([32, 256]),
        st.sampled_from([2, 8]),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_fresh_build_property(
        self, parts_rows, block_size, sample_rate, store_pagemap
    ):
        """``merge_streaming`` of 2-4 parts (a list or a lazy iterator),
        and a chain of pairwise merges, write the bytes a build over
        the concatenated pages writes."""
        params = dict(
            block_size=block_size,
            sample_rate=sample_rate,
            store_pagemap=store_pagemap,
        )
        parts, offsets, pages = [], [], []
        for rows_per_page in parts_rows:
            offsets.append(len(pages))
            local = list(enumerate(rows_per_page))
            parts.append(FmBuilder.build(local, **params))
            pages.extend((offsets[-1] + g, rows) for g, rows in local)
        expected = file_bytes(FmBuilder.build(pages, **params))
        assert file_bytes(FmBuilder.merge_streaming(parts, offsets)) == expected
        streamed = FmBuilder.merge_streaming(iter(parts), offsets)
        assert file_bytes(streamed) == expected
        chained = parts[0]
        for part, offset in zip(parts[1:], offsets[1:]):
            chained = FmBuilder.merge_streaming([chained, part], [0, offset])
        assert file_bytes(chained) == expected

    def test_loaded_parts_merge_to_fresh_build(self):
        """Parts read back from files (no page map loaded) merge to the
        fresh build's bytes, page map included."""
        from repro.workloads.text import TextWorkload

        gen = TextWorkload(seed=5, vocabulary_size=200)
        pages = [(g, gen.documents(6, avg_chars=40)) for g in range(4)]
        parts = [
            FmBuilder.build([(0, v)], block_size=128, sample_rate=8)
            for _, v in pages
        ]
        loaded = [FmBuilder.load(open_file(file_bytes(p))) for p in parts]
        assert not any(len(part.pagemap) for part in loaded)
        merged = FmBuilder.merge_streaming(iter(loaded), [0, 1, 2, 3])
        expected = FmBuilder.build(pages, block_size=128, sample_rate=8)
        assert file_bytes(merged) == file_bytes(expected)
        with pytest.raises(RottnestIndexError, match="merge input"):
            file_bytes(loaded[0])


class TestLegacyMultiSentinelFixture:
    """A file the interleave merge wrote: answered like the oracle, and
    merged into a correct single-sentinel file."""

    @pytest.fixture
    def reader(self):
        return open_file(LEGACY_FIXTURE.read_bytes())

    @staticmethod
    def oracle_pages():
        return [
            (2 * part + page, rows)
            for part, pages in enumerate(LEGACY_PAGES)
            for page, rows in enumerate(pages)
        ]

    def test_legacy_multi_sentinel_answers_like_oracle(self, reader):
        assert len(reader.params["sentinels"]) == 3
        pages = self.oracle_pages()
        full = b"".join(page_text(rows) for _, rows in pages)
        for needle in ["a", "ana", "ab", "aaaa", "miss", "cab", "nab a", "zz"]:
            q = FmQuerier(reader)
            starts = [
                i for i in range(len(full)) if full.startswith(needle.encode(), i)
            ]
            assert q.count(needle) == len(starts), needle
            assert q.locate_positions(needle, limit=1000) == starts, needle
            assert q.candidate_pages(needle) == [
                gid for gid, rows in pages if any(needle in row for row in rows)
            ], needle

    def test_legacy_multi_sentinel_matches_naive_reference(self, reader):
        """The naive multi-string construction these tests use for
        legacy parts is what the interleave merge wrote."""
        loaded = FmBuilder.load(reader)
        naive = legacy_builder(
            [list(enumerate(pages)) for pages in LEGACY_PAGES],
            sample_rate=4,
        )
        assert loaded.bwt == naive.bwt
        assert loaded.sentinels == naive.sentinels

    def test_legacy_multi_sentinel_merges_to_single_sentinel(self, reader):
        legacy = FmBuilder.load(reader)
        extra = [(0, ["bandana banana", "cabal"])]
        fresh = FmBuilder.build(
            extra, block_size=64, sample_rate=4, store_pagemap=False
        )
        merged = FmBuilder.merge_streaming(iter([legacy, fresh]), [0, 6])
        assert len(merged.sentinels) == 1
        pages = self.oracle_pages() + [(6, extra[0][1])]
        expected = FmBuilder.build(
            pages, block_size=64, sample_rate=4, store_pagemap=False
        )
        assert file_bytes(merged) == file_bytes(expected)


class TestBuilderInterleaveMerge:
    """Builder-level merges, including chains and parts that the
    interleave merge left multi-sentinel."""

    def test_chained_compaction_stays_correct(self):
        """Repeated merges (as chained compactions produce) keep
        counting exact and stay single-sentinel."""
        from repro.workloads.text import TextWorkload
        from tests.test_fm_index import naive_count, store_fm

        gen = TextWorkload(seed=9, vocabulary_size=300)
        all_pages = [(g, gen.documents(8, avg_chars=60)) for g in range(6)]
        merged = FmBuilder.build(
            [(0, all_pages[0][1])], block_size=512, sample_rate=8
        )
        for g, values in all_pages[1:]:
            part = FmBuilder.build([(0, values)], block_size=512, sample_rate=8)
            merged = FmBuilder.merge_streaming([merged, part], [0, g])
        assert len(merged.sentinels) == 1
        full = b"".join(page_text(v) for _, v in all_pages)
        _, querier = store_fm(merged, 6, rows_per_page=8)
        for needle in ["a", "ba", all_pages[3][1][0][:6]]:
            assert querier.count(needle) == naive_count(full, needle.encode())

    def test_merged_samples_are_sorted_and_valid(self):
        from repro.workloads.text import TextWorkload

        gen = TextWorkload(seed=4, vocabulary_size=200)
        b1 = FmBuilder.build(
            [(0, gen.documents(10, 50))], block_size=256, sample_rate=4
        )
        b2 = FmBuilder.build(
            [(0, gen.documents(10, 50))], block_size=256, sample_rate=4
        )
        merged = FmBuilder.merge_streaming([b1, b2], [0, 1])
        rows = merged.sample_rows.tolist()
        assert rows == sorted(set(rows))
        positions = sorted(merged.sample_positions.tolist())
        # Every multiple of the rate over the merged text, once.
        assert positions == list(range(0, merged.text_length + 1, 4))

    def test_pagemap_weaves(self):
        b1 = FmBuilder.build([(0, ["aaa", "bbb"])], block_size=128, sample_rate=4)
        b2 = FmBuilder.build([(0, ["ccc"])], block_size=128, sample_rate=4)
        merged = FmBuilder.merge_streaming([b1, b2], [0, 1])
        assert len(merged.pagemap) == merged.n
        assert set(merged.pagemap.tolist()) == {0, 1}
        assert merged.store_pagemap
        joint = FmBuilder.build(
            [(0, ["aaa", "bbb"]), (1, ["ccc"])], block_size=128, sample_rate=4
        )
        assert np.array_equal(merged.pagemap, joint.pagemap)

    def test_answers_like_rebuild_with_multi_sentinel_parts(self):
        """Merging multi-sentinel parts gives the fresh build over all
        their pages, and each legacy part answers like its rebuild."""
        from repro.workloads.text import TextWorkload
        from tests.test_fm_index import store_fm

        gen = TextWorkload(seed=11, vocabulary_size=150)
        docs = [gen.documents(8, avg_chars=70) for _ in range(4)]
        left, right = (
            legacy_builder([[(0, a)], [(1, b)]], block_size=512, sample_rate=8)
            for a, b in (docs[:2], docs[2:])
        )
        assert len(left.sentinels) == len(right.sentinels) == 2
        merged = FmBuilder.merge_streaming([left, right], [0, 2])
        rebuilt = FmBuilder.build(
            list(enumerate(docs)), block_size=512, sample_rate=8
        )
        assert len(merged.sentinels) == 1
        assert file_bytes(merged) == file_bytes(rebuilt)
        _, q_legacy = store_fm(left, 2, rows_per_page=8)
        _, q_rebuilt = store_fm(
            FmBuilder.build(list(enumerate(docs[:2])), block_size=512, sample_rate=8),
            2,
            rows_per_page=8,
        )
        for needle in ["a", "e ", docs[0][0][:5], docs[1][2][3:12], "qzx"]:
            assert q_legacy.count(needle) == q_rebuilt.count(needle), needle
            assert q_legacy.locate_positions(needle, limit=400) == (
                q_rebuilt.locate_positions(needle, limit=400)
            ), needle
            assert q_legacy.candidate_pages(needle) == (
                q_rebuilt.candidate_pages(needle)
            ), needle

    def test_index_file_bytes_pinned(self):
        """sha256 of one built and one merged index file: the on-disk
        bytes must not move. Re-pinned when page maps switched to RLE
        deflate and merges became single-sentinel rebuilds, when
        components deflating by under 10% (here the merged file's small
        ``sa{b}`` blocks and ``__pages__``) began to be stored raw, and
        when ``blk{b}``/``pg{b}`` became raw packs of deflated rank
        sub-blocks (``test_fm_subblocks`` keeps the previous pins as the
        legacy writer's bytes)."""
        from repro.workloads.text import TextWorkload

        def sha256(builder, n_pages):
            table = PageTable(
                "f.parquet",
                "text",
                [
                    PageEntry("f.parquet", i, 4 + i * 100, 100, 12, i * 12, 1)
                    for i in range(n_pages)
                ],
            )
            writer = IndexFileWriter("fm", "text", PageDirectory([table]))
            builder.write(writer)
            return hashlib.sha256(writer.finish()).hexdigest()

        gen = TextWorkload(seed=20, vocabulary_size=300)
        parts = [
            FmBuilder.build(
                [
                    (0, gen.documents(12, avg_chars=90)),
                    (1, gen.documents(12, avg_chars=90)),
                ],
                block_size=1024,
                sample_rate=8,
            )
            for _ in range(3)
        ]
        assert sha256(parts[0], 2) == (
            "6458d230f791e5ef4734b9199df05c42024f01f7d7f2fd206fdffc793abee1d3"
        )
        merged = FmBuilder.merge_streaming(iter(parts), [0, 2, 4])
        assert len(merged.sentinels) == 1
        assert sha256(merged, 6) == (
            "4f707809cf034234d86b5a52bf4606b21cca96873027a433226536ab62d9ddc7"
        )
