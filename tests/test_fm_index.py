"""FM-index: counting, page candidates, locate, merging (§V-C2)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.fm.fm_index import FmBuilder, FmQuerier, page_text
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import tracing
from repro.workloads.text import TextWorkload


def naive_count(text: bytes, needle: bytes) -> int:
    """Overlapping occurrence count."""
    count = start = 0
    while True:
        start = text.find(needle, start)
        if start < 0:
            return count
        count += 1
        start += 1


def store_fm(builder, n_pages, rows_per_page=10):
    table = PageTable(
        "f.parquet",
        "text",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, rows_per_page,
                      i * rows_per_page, 1, crc=0)
            for i in range(n_pages)
        ],
    )
    w = IndexFileWriter("fm", "text", PageDirectory([table]))
    builder.write(w)
    store = InMemoryObjectStore()
    store.put("i.index", w.finish())
    return store, FmQuerier(IndexFileReader.open(store, "i.index"))


@pytest.fixture
def corpus():
    gen = TextWorkload(seed=3, vocabulary_size=200)
    pages = [(gid, gen.documents(10, avg_chars=80)) for gid in range(5)]
    full = b"".join(page_text(values) for _, values in pages)
    return pages, full


@pytest.fixture
def querier(corpus):
    pages, _ = corpus
    builder = FmBuilder.build(pages, block_size=1024, sample_rate=8)
    _, q = store_fm(builder, len(pages))
    return q


class TestPageText:
    def test_separators(self):
        assert page_text(["ab", "c"]) == b"ab\x00c\x00"

    def test_nul_rejected(self):
        with pytest.raises(RottnestIndexError):
            page_text(["bad\x00row"])


class TestCounting:
    def test_counts_match_naive(self, corpus, querier):
        pages, full = corpus
        gen = TextWorkload(seed=99)
        docs = [v for _, values in pages for v in values]
        needles = ["a", "the", docs[0][:6], docs[3][2:10], "zzqx"]
        for needle in needles:
            assert querier.count(needle) == naive_count(full, needle.encode())

    def test_count_absent_zero(self, querier):
        assert querier.count("XYZQW123") == 0

    def test_empty_pattern_rejected(self, querier):
        with pytest.raises(RottnestIndexError):
            querier.count("")

    def test_nul_pattern_rejected(self, querier):
        with pytest.raises(RottnestIndexError):
            querier.count("a\x00b")

    def test_bytes_pattern_accepted(self, querier, corpus):
        _, full = corpus
        assert querier.count(b"a") == naive_count(full, b"a")


class TestCandidatePages:
    def test_no_false_negatives(self, corpus, querier):
        pages, _ = corpus
        for gid, values in pages:
            needle = values[0][:8]
            assert gid in querier.candidate_pages(needle)

    def test_absent_returns_empty(self, querier):
        assert querier.candidate_pages("XYZQW123") == []

    def test_limit_early_exit(self, corpus):
        pages, _ = corpus
        builder = FmBuilder.build(pages, block_size=512, sample_rate=8)
        _, q = store_fm(builder, len(pages))
        limited = q.candidate_pages("a", limit=1)
        assert len(limited) >= 1

    def test_cross_row_matches_are_absent(self):
        """The 0x00 row separator prevents matches spanning rows."""
        builder = FmBuilder.build([(0, ["abc", "def"])], block_size=256,
                                  sample_rate=4)
        _, q = store_fm(builder, 1)
        assert q.count("cd") == 0
        assert q.count("abc") == 1


class TestLocate:
    def test_positions_match_regex(self, corpus, querier):
        _, full = corpus
        needle = b"ba"
        expected = [m.start() for m in re.finditer(re.escape(needle), full)]
        got = querier.locate_positions(needle, limit=10_000)
        assert got == expected

    def test_limit_respected(self, querier):
        got = querier.locate_positions("a", limit=5)
        assert len(got) == 5


class TestSerialization:
    def test_load_roundtrip(self, corpus):
        pages, _ = corpus
        builder = FmBuilder.build(pages, block_size=1024, sample_rate=8)
        _, q = store_fm(builder, len(pages))
        loaded = FmBuilder.load(q.reader)
        assert loaded.bwt == builder.bwt
        assert loaded.sentinel == builder.sentinel
        # Merge input: the merge rebuilds the page map instead.
        assert not len(loaded.pagemap) and loaded.store_pagemap
        assert np.array_equal(loaded.sample_rows, builder.sample_rows)
        assert np.array_equal(
            loaded.sample_positions, builder.sample_positions
        )
        assert loaded.page_lens == builder.page_lens
        assert loaded.page_gids == builder.page_gids

    def test_merge_rebuild_equals_joint_build(self, corpus):
        """A merge (inversion + rebuild) is identical to a fresh build
        over the concatenated pages."""
        pages, _ = corpus
        b1 = FmBuilder.build(pages[:2], block_size=1024, sample_rate=8)
        b2 = FmBuilder.build(
            [(g - 2, v) for g, v in pages[2:]], block_size=1024, sample_rate=8
        )
        merged = FmBuilder.merge_streaming([b1, b2], [0, 2])
        joint = FmBuilder.build(pages, block_size=1024, sample_rate=8)
        assert merged.bwt == joint.bwt
        assert merged.sentinel == joint.sentinel
        assert merged.page_gids == joint.page_gids
        assert np.array_equal(merged.pagemap, joint.pagemap)
        assert np.array_equal(merged.sample_rows, joint.sample_rows)
        assert np.array_equal(merged.sample_positions, joint.sample_positions)

    def test_interleave_merge_query_equivalent(self, corpus):
        """A merged index answers every query the same as one built
        over all the pages."""
        pages, _ = corpus
        b1 = FmBuilder.build(pages[:2], block_size=1024, sample_rate=8)
        b2 = FmBuilder.build(
            [(g - 2, v) for g, v in pages[2:]], block_size=1024, sample_rate=8
        )
        merged = FmBuilder.merge_streaming([b1, b2], [0, 2])
        joint = FmBuilder.build(pages, block_size=1024, sample_rate=8)
        assert merged.sentinel == joint.sentinel
        assert merged.page_gids == joint.page_gids
        _, q_merged = store_fm(merged, len(pages))
        _, q_joint = store_fm(joint, len(pages))
        needles = ["a", "ba", pages[0][1][0][:7], pages[4][1][0][:9], "zq"]
        for needle in needles:
            assert q_merged.count(needle) == q_joint.count(needle), needle
            assert q_merged.candidate_pages(needle) == q_joint.candidate_pages(
                needle
            ), needle
            assert q_merged.locate_positions(needle, limit=500) == (
                q_joint.locate_positions(needle, limit=500)
            ), needle

    def test_interleave_merge_folds_three_parts(self, corpus):
        pages, _ = corpus
        parts = [
            FmBuilder.build([(0, values)], block_size=512, sample_rate=8)
            for _, values in pages[:3]
        ]
        merged = FmBuilder.merge_streaming(parts, [0, 1, 2])
        joint = FmBuilder.build(pages[:3], block_size=512, sample_rate=8)
        assert merged.sentinel == joint.sentinel
        _, q_merged = store_fm(merged, 3)
        _, q_joint = store_fm(joint, 3)
        needle = pages[1][1][0][:6]
        assert q_merged.count(needle) == q_joint.count(needle)
        assert q_merged.candidate_pages(needle) == q_joint.candidate_pages(needle)

    def test_merge_mismatch_rejected(self, corpus):
        pages, _ = corpus
        b = FmBuilder.build(pages[:1])
        with pytest.raises(RottnestIndexError):
            FmBuilder.merge_streaming([b], [0, 1])

    def test_empty_build_rejected(self):
        with pytest.raises(RottnestIndexError):
            FmBuilder.build([])


class TestAccessPattern:
    def test_backward_search_depth_is_pattern_length(self, corpus):
        """Depth grows with |pattern| — the paper's depth-bound claim."""
        pages, _ = corpus
        # Big corpus relative to block size so blocks miss the tail cache.
        big_pages = [
            (gid, TextWorkload(seed=gid, vocabulary_size=500).documents(600, 350))
            for gid in range(4)
        ]
        builder = FmBuilder.build(big_pages, block_size=4096, sample_rate=32)
        store, q = store_fm(builder, 4, rows_per_page=600)
        assert store.head("i.index").size > 400 * 1024  # misses the tail cache
        needle = big_pages[0][1][0][:8]  # present pattern, 8 chars
        with tracing() as trace:
            assert q.count(needle) > 0
        # Dependent rounds bounded by pattern length (+1 for the page
        # map); cached blocks can collapse rounds below that.
        assert 1 <= trace.depth <= len(needle) + 1
        # Each round is at most 2 block reads wide.
        assert all(len(r) <= 2 for r in trace.rounds)


class TestPagemapLessMode:
    """The paper's storage profile: no page map, sampled-SA walks."""

    @pytest.fixture
    def nopg(self, corpus):
        pages, full = corpus
        builder = FmBuilder.build(
            pages, block_size=1024, sample_rate=8, store_pagemap=False
        )
        store, q = store_fm(builder, len(pages))
        return builder, store, q, pages, full

    def test_counts_unaffected(self, nopg):
        _, _, q, pages, full = nopg
        needle = pages[1][1][0][:7]
        assert q.count(needle) == naive_count(full, needle.encode())

    def test_no_false_negative_pages(self, nopg):
        _, _, q, pages, _ = nopg
        for gid, values in pages:
            needle = values[0][:8]
            assert gid in q.candidate_pages(needle)

    def test_smaller_than_pagemap_mode(self, corpus):
        pages, _ = corpus
        with_pg = FmBuilder.build(pages, block_size=1024, sample_rate=8)
        without = FmBuilder.build(
            pages, block_size=1024, sample_rate=8, store_pagemap=False
        )
        s1, _ = store_fm(with_pg, len(pages))
        s2, _ = store_fm(without, len(pages))
        assert s2.head("i.index").size < s1.head("i.index").size

    def test_load_and_merge_preserve_mode(self, nopg):
        builder, _, q, pages, _ = nopg
        loaded = FmBuilder.load(q.reader)
        assert loaded.store_pagemap is False
        assert loaded.bwt == builder.bwt
        merged = FmBuilder.merge_streaming([builder, loaded], [0, len(pages)])
        assert merged.store_pagemap is False

    def test_limit_early_exit(self, nopg):
        _, _, q, _, _ = nopg
        got = q.candidate_pages("a", limit=2)
        assert 1 <= len(got) <= 3

    def test_walk_cap_returns_every_page(self):
        """Past the locate cap the answer is every page of the file (a
        superset that verification filters), not the pages of the first
        rows walked."""
        builder = FmBuilder.build(
            [(0, ["xaba", "xabb"]), (1, ["xabc"])],
            block_size=256,
            sample_rate=4,
            store_pagemap=False,
        )
        _, q = store_fm(builder, 2, rows_per_page=2)
        q.MAX_LOCATED_MATCHES = 2
        assert q.candidate_pages("xab") == [0, 1]
        assert q.candidate_pages("xabc") == [1]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=122),
            min_size=0,
            max_size=30,
        ),
        min_size=1,
        max_size=12,
    ),
    needle=st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=122),
        min_size=1,
        max_size=6,
    ),
)
def test_fm_count_matches_naive_property(rows, needle):
    """Property: FM count equals naive overlapping count on arbitrary
    printable text."""
    pages = [(0, rows)]
    builder = FmBuilder.build(pages, block_size=256, sample_rate=4)
    _, q = store_fm(builder, 1, rows_per_page=len(rows))
    full = page_text(rows)
    assert q.count(needle) == naive_count(full, needle.encode("utf-8"))
