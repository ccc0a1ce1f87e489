"""Holt-McMillan interleave merge and multi-string BWT primitives."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RottnestIndexError
from repro.indices.fm.bwt import (
    bwt_from_sa,
    invert_multi_bwt,
    suffix_array,
)
from repro.indices.fm.fm_index import FmBuilder, page_text
from repro.indices.fm.merge import (
    MergeDidNotConverge,
    apply_interleave,
    merge_bwts,
)


def single_bwt(text: bytes):
    sa = suffix_array(text)
    return bwt_from_sa(text, sa)


def naive_interleave(bwt_a, sentinels_a, bwt_b, sentinels_b):
    """Reference Holt-McMillan loop: weave, stably sort *every* row by
    its emitted character, repeat until the interleave stops changing.
    Returns ``(interleave, passes)``."""
    sym_a = np.frombuffer(bwt_a, dtype=np.uint8).astype(np.int16)
    sym_b = np.frombuffer(bwt_b, dtype=np.uint8).astype(np.int16)
    sym_a[list(sentinels_a)] = -2  # A's texts sort before B's
    sym_b[list(sentinels_b)] = -1
    interleave = np.arange(len(sym_a) + len(sym_b)) >= len(sym_a)
    for passes in range(1, 10_000):
        woven = np.empty(len(interleave), dtype=np.int16)
        woven[~interleave] = sym_a
        woven[interleave] = sym_b
        after = interleave[np.argsort(woven, kind="stable")]
        if np.array_equal(after, interleave):
            return interleave, passes
        interleave = after
    raise AssertionError("reference interleave did not converge")


class TestApplyInterleave:
    def test_weave(self):
        z = np.array([False, True, True, False])
        a = np.array([1, 2])
        b = np.array([10, 20])
        assert apply_interleave(z, a, b).tolist() == [1, 10, 20, 2]

    def test_length_mismatch(self):
        with pytest.raises(RottnestIndexError):
            apply_interleave(np.array([True]), np.array([1]), np.array([2]))


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
        bwt_a, s_a = single_bwt(text_a)
        bwt_b, s_b = single_bwt(text_b)
        merge = merge_bwts(bwt_a, [s_a], bwt_b, [s_b])
        merged, sentinels = merge.bwt_and_sentinels()
        assert len(sentinels) == 2
        assert merge.iterations >= 1
        texts = invert_multi_bwt(merged, sentinels)
        assert texts == [text_a, text_b]

    def test_interleave_counts_match_sources(self):
        bwt_a, s_a = single_bwt(b"hello world")
        bwt_b, s_b = single_bwt(b"goodbye")
        interleave = merge_bwts(bwt_a, [s_a], bwt_b, [s_b]).interleave
        assert int((~interleave).sum()) == len(bwt_a)
        assert int(interleave.sum()) == len(bwt_b)

    def test_convergence_bound_enforced(self):
        bwt_a, s_a = single_bwt(b"aaaaaaaaaaaaaaaa")
        bwt_b, s_b = single_bwt(b"aaaaaaaaaaaaaaaa")
        with pytest.raises(MergeDidNotConverge):
            merge_bwts(bwt_a, [s_a], bwt_b, [s_b], max_iterations=2)

    @given(st.binary(max_size=60), st.binary(max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_inverts_property(self, text_a, text_b):
        bwt_a, s_a = single_bwt(text_a)
        bwt_b, s_b = single_bwt(text_b)
        merged, sentinels = merge_bwts(
            bwt_a, [s_a], bwt_b, [s_b]
        ).bwt_and_sentinels()
        assert invert_multi_bwt(merged, sentinels) == [text_a, text_b]

    @given(
        st.lists(
            # Small alphabets and NUL runs: long shared contexts, many
            # passes, windows that open, merge and close.
            st.one_of(
                st.binary(max_size=40),
                st.text(alphabet="ab", max_size=60).map(str.encode),
                st.text(alphabet="\x00a", max_size=60).map(str.encode),
            ),
            min_size=2,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_active_set_equals_full_sort_reference(self, texts):
        """Folding texts in (so A is multi-sentinel from the second
        merge on, and B once the operands are swapped) reaches, pass for
        pass, the interleave the full-sort loop reaches."""
        bwt, sentinels = single_bwt(texts[0])
        sentinels = [sentinels]
        for text in texts[1:]:
            bwt_b, s_b = single_bwt(text)
            for a, b in (
                ((bwt, sentinels), (bwt_b, [s_b])),
                ((bwt_b, [s_b]), (bwt, sentinels)),
            ):
                merge = merge_bwts(*a, *b)
                expected, passes = naive_interleave(*a, *b)
                assert np.array_equal(merge.interleave, expected)
                assert merge.iterations == passes
                assert len(bwt) + len(bwt_b) <= merge.rows_sorted
                assert merge.rows_sorted <= passes * len(expected)
                assert merge.bwt_and_sentinels() == _woven(expected, *a, *b)
            bwt, sentinels = merge_bwts(
                bwt, sentinels, bwt_b, [s_b]
            ).bwt_and_sentinels()
        assert invert_multi_bwt(bwt, sentinels) == texts

    def test_rows_sorted_shrinks_on_text(self):
        """On word text the passes after the first touch a shrinking
        share of the rows — the point of the active set."""
        from repro.workloads.text import TextWorkload

        gen = TextWorkload(seed=2, vocabulary_size=300)
        a, b = (
            single_bwt(page_text(gen.documents(60, avg_chars=80)))
            for _ in range(2)
        )
        merge = merge_bwts(a[0], [a[1]], b[0], [b[1]])
        n = len(a[0]) + len(b[0])
        assert merge.iterations > 10
        assert merge.rows_sorted < 0.4 * merge.iterations * n


def _woven(interleave, bwt_a, sentinels_a, bwt_b, sentinels_b):
    """Merged BWT bytes and sentinel rows under ``interleave``."""
    bwt = apply_interleave(
        interleave,
        np.frombuffer(bwt_a, dtype=np.uint8),
        np.frombuffer(bwt_b, dtype=np.uint8),
    )
    is_sentinel = apply_interleave(
        interleave,
        np.isin(np.arange(len(bwt_a)), sentinels_a),
        np.isin(np.arange(len(bwt_b)), sentinels_b),
    )
    return bwt.tobytes(), np.flatnonzero(is_sentinel).tolist()


class TestMultiStringInversion:
    def test_three_way(self):
        """Merging a merged collection with a third text."""
        texts = [b"first text", b"second one", b"third"]
        bwt_a, s_a = single_bwt(texts[0])
        bwt_b, s_b = single_bwt(texts[1])
        m1, sent1 = merge_bwts(bwt_a, [s_a], bwt_b, [s_b]).bwt_and_sentinels()
        bwt_c, s_c = single_bwt(texts[2])
        m2, sent2 = merge_bwts(m1, sent1, bwt_c, [s_c]).bwt_and_sentinels()
        assert len(sent2) == 3
        assert invert_multi_bwt(m2, sent2) == texts

    def test_requires_sentinels(self):
        with pytest.raises(ValueError):
            invert_multi_bwt(b"\x00", [])


class TestBuilderInterleaveMerge:
    def test_chained_compaction_stays_correct(self):
        """Repeated interleave merges (as chained compactions produce)
        keep counting exact."""
        from repro.workloads.text import TextWorkload
        from tests.test_fm_index import naive_count, store_fm

        gen = TextWorkload(seed=9, vocabulary_size=300)
        all_pages = [(g, gen.documents(8, avg_chars=60)) for g in range(6)]
        merged = FmBuilder.build(
            [(0, all_pages[0][1])], block_size=512, sample_rate=8
        )
        for g, values in all_pages[1:]:
            part = FmBuilder.build([(0, values)], block_size=512, sample_rate=8)
            merged = FmBuilder.merge([merged, part], [0, g])
        assert len(merged.sentinels) == 6
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
        merged = FmBuilder.merge([b1, b2], [0, 1])
        rows = merged.sample_rows.tolist()
        assert rows == sorted(set(rows))
        assert len(rows) == len(b1.sample_rows) + len(b2.sample_rows)
        positions = set(merged.sample_positions.tolist())
        assert len(positions) == len(rows)
        assert 0 in positions  # part A's origin
        assert b1.text_length in positions  # part B's shifted origin

    def test_pagemap_weaves(self):
        b1 = FmBuilder.build([(0, ["aaa", "bbb"])], block_size=128, sample_rate=4)
        b2 = FmBuilder.build([(0, ["ccc"])], block_size=128, sample_rate=4)
        merged = FmBuilder.merge([b1, b2], [0, 1])
        assert len(merged.pagemap) == merged.n
        assert set(merged.pagemap.tolist()) == {0, 1}
        assert merged.store_pagemap

    def test_answers_like_rebuild_with_multi_sentinel_parts(self):
        """Merging already-merged parts (both operands multi-sentinel)
        counts and locates exactly like inversion + rebuild of the same
        parts, and sums the interleave work of every fold."""
        from repro.workloads.text import TextWorkload
        from tests.test_fm_index import store_fm

        gen = TextWorkload(seed=11, vocabulary_size=150)
        docs = [gen.documents(8, avg_chars=70) for _ in range(4)]
        singles = [
            FmBuilder.build([(0, values)], block_size=512, sample_rate=8)
            for values in docs
        ]
        left = FmBuilder.merge(singles[:2], [0, 1])
        right = FmBuilder.merge(singles[2:], [0, 1])
        assert len(left.sentinels) == len(right.sentinels) == 2
        merged = FmBuilder.merge([left, right], [0, 2])
        rebuilt = FmBuilder.merge_rebuild([left, right], [0, 2])
        assert len(merged.sentinels) == 4 and len(rebuilt.sentinels) == 1
        _, q_merged = store_fm(merged, 4, rows_per_page=8)
        _, q_rebuilt = store_fm(rebuilt, 4, rows_per_page=8)
        for needle in ["a", "e ", docs[0][0][:5], docs[3][2][3:12], "qzx"]:
            assert q_merged.count(needle) == q_rebuilt.count(needle), needle
            assert q_merged.locate_positions(needle, limit=400) == (
                q_rebuilt.locate_positions(needle, limit=400)
            ), needle
            assert q_merged.candidate_pages(needle) == (
                q_rebuilt.candidate_pages(needle)
            ), needle
        assert singles[0].merge_stats == {} == rebuilt.merge_stats
        for name in ("interleave_iterations", "rows_sorted"):
            assert merged.merge_stats[name] > (
                left.merge_stats[name] + right.merge_stats[name]
            )

    def test_index_file_bytes_pinned(self):
        """sha256 of one built and one merged index file, taken from
        the commit before samples became arrays and the suffix sort,
        interleave loop and ``sa{i}`` writer were vectorised: the
        on-disk bytes must not move."""
        from repro.core.index_file import IndexFileWriter, PageDirectory
        from repro.formats.page_reader import PageEntry, PageTable
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
            "2e7c598d6e2b1b885e9fc5b5ff0b3cb4fa3e89b9697e05701357066c459c11c0"
        )
        merged = FmBuilder.merge_streaming(iter(parts), [0, 2, 4])
        assert len(merged.sentinels) == 3
        assert sha256(merged, 6) == (
            "273aac7f25ef45456c849312d15032c26f9aec7df9d2139690f3192a9081bd1f"
        )
