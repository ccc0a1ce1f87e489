"""FM merge: inversion from the SA samples plus one build writes a
fresh build's bytes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.errors import RottnestIndexError
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.fm.fm_index import FmBuilder, page_text
from repro.storage.object_store import InMemoryObjectStore

def from_text(text: bytes, **params) -> FmBuilder:
    """A one-page builder over raw ``text``."""
    params = {"block_size": 64, "sample_rate": 4, **params}
    return FmBuilder._from_text(text, [len(text)], [0], **params)


def file_bytes(builder: FmBuilder) -> bytes:
    table = PageTable(
        "f.parquet",
        "text",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 1, i, 1, crc=0)
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
        assert merged.text() == text_a + text_b
        assert merged.bwt == from_text(text_a + text_b).bwt

    @given(st.binary(max_size=60), st.binary(max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_merge_inverts_property(self, text_a, text_b):
        merged = FmBuilder.merge_streaming([from_text(text_a), from_text(text_b)], [0, 1])
        assert merged.text() == text_a + text_b


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


class TestBuilderInterleaveMerge:
    """Builder-level merges, including chains."""

    def test_chained_compaction_stays_correct(self):
        """Repeated merges (as chained compactions produce) keep
        counting exact."""
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

    def test_index_file_bytes_pinned(self):
        """sha256 of one built and one merged index file: the on-disk
        bytes must not move. Re-pinned when page maps switched to RLE
        deflate and merges became single-sentinel rebuilds, when
        components deflating by under 10% (here the merged file's small
        ``sa{b}`` blocks and ``__pages__``) began to be stored raw, and
        when ``blk{b}``/``pg{b}`` became raw packs of deflated rank
        sub-blocks, and when the directory's entries began to carry
        CRCs (format 2; every component but ``__pages__`` kept its
        bytes)."""
        from repro.workloads.text import TextWorkload

        def sha256(builder, n_pages):
            table = PageTable(
                "f.parquet",
                "text",
                [
                    PageEntry("f.parquet", i, 4 + i * 100, 100, 12, i * 12, 1, crc=0)
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
            "39e7000faa36ba354f32c8de17fc525043ce272783510b0c7cb795107db95ce4"
        )
        merged = FmBuilder.merge_streaming(iter(parts), [0, 2, 4])
        assert sha256(merged, 6) == (
            "02c6df234eebd82d190f4d458b0c4bb60fced6d938a50e402918ab1643fceae6"
        )
