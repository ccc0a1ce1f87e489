"""FM rank sub-blocks: a block is the fetch unit, a ``RANK_STRIDE``-row
sub-block the inflate unit.

Files answer exactly like a naive scan at any stride and block size,
reject corrupt blocks, and inflate only the sub-blocks a query touches.
"""

from __future__ import annotations

import struct
import zlib
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.errors import FormatError, RottnestIndexError
from repro.formats.page_reader import PageEntry, PageTable
from repro.indices.fm import fm_index
from repro.indices.fm.fm_index import FmBuilder, FmQuerier, page_text
from repro.serve.cache import CachingObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.workloads.text import TextWorkload

KEY = "i.index"


def directory(n_pages: int) -> PageDirectory:
    table = PageTable(
        "f.parquet",
        "text",
        [
            PageEntry("f.parquet", i, 4 + i * 100, 100, 12, i * 12, 1, crc=0)
            for i in range(n_pages)
        ],
    )
    return PageDirectory([table])


def file_bytes(builder: FmBuilder) -> bytes:
    writer = IndexFileWriter("fm", "text", directory(max(builder.page_gids) + 1))
    builder.write(writer)
    return writer.finish()


def open_reader(data: bytes, *, caching: bool = False) -> IndexFileReader:
    store = InMemoryObjectStore()
    store.put(KEY, data)
    if caching:
        store = CachingObjectStore(store, budget_bytes=1 << 24)
    return IndexFileReader.open(store, KEY)


@contextmanager
def stride(rows: int):
    """Write files with ``rows``-row sub-blocks (the constant is recorded
    in every file's params, so readers follow it)."""
    with mock.patch.object(fm_index, "RANK_STRIDE", rows):
        yield


def unpack(blob: bytes) -> list[bytes]:
    """The streams of a stream pack (a new-layout ``blk{b}``: the
    checkpoint table, then the BWT sub-blocks)."""
    (count,) = struct.unpack_from("<H", blob)
    lengths = struct.unpack_from(f"<{count}H", blob, 2)
    offsets = np.cumsum((2 * (count + 1),) + lengths)
    return [blob[a:e] for a, e in zip(offsets[:-1], offsets[1:])]


def naive_answers(pages, needle: bytes):
    full = b"".join(page_text(rows) for _, rows in pages)
    positions = [i for i in range(len(full)) if full.startswith(needle, i)]
    candidates = [
        gid for gid, rows in pages if any(needle in row.encode() for row in rows)
    ]
    return len(positions), candidates, positions


def answers(querier: FmQuerier, needle: bytes):
    return (
        querier.count(needle),
        querier.candidate_pages(needle),
        querier.locate_positions(needle, limit=10_000),
    )


# -- file == naive scan ------------------------------------------------------
rows_strategy = st.lists(
    st.text(alphabet="abcn é", min_size=1, max_size=12), min_size=1, max_size=6
)


@given(
    st.lists(rows_strategy, min_size=1, max_size=5),
    st.sampled_from([8, 16]),
    # Block size as a multiple of the stride: below, equal to, a
    # multiple of and not a multiple of it.
    st.sampled_from([0.5, 1, 3, 2.5]),
    st.booleans(),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_answers_equal_naive_property(pages_rows, rows, ratio, pagemap, data):
    pages = list(enumerate(pages_rows))
    with stride(rows):
        builder = FmBuilder.build(
            pages,
            block_size=int(rows * ratio),
            sample_rate=4,
            store_pagemap=pagemap,
        )
        reader = open_reader(file_bytes(builder))
    assert reader.params["rank_stride"] == rows
    full = b"".join(page_text(r) for _, r in pages)
    start = data.draw(st.integers(0, len(full) - 1))
    needles = [
        full[start : start + data.draw(st.integers(1, 6))].split(b"\0")[0] or b"a",
        data.draw(st.text(alphabet="abcn z", min_size=1, max_size=4)).encode(),
    ]
    for needle in needles:
        expected = naive_answers(pages, needle)
        assert answers(FmQuerier(reader), needle) == expected, needle


@pytest.mark.parametrize("block_size", [2048, 4096, 8192, 6000])
def test_real_stride_agrees_with_naive(block_size):
    """At the shipped stride, over text spanning many sub-blocks."""
    gen = TextWorkload(seed=block_size, vocabulary_size=400)
    pages = [(g, gen.documents(40, avg_chars=120)) for g in range(6)]
    builder = FmBuilder.build(pages, block_size=block_size, sample_rate=16)
    assert builder.n > 4 * fm_index.RANK_STRIDE
    reader = open_reader(file_bytes(builder))
    for rows, needle in [(pages[1][1], 0), (pages[4][1], 7), (pages[5][1], 3)]:
        for n in (2, 5, 11):
            text = rows[needle][:n].encode()
            expected = naive_answers(pages, text)
            assert answers(FmQuerier(reader), text) == expected


@given(st.lists(st.lists(rows_strategy, min_size=1, max_size=3), min_size=2, max_size=3))
@settings(max_examples=30, deadline=None)
def test_merge_of_new_layout_files_equals_fresh_build(parts_rows):
    """Parts read back from new-layout files (several sub-blocks each)
    merge to the bytes of a fresh build over all their pages."""
    with stride(8):
        parts, offsets, pages = [], [], []
        for rows_per_page in parts_rows:
            offsets.append(len(pages))
            local = list(enumerate(rows_per_page))
            built = FmBuilder.build(local, block_size=20, sample_rate=4)
            parts.append(FmBuilder.load(open_reader(file_bytes(built))))
            pages.extend((offsets[-1] + g, rows) for g, rows in local)
        merged = FmBuilder.merge_streaming(iter(parts), offsets)
        fresh = FmBuilder.build(pages, block_size=20, sample_rate=4)
        assert file_bytes(merged) == file_bytes(fresh)


def test_block_size_bounded_by_u16_checkpoints():
    with pytest.raises(RottnestIndexError, match="block_size"):
        FmBuilder.build([(0, ["abc"])], block_size=fm_index.MAX_BLOCK_SIZE + 1)


# -- the inflate unit --------------------------------------------------------
def test_one_query_inflates_a_bounded_number_of_bwt_sub_blocks(monkeypatch):
    """64 KiB blocks: a substring query inflates at most 2·|needle| + 2
    BWT sub-blocks (one per rank evaluation, plus ``C``), not whole
    blocks."""
    gen = TextWorkload(seed=64, vocabulary_size=1500)
    pages = [(g, gen.documents(500, avg_chars=110)) for g in range(4)]
    builder = FmBuilder.build(pages, block_size=64 * 1024, sample_rate=32)
    reader = open_reader(file_bytes(builder))
    assert reader.params["num_blocks"] >= 3
    sub_streams = {
        stream
        for b in range(reader.params["num_blocks"])
        for stream in unpack(reader.component(f"blk{b}"))[1:]
    }
    inflated: list[bytes] = []
    real = zlib.decompress

    def counting(data, *args, **kwargs):
        inflated.append(bytes(data))
        return real(data, *args, **kwargs)

    for needle in [pages[2][1][7][:12], pages[0][1][3][5:9], "zqzq"]:
        needle = needle.encode()
        monkeypatch.setattr(zlib, "decompress", counting)
        inflated.clear()
        querier = FmQuerier(reader)
        pages_found = querier.candidate_pages(needle)
        monkeypatch.undo()
        bwt_inflates = [blob for blob in inflated if blob in sub_streams]
        assert bwt_inflates, needle
        assert len(bwt_inflates) <= 2 * len(needle) + 2, needle
        assert pages_found == naive_answers(pages, needle)[1]


# -- corrupt blocks ------------------------------------------------------------
#: Rows per sub-block and per block of the corrupted files: four
#: sub-blocks a block, and a last block of 8 + 4 rows.
CORRUPT_STRIDE, CORRUPT_BLOCK = 8, 32
CORRUPT_PAGES = [
    (0, ["banana bread", "cabana", "bandana"]),
    (1, ["mississippi", "missing", "abracadabra"]),
    (2, ["panama canal", "abba", "nab a cab", "aaaaa"]),
    (3, ["the last row"]),
]


def with_lengths(blob: bytes, edit) -> bytes:
    (count,) = struct.unpack_from("<H", blob)
    lengths = list(struct.unpack_from(f"<{count}H", blob, 2))
    edit(lengths)
    return struct.pack(f"<{count + 1}H", count, *lengths) + blob[2 * (count + 1) :]


def offsets_not_increasing(blob: bytes) -> bytes:
    def edit(lengths):
        lengths[2], lengths[3] = 0, lengths[2] + lengths[3]

    return with_lengths(blob, edit)


def offsets_past_payload(blob: bytes) -> bytes:
    def edit(lengths):
        lengths[-1] += 1

    return with_lengths(blob, edit)


def with_streams(blob: bytes, edit) -> bytes:
    streams = unpack(blob)
    edit(streams)
    return fm_index._pack_streams(streams)


def short_middle_sub_block(blob: bytes) -> bytes:
    """Sub-block 1 inflates to one byte less than the stride."""

    def edit(streams):
        streams[2] = zlib.compress(zlib.decompress(streams[2])[:-1])

    return with_streams(blob, edit)


def full_stride_last_sub_block(blob: bytes) -> bytes:
    """The last sub-block inflates to a whole stride, not the rest of
    the block."""

    def edit(streams):
        rest = zlib.decompress(streams[-1])
        assert len(rest) < CORRUPT_STRIDE
        streams[-1] = zlib.compress(rest.ljust(CORRUPT_STRIDE, b"a"))

    return with_streams(blob, edit)


def decreasing_row(blob: bytes) -> bytes:
    """Checkpoint row 2 counts one fewer of a symbol than row 1, and one
    more of another, so every row still counts the rows before it."""

    def edit(streams):
        table = zlib.decompress(streams[0])
        width = len(table) // (4 + 2 * (len(streams) - 2))
        rows = np.frombuffer(table, "<u2", offset=4 * width).reshape(-1, width).copy()
        column = int(np.flatnonzero(rows[0])[0])
        moved = int(rows[1, column] - rows[0, column]) + 1
        rows[1, column] -= moved
        rows[1, (column + 1) % width] += moved
        streams[0] = zlib.compress(table[: 4 * width] + rows.astype("<u2").tobytes())

    return with_streams(blob, edit)


def miscounting_row(blob: bytes) -> bytes:
    """The last checkpoint row counts one row more than precede it (and
    still never decreases)."""

    def edit(streams):
        table = zlib.decompress(streams[0])
        (last,) = struct.unpack_from("<H", table, len(table) - 2)
        streams[0] = zlib.compress(table[:-2] + struct.pack("<H", last + 1))

    return with_streams(blob, edit)


#: name -> (corruption of one ``blk{b}`` payload, the block it hits)
CORRUPTIONS = {
    "offsets_not_increasing": (offsets_not_increasing, 0),
    "offsets_past_payload": (offsets_past_payload, 0),
    "short_middle_sub_block": (short_middle_sub_block, 0),
    "full_stride_last_sub_block": (full_stride_last_sub_block, "last"),
    "decreasing_row": (decreasing_row, 0),
    "miscounting_row": (miscounting_row, 0),
    "alphabet_wider_than_table": (None, None),
}


class CorruptingWriter(IndexFileWriter):
    def __init__(self, corrupt, target) -> None:
        super().__init__("fm", "text", directory(len(CORRUPT_PAGES)))
        self.corrupt, self.target = corrupt, target

    def add_component(self, name, data, *, rle=False, raw=False):
        if name == f"blk{self.target}":
            data = self.corrupt(data)
        return super().add_component(name, data, rle=rle, raw=raw)

    def finish(self) -> bytes:
        if self.corrupt is None:
            self.params["alphabet"] = sorted({*self.params["alphabet"], 255})
        return super().finish()


def corrupt_file(name: str) -> bytes:
    corrupt, target = CORRUPTIONS[name]
    with stride(CORRUPT_STRIDE):
        builder = FmBuilder.build(
            CORRUPT_PAGES,
            block_size=CORRUPT_BLOCK,
            # Only position 0 is sampled: a locate walks every row.
            sample_rate=1024,
            store_pagemap=False,
        )
        num_blocks = -(-builder.n // CORRUPT_BLOCK)
        if target == "last":
            target = num_blocks - 1
        writer = CorruptingWriter(corrupt, target)
        builder.write(writer)
        return writer.finish()


#: Found at the text's end, so locating it walks back over every row.
WALK_NEEDLE = b"last row"


def test_corruption_fixture_walks_every_sub_block():
    """The walk query touches every block and every sub-block, so each
    corruption below is on its path."""
    with stride(CORRUPT_STRIDE):
        builder = FmBuilder.build(
            CORRUPT_PAGES, block_size=CORRUPT_BLOCK, sample_rate=1024,
            store_pagemap=False,
        )
        reader = open_reader(file_bytes(builder))
    assert builder.n % CORRUPT_BLOCK % CORRUPT_STRIDE  # a short last sub-block
    querier = FmQuerier(reader)
    full = b"".join(page_text(rows) for _, rows in CORRUPT_PAGES)
    assert querier.locate_positions(WALK_NEEDLE, limit=1) == [full.index(WALK_NEEDLE)]
    rows = [min(CORRUPT_BLOCK, builder.n - b) for b in range(0, builder.n, CORRUPT_BLOCK)]
    assert set(querier._chars) == {
        (b, s) for b, n in enumerate(rows) for s in range(-(-n // CORRUPT_STRIDE))
    }


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_block_raises_on_a_plain_store(name):
    reader = open_reader(corrupt_file(name))
    with pytest.raises(FormatError):
        FmQuerier(reader).locate_positions(WALK_NEEDLE, limit=1)
    with pytest.raises(FormatError):
        FmBuilder.load(reader)


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_block_raises_through_a_warm_cache(name):
    """Every stored byte cached and, where the last block is intact, a
    query answered from it: the corrupt block still raises, every time
    (nothing wrong is kept)."""
    reader = open_reader(corrupt_file(name), caching=True)
    reader.components(reader.component_names())
    if CORRUPTIONS[name][1] == 0:
        # Touches the last block only: answered, and its parts kept.
        full = b"".join(page_text(rows) for _, rows in CORRUPT_PAGES)
        assert FmQuerier(reader).count(b"a") == full.count(b"a")
    for _ in range(2):
        with pytest.raises(FormatError):
            FmQuerier(reader).locate_positions(WALK_NEEDLE, limit=1)


def test_error_messages_name_the_defect():
    expected = {
        "offsets_not_increasing": "do not increase",
        "offsets_past_payload": "streams end at",
        "short_middle_sub_block": "sub-block 1 holds 7 bytes, expected 8",
        "full_stride_last_sub_block": "holds 8 bytes, expected 4",
        "decreasing_row": "checkpoint row decreases",
        "miscounting_row": "do not count the rows before them",
        "alphabet_wider_than_table": "does not fit",
    }
    for name, message in expected.items():
        reader = open_reader(corrupt_file(name))
        with pytest.raises(FormatError, match=message):
            FmQuerier(reader).locate_positions(WALK_NEEDLE, limit=1)
