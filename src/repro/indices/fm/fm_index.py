"""Componentized FM-index for exact substring search (§V-C2).

Built over the concatenation of all page texts of the indexed column
(rows separated by 0x00 so matches cannot span rows). The on-storage
layout follows the componentization principle:

* ``blk{i}`` — rank blocks of ``block_size`` BWT rows. One
  ``Occ(c, pos)`` evaluation reads exactly one block.
* ``pg{i}`` — optional page-map blocks: the global page id of each
  suffix in BWT order. Fast interval→pages but ~log2(#pages) bits per
  character; disable with ``store_pagemap=False`` for the paper's
  storage profile (index ≈ compressed data), where pages are recovered
  through sampled-SA LF-walks instead.
* ``sa{i}`` — sampled suffix array blocks: (local BWT offset, text
  position) pairs for suffixes whose text position is a multiple of the
  sample rate.
* ``pagelens`` — per-page text lengths + global page ids; enough to
  map positions to pages and to rebuild the index from inverted text.

**Fetch unit ≠ inflate unit.** A block is what one GET fetches, sized
against object-store round trips; a backward-search step needs only a
few rank positions of it. So ``blk{i}`` and ``pg{i}`` are stored raw,
as a *stream pack* of independently deflated streams (a u16 count,
each stream's u16 length, then the streams), and a
query inflates only the ``RANK_STRIDE``-row sub-blocks it touches:

* ``blk{i}`` — stream 0 is the rank-checkpoint table: the count of each
  symbol of the file's ``alphabet`` (listed once in the params) before
  every sub-block, u32 at the block start and u16 relative to it inside
  the block; streams 1.. are the BWT sub-blocks;
* ``pg{i}`` — the page-map sub-blocks, one stream each (no table).

``Occ(c, pos)`` is then one checkpoint plus a count over at most one
sub-block.

Every file has one sentinel, a merged one too: compaction inverts each
part back to its text from its SA samples and builds once over the
concatenation, giving a fresh build's exact bytes. The params record
the sentinel's row (``sentinels``, a list of one), the stride, the
alphabet and the page map's presence and dtype; a file missing any of
them is a :class:`~repro.errors.FormatError`. Patterns never contain
the 0x00 separator, so counting and locating behave exactly as over the
concatenated text.

A substring query runs classic backward search: one dependent round of
(at most two) block reads per pattern character, then a round resolving
pages. Depth is O(|pattern|) — the paper's depth-bound access profile.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import ClassVar, Iterable, NamedTuple

import numpy as np

from repro.errors import FormatError, RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.formats import compression
from repro.indices.base import ExactQuerier, IndexBuilder, paired
from repro.indices.fm.bwt import bwt_from_sa, invert_bwt, suffix_array
from repro.storage.stats import barrier
from repro.util.binio import BinaryReader, BinaryWriter
from repro.util.varint import decode_uvarints, encode_uvarints

TYPE_NAME = "fm"
DEFAULT_BLOCK_SIZE = 32 * 1024
DEFAULT_SAMPLE_RATE = 64
SEPARATOR = 0  # byte placed after every row
#: BWT rows per sub-block, the inflate unit inside a block (the fetch
#: unit). Picked from the 2/4/8 KiB curve in docs/performance.md and
#: recorded in every file's params.
RANK_STRIDE = 2048
#: In-block checkpoint counts are u16, so no block may be longer.
MAX_BLOCK_SIZE = 1 << 16


def page_text(values: list[str]) -> bytes:
    """Concatenate a page's rows with trailing separators."""
    out = bytearray()
    for value in values:
        encoded = value.encode("utf-8")
        if SEPARATOR in encoded:
            raise RottnestIndexError("rows must not contain NUL bytes")
        out += encoded
        out.append(SEPARATOR)
    return bytes(out)


class FmBuilder(IndexBuilder):
    """In-memory FM-index state."""

    type_name: ClassVar[str] = TYPE_NAME
    min_rows: ClassVar[int] = 1

    def __init__(
        self,
        bwt: bytes,
        sentinel: int,
        pagemap: np.ndarray,
        sample_rows: np.ndarray,
        sample_positions: np.ndarray,
        page_lens: list[int],
        page_gids: list[int],
        block_size: int,
        sample_rate: int,
        store_pagemap: bool = True,
    ) -> None:
        self.bwt = bwt
        #: The BWT row whose character is the sentinel (0x00 there).
        self.sentinel = int(sentinel)
        # Page id per BWT row; empty when not stored, and when loaded
        # (a merge rebuilds it).
        self.pagemap = pagemap
        # Sampled suffix array as two parallel int64 arrays: the BWT
        # rows that carry a sample (ascending) and their text positions.
        self.sample_rows = sample_rows
        self.sample_positions = sample_positions
        self.page_lens = page_lens
        self.page_gids = page_gids
        self.block_size = block_size
        self.sample_rate = sample_rate
        self.store_pagemap = store_pagemap

    @property
    def n(self) -> int:
        return len(self.bwt)

    @property
    def text_length(self) -> int:
        """Characters of the text (excludes the sentinel)."""
        return self.n - 1

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        pages: Iterable[tuple[int, list]],
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        store_pagemap: bool = True,
        **_params,
    ) -> "FmBuilder":
        """Build from page batches.

        ``store_pagemap=True`` materializes the per-position page map
        (fast interval→pages, but the map costs ~log2(#pages) bits per
        character). ``False`` is the paper's storage profile: pages are
        recovered at query time through sampled-suffix-array LF-walks,
        keeping the index close to the size of the compressed data.
        """
        page_gids: list[int] = []
        page_lens: list[int] = []
        chunks: list[bytes] = []
        for gid, values in pages:
            text = page_text(values)
            page_gids.append(gid)
            page_lens.append(len(text))
            chunks.append(text)
        if not chunks:
            raise RottnestIndexError("cannot build an FM-index over zero pages")
        return cls._from_text(
            b"".join(chunks),
            page_lens,
            page_gids,
            block_size=block_size,
            sample_rate=sample_rate,
            store_pagemap=store_pagemap,
        )

    @classmethod
    def _from_text(
        cls,
        text: bytes,
        page_lens: list[int],
        page_gids: list[int],
        *,
        block_size: int,
        sample_rate: int,
        store_pagemap: bool = True,
    ) -> "FmBuilder":
        if sum(page_lens) != len(text):
            raise RottnestIndexError("page lengths do not sum to text length")
        if not 0 < block_size <= MAX_BLOCK_SIZE:
            raise RottnestIndexError(
                f"block_size must be in 1..{MAX_BLOCK_SIZE}, got {block_size}"
            )
        sa = suffix_array(text)
        bwt, sentinel_index = bwt_from_sa(text, sa)
        pagemap = np.empty(0, dtype=np.uint32)
        if store_pagemap:
            # Page of each suffix start; the sentinel suffix (start ==
            # n) points past the text and is parked on the last page —
            # it can only be "matched" by the empty pattern, which is
            # rejected.
            lens = np.asarray(page_lens, dtype=np.int64)
            lens[-1] += 1
            page_of = np.repeat(np.asarray(page_gids, dtype=np.uint32), lens)
            pagemap = page_of[sa]
        sample_rows = np.flatnonzero(sa % sample_rate == 0)
        return cls(
            bwt=bwt,
            sentinel=sentinel_index,
            pagemap=pagemap,
            sample_rows=sample_rows,
            sample_positions=sa[sample_rows],
            page_lens=list(page_lens),
            page_gids=list(page_gids),
            block_size=block_size,
            sample_rate=sample_rate,
            store_pagemap=store_pagemap,
        )

    # -- serialization ------------------------------------------------
    def write(self, writer: IndexFileWriter) -> None:
        arr = np.frombuffer(self.bwt, dtype=np.uint8)
        block = self.block_size
        num_blocks = -(-self.n // block)
        if self.store_pagemap and len(self.pagemap) != self.n:
            raise RottnestIndexError(
                "no page map to write: a loaded FM index is merge input"
            )
        # Narrowest page-map dtype keeps the index near the size of the
        # compressed data (the paper's substring-index storage profile).
        pg_dtype = _pagemap_dtype(max(self.page_gids))
        alphabet = np.flatnonzero(np.bincount(arr, minlength=256))
        # Absolute raw-byte counts of each alphabet symbol before each
        # block (the sentinel's slot is counted as a raw 0x00 here;
        # queriers correct using the sentinel row in params).
        counts = np.zeros(len(alphabet), dtype=np.int64)
        # Samples of block b are sample_*[cuts[b]:cuts[b + 1]].
        cuts = np.searchsorted(
            self.sample_rows, np.arange(num_blocks + 1) * block
        )
        for b in range(num_blocks):
            lo, hi = b * block, min((b + 1) * block, self.n)
            chunk = arr[lo:hi]
            subs = -(-(hi - lo) // RANK_STRIDE)
            # Symbol counts per sub-block, one bincount for the block.
            sub_of = np.arange(hi - lo) // RANK_STRIDE
            per_sub = np.bincount(
                sub_of * 256 + chunk, minlength=256 * subs
            ).reshape(subs, 256)[:, alphabet]
            inside = np.cumsum(per_sub[:-1], axis=0)
            table = counts.astype("<u4").tobytes() + inside.astype("<u2").tobytes()
            streams = [compression.compress(table, compression.ZLIB)]
            writer.add_component(
                f"blk{b}", _pack_streams(streams + _sub_streams(chunk)), raw=True
            )
            counts += per_sub.sum(axis=0)

            if self.store_pagemap:
                page_ids = self.pagemap[lo:hi].astype(pg_dtype)
                writer.add_component(
                    f"pg{b}", _pack_streams(_sub_streams(page_ids)), raw=True
                )

            # (row delta, text position) varint pairs behind a count.
            in_block = slice(cuts[b], cuts[b + 1])
            pairs = np.empty(2 * (cuts[b + 1] - cuts[b]), dtype=np.int64)
            pairs[0::2] = np.diff(self.sample_rows[in_block], prepend=lo)
            pairs[1::2] = self.sample_positions[in_block]
            sa_payload = BinaryWriter()
            sa_payload.write_uvarint(len(pairs) // 2)
            sa_payload.write_bytes(encode_uvarints(pairs))
            writer.add_component(f"sa{b}", sa_payload.getvalue())

        lens_payload = BinaryWriter()
        lens_payload.write_uvarint(len(self.page_lens))
        for length, gid in zip(self.page_lens, self.page_gids):
            lens_payload.write_uvarint(length)
            lens_payload.write_uvarint(gid)
        writer.add_component("pagelens", lens_payload.getvalue())

        writer.params.update(
            {
                "n": self.n,
                "block_size": block,
                "num_blocks": num_blocks,
                "sample_rate": self.sample_rate,
                "sentinels": [self.sentinel],
                "pg_dtype": pg_dtype,
                "has_pagemap": self.store_pagemap,
                "rank_stride": RANK_STRIDE,
                "alphabet": alphabet.tolist(),
            }
        )

    @classmethod
    def load(cls, reader: IndexFileReader) -> "FmBuilder":
        """Merge input: the BWT, SA samples and page lengths. The page
        map is not read — a merge rebuilds it."""
        params = reader.params
        layout = BlockLayout(params)
        num_blocks = params["num_blocks"]
        block = layout.block_size
        chunks = []
        for b, blob in enumerate(
            reader.components([f"blk{b}" for b in range(num_blocks)])
        ):
            try:
                chunks.append(layout.rank_block(b, blob).inflate_all())
            except ValueError as exc:
                raise FormatError(f"blk{b}: {exc}") from exc
        bwt = b"".join(chunks)
        sample_rows, sample_positions = [], []
        for b, blob in enumerate(
            reader.components([f"sa{b}" for b in range(num_blocks)])
        ):
            try:
                rows, positions = _decode_samples(blob)
            except ValueError as exc:
                raise FormatError(f"sa{b}: {exc}") from exc
            sample_rows.append(b * block + rows)
            sample_positions.append(positions)
        lens_reader = BinaryReader(reader.component("pagelens"))
        num_pages = lens_reader.read_uvarint()
        page_lens, page_gids = [], []
        for _ in range(num_pages):
            page_lens.append(lens_reader.read_uvarint())
            page_gids.append(lens_reader.read_uvarint())
        return cls(
            bwt=bwt,
            sentinel=layout.sentinel,
            pagemap=np.empty(0, dtype=np.uint32),
            sample_rows=np.concatenate(sample_rows),
            sample_positions=np.concatenate(sample_positions),
            page_lens=page_lens,
            page_gids=page_gids,
            block_size=block,
            sample_rate=params["sample_rate"],
            store_pagemap=layout.has_pagemap,
        )

    # -- merging --------------------------------------------------------
    def text(self) -> bytes:
        """The concatenated page texts this index was built over,
        recovered from the BWT and its SA samples."""
        return invert_bwt(
            self.bwt, self.sentinel, self.sample_rows, self.sample_positions
        )

    @classmethod
    def merge_streaming(
        cls, parts: Iterable["FmBuilder"], gid_offsets: list[int]
    ) -> "FmBuilder":
        """Merge by inversion and one suffix sort.

        Each part is inverted to its text as it arrives (and can then
        be dropped), and one build runs over the concatenated texts:
        the result is byte-identical to building over the concatenated
        pages, with the largest block size and sample rate of the parts
        and a page map only if every part has one. The paper merges by
        bounded interleave iteration; inverting from the samples and
        sorting once is faster in numpy and needs no fallback.
        """
        texts: list[bytes] = []
        page_lens: list[int] = []
        page_gids: list[int] = []
        block = rate = 0
        pagemap_all = True
        for part, offset in paired(parts, gid_offsets):
            texts.append(part.text())
            page_lens.extend(part.page_lens)
            page_gids.extend(g + offset for g in part.page_gids)
            block = max(block, part.block_size)
            rate = max(rate, part.sample_rate)
            pagemap_all = pagemap_all and part.store_pagemap
        return cls._from_text(
            b"".join(texts),
            page_lens,
            page_gids,
            block_size=block,
            sample_rate=rate,
            store_pagemap=pagemap_all,
        )


class FmQuerier(ExactQuerier):
    """Backward search + page resolution over the componentized layout."""

    type_name: ClassVar[str] = TYPE_NAME

    #: Cap on LF-walk locates for one query in page-map-less mode.
    MAX_LOCATED_MATCHES = 10_000

    def __init__(self, reader: IndexFileReader) -> None:
        super().__init__(reader)
        params = reader.params
        self.n: int = params["n"]
        self.block_size: int = params["block_size"]
        self.num_blocks: int = params["num_blocks"]
        self._layout = BlockLayout(params)
        self.sentinel = self._layout.sentinel
        self.stride = self._layout.stride
        #: This query's handles on the blocks and sub-blocks it touched,
        #: in front of the reader's (possibly shared) decoded cache.
        self._blocks: dict[int, StreamBlock] = {}
        self._chars: dict[tuple[int, int], bytes] = {}
        self._samples: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._c_array: np.ndarray | None = None

    @classmethod
    def warm(cls, reader: IndexFileReader) -> None:
        super().warm(reader)
        cls(reader).c_array  # the last block, before any search step

    # -- low-level ------------------------------------------------------
    def _block(self, b: int) -> "StreamBlock":
        """Block ``b``'s checkpoint table and sub-streams, none inflated."""
        block = self._blocks.get(b)
        if block is None:
            layout = self._layout
            block = self.reader.decoded(
                f"blk{b}", lambda blob: layout.rank_block(b, blob)
            )
            self._blocks[b] = block
        return block

    def _sub_chars(self, b: int, s: int) -> bytes:
        """BWT sub-block ``s`` of block ``b``, inflated once per query on
        a plain store and once while cached on a caching one."""
        chars = self._chars.get((b, s))
        if chars is None:
            block = self._block(b)
            chars = self.reader.memo(f"blk{b}.{s}", lambda: block.sub(s))
            self._chars[(b, s)] = chars
        return chars

    def _prefetch_blocks(self, blocks: list[int]) -> None:
        """Fetch the missing blocks as one parallel round."""
        for b in sorted(set(blocks) - self._blocks.keys()):
            self._block(b)

    def _occ(self, char: int, pos: int) -> int:
        """Occurrences of ``char`` in BWT[0:pos), sentinel-corrected."""
        if pos <= 0:
            return 0
        pos = min(pos, self.n)
        b = (pos - 1) // self.block_size
        block = self._block(b)
        column = self._layout.column[char]
        if column < 0:
            return 0  # not in this file's alphabet
        local = pos - b * self.block_size
        s = min(local // self.stride, len(block.rank) - 1)
        rest = local - s * self.stride
        occ = int(block.rank[s, column])
        if rest:
            occ += self._sub_chars(b, s).count(char, 0, rest)
        if char == 0 and self.sentinel < pos:
            occ -= 1  # the sentinel's slot, stored as 0x00
        return occ

    @property
    def c_array(self) -> np.ndarray:
        """``C[c]`` = BWT characters (incl. the sentinel) smaller than c."""
        if self._c_array is None:
            last = self.num_blocks - 1
            block = self._block(last)
            tail = self._sub_chars(last, len(block.rank) - 1)
            totals = np.bincount(
                np.frombuffer(tail, dtype=np.uint8), minlength=256
            ).astype(np.int64)
            totals[self._layout.alphabet] += block.rank[-1]
            totals[0] -= 1
            c = np.empty(257, dtype=np.int64)
            c[0] = 1
            c[1:] = 1 + np.cumsum(totals)
            self._c_array = c
        return self._c_array

    # -- search -----------------------------------------------------
    def interval(self, needle: bytes) -> tuple[int, int]:
        """Backward search; returns the matched BWT interval [lo, hi)."""
        if not needle:
            raise RottnestIndexError("empty search pattern")
        if SEPARATOR in needle:
            raise RottnestIndexError("pattern must not contain NUL bytes")
        c = self.c_array
        lo, hi = 0, self.n
        for char in reversed(needle):
            barrier()  # each extension depends on the last
            self._prefetch_blocks(
                [max(0, (p - 1)) // self.block_size for p in (lo, hi) if p > 0]
            )
            lo = int(c[char]) + self._occ(char, lo)
            hi = int(c[char]) + self._occ(char, hi)
            if lo >= hi:
                return lo, lo
        return lo, hi

    def count(self, needle) -> int:
        """Exact number of (possibly overlapping) occurrences."""
        lo, hi = self.interval(_as_bytes(needle))
        return hi - lo

    def candidate_pages(self, query, limit: int | None = None) -> list[int]:
        """Distinct global page ids containing the pattern.

        With a stored page map, reads only the page-map blocks covering
        the matched interval. Without one (the paper's storage profile),
        each match position is recovered by a sampled-SA LF-walk and
        mapped to its page through the page-length table. ``limit``
        stops early once that many distinct pages are found.
        """
        lo, hi = self.interval(_as_bytes(query))
        if lo >= hi:
            return []
        barrier()
        if self._layout.has_pagemap:
            return self._pages_from_pagemap(lo, hi, limit)
        return self._pages_from_walks(lo, hi, limit)

    def _pages_from_pagemap(
        self, lo: int, hi: int, limit: int | None
    ) -> list[int]:
        pages: set[int] = set()
        layout, stride = self._layout, self.stride
        pg_dtype = layout.pg_dtype
        for b in range(lo // self.block_size, (hi - 1) // self.block_size + 1):
            block = self.reader.decoded(
                f"pg{b}", lambda blob: layout.page_block(b, blob, pg_dtype.itemsize)
            )
            # [first, end) of the interval inside block b, then inside
            # each sub-block that overlaps it.
            first = max(lo - b * self.block_size, 0)
            end = min(hi - b * self.block_size, layout.rows(b))
            for s in range(first // stride, (end - 1) // stride + 1):
                ids = self.reader.memo(
                    f"pg{b}.{s}", lambda: np.frombuffer(block.sub(s), pg_dtype)
                )
                base = s * stride
                pages.update(np.unique(ids[max(first - base, 0) : end - base]).tolist())
                if limit is not None and len(pages) >= limit:
                    return sorted(pages)
        return sorted(pages)

    def _pages_from_walks(self, lo: int, hi: int, limit: int | None) -> list[int]:
        starts, gids = self.reader.decoded("pagelens", _page_starts)
        if hi - lo > self.MAX_LOCATED_MATCHES:
            # Too many rows to walk: every page of the file is a
            # superset, and verification filters it.
            return np.unique(gids).tolist()
        pages: set[int] = set()
        for row in range(lo, hi):
            position = self._resolve(row)
            page_index = int(np.searchsorted(starts, position, side="right")) - 1
            page_index = min(max(page_index, 0), len(gids) - 1)
            pages.add(int(gids[page_index]))
            if limit is not None and len(pages) >= limit:
                break
        return sorted(pages)

    def locate_positions(self, needle, limit: int = 100) -> list[int]:
        """Exact text offsets of up to ``limit`` matches (sampled-SA
        LF-walks; each step is a dependent block read)."""
        lo, hi = self.interval(_as_bytes(needle))
        positions = []
        for i in range(lo, min(hi, lo + limit)):
            positions.append(self._resolve(i))
        return sorted(positions)

    def _resolve(self, row: int) -> int:
        steps = 0
        j = row
        while True:
            sample = self._sample_at(j)
            if sample is not None:
                return sample + steps
            b, local = divmod(j, self.block_size)
            s, offset = divmod(local, self.stride)
            char = self._sub_chars(b, s)[offset]
            barrier()
            j = int(self.c_array[char]) + self._occ(char, j)
            steps += 1

    def _sample_at(self, row: int) -> int | None:
        """The sampled text position of BWT row ``row``, if it has one."""
        b, local = divmod(row, self.block_size)
        samples = self._samples.get(b)
        if samples is None:
            samples = self.reader.decoded(f"sa{b}", _decode_samples)
            self._samples[b] = samples
        rows, positions = samples
        i = int(np.searchsorted(rows, local))
        if i < len(rows) and rows[i] == local:
            return int(positions[i])
        return None


class StreamBlock(NamedTuple):
    """One decoded ``blk{b}`` or ``pg{b}``, nothing inflated yet: the
    checkpoint table and where each sub-block's stream lies."""

    #: (sub-blocks, alphabet) absolute count of each alphabet symbol
    #: before each sub-block; no columns for a page-map block.
    rank: np.ndarray
    data: bytes
    #: Sub-block ``s``'s stream is ``data[bounds[s]:bounds[s + 1]]``.
    bounds: list[int]
    #: Inflated bytes of a full sub-block, and of the whole block.
    unit: int
    total: int

    def sub(self, s: int) -> bytes:
        """Sub-block ``s``, inflated and checked against its length."""
        out = compression.decompress(
            self.data[self.bounds[s] : self.bounds[s + 1]], compression.ZLIB
        )
        expected = min(self.unit, self.total - s * self.unit)
        if len(out) != expected:
            raise ValueError(
                f"sub-block {s} holds {len(out)} bytes, expected {expected}"
            )
        return out

    def inflate_all(self) -> bytes:
        return b"".join(self.sub(s) for s in range(len(self.bounds) - 1))


class BlockLayout:
    """How one file's blocks decode, from its params: sub-blocks of
    ``rank_stride`` rows over an ``alphabet``, the sentinel's row, and
    the page map's presence and dtype."""

    def __init__(self, params: dict) -> None:
        try:
            self.n: int = params["n"]
            self.block_size: int = params["block_size"]
            self.stride = params["rank_stride"]
            self.alphabet = np.asarray(params["alphabet"], dtype=np.int64)
            sentinels = list(params["sentinels"])
            self.has_pagemap: bool = params["has_pagemap"]
            self.pg_dtype = np.dtype(params["pg_dtype"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad FM params: {exc!r}") from None
        if len(sentinels) != 1:
            raise FormatError(f"an FM file has one sentinel, not {sentinels!r}")
        self.sentinel = int(sentinels[0])
        if not (
            isinstance(self.stride, int)
            and self.stride > 0
            and len(self.alphabet)
            and self.alphabet[0] >= 0
            and self.alphabet[-1] < 256
            and (np.diff(self.alphabet) > 0).all()
        ):
            raise FormatError(
                f"bad FM params: rank_stride {self.stride!r}, "
                f"alphabet {params['alphabet']!r}"
            )
        #: Byte value -> its column in a checkpoint table, or -1.
        self.column = [-1] * 256
        for index, symbol in enumerate(self.alphabet.tolist()):
            self.column[symbol] = index

    def rows(self, b: int) -> int:
        """BWT rows in block ``b``."""
        return min(self.block_size, self.n - b * self.block_size)

    def rank_block(self, b: int, blob: bytes) -> StreamBlock:
        """``blk{b}``: the checkpoint table (stream 0), then the BWT
        sub-blocks."""
        rows = self.rows(b)
        count = -(-rows // self.stride)
        bounds = _unpack_streams(blob, count + 1)
        table = compression.decompress(blob[bounds[0] : bounds[1]], compression.ZLIB)
        width = len(self.alphabet)
        if len(table) != width * (4 + 2 * (count - 1)):
            raise ValueError(
                f"a checkpoint table of {len(table)} bytes does not fit "
                f"{count} rows over an alphabet of {width}"
            )
        rank = np.zeros((count, width), dtype=np.uint32)
        rank[1:] = np.frombuffer(table, dtype="<u2", offset=4 * width).reshape(
            count - 1, width
        )
        if (rank[1:] < rank[:-1]).any():
            raise ValueError("a checkpoint row decreases")
        if (rank.sum(axis=1) != self.stride * np.arange(count)).any():
            raise ValueError("checkpoint rows do not count the rows before them")
        rank += np.frombuffer(table, dtype="<u4", count=width)
        return StreamBlock(rank, blob, bounds[1:], self.stride, rows)

    def page_block(self, b: int, blob: bytes, itemsize: int) -> StreamBlock:
        """``pg{b}``: the page-map sub-blocks."""
        total = self.rows(b) * itemsize
        count = -(-self.rows(b) // self.stride)
        bounds = _unpack_streams(blob, count)
        return StreamBlock(_NO_RANK, blob, bounds, self.stride * itemsize, total)


_NO_RANK = np.zeros((0, 0), dtype=np.uint32)


def _sub_streams(rows: np.ndarray) -> list[bytes]:
    """Each ``RANK_STRIDE`` rows of a block, deflated on its own. A BWT
    is runs of one symbol, and so is a page map: RLE deflate (matches at
    distance one) is smaller there than the default strategy, about as
    fast to inflate and several times faster to write."""
    return [
        compression.compress(
            rows[i : i + RANK_STRIDE].tobytes(), compression.ZLIB, rle=True
        )
        for i in range(0, len(rows), RANK_STRIDE)
    ]


def _pack_streams(streams: list[bytes]) -> bytes:
    """A stream pack: the count and each stream's length (u16; a
    deflated sub-block or checkpoint table is far shorter), then the
    streams."""
    lengths = [len(stream) for stream in streams]
    return struct.pack(f"<{len(streams) + 1}H", len(streams), *lengths) + b"".join(
        streams
    )


def _unpack_streams(blob: bytes, count: int) -> list[int]:
    """Where a stream pack of ``count`` streams puts them: ``count + 1``
    increasing offsets into ``blob``, the last at its end."""
    try:
        found, *lengths = struct.unpack_from(f"<{count + 1}H", blob)
    except struct.error as exc:
        raise ValueError(f"truncated stream pack: {exc}") from None
    if found != count:
        raise ValueError(f"{found} streams where {count} belong")
    if 0 in lengths:
        raise ValueError(f"stream offsets do not increase: lengths {lengths}")
    bounds = list(accumulate(lengths, initial=2 * (count + 1)))
    if bounds[-1] != len(blob):
        raise ValueError(
            f"streams end at {bounds[-1]}, the payload at {len(blob)}"
        )
    return bounds


def _decode_samples(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``sa{b}``: the block's sampled rows (ascending offsets within the
    block) and their text positions, from (row delta, position) varint
    pairs behind a count."""
    r = BinaryReader(blob)
    count = r.read_uvarint()
    pairs, _ = decode_uvarints(blob, 2 * count, r.pos)
    return np.cumsum(pairs[0::2]), pairs[1::2]


def _page_starts(blob: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``pagelens``: each page's first text position and its global id."""
    r = BinaryReader(blob)
    count = r.read_uvarint()
    lens, gids = [], []
    for _ in range(count):
        lens.append(r.read_uvarint())
        gids.append(r.read_uvarint())
    starts = np.concatenate(([0], np.cumsum(np.asarray(lens, dtype=np.int64))[:-1]))
    return starts, np.asarray(gids, dtype=np.uint32)


def _pagemap_dtype(max_gid: int) -> str:
    if max_gid < 256:
        return "<u1"
    if max_gid < 65536:
        return "<u2"
    return "<u4"


def _as_bytes(query) -> bytes:
    if isinstance(query, str):
        return query.encode("utf-8")
    return bytes(query)
