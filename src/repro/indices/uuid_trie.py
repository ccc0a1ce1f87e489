"""High-cardinality identifier index: componentized binary trie (§V-C1).

Each key (UUID, transaction hash, pod name digest, ...) is a path in a
binary trie. To keep the index small only a prefix of each key is
stored: its longest common prefix with its sorted neighbours plus one
distinguishing bit, *plus 8 extra bits of headroom* so indices can be
merged without recomputing LCPs — after a merge, entries whose stored
prefixes collide simply map to multiple pages, which is fine because
Rottnest indices may return false positives (in-situ probing filters
them).

Layout, per the componentization principle of Fig. 6:

* the first 8 trie levels are replaced by a 256-entry **lookup table**
  (component ``lutb``, written last so it lands in the cached tail of
  the file — reading it costs no extra request): per first-byte bucket
  the varints ``(leaf_id, bucket_byte_len, count)``. A bucket starts at
  the summed byte lengths of the earlier buckets of its leaf, so the
  table is *looked up, never walked* — one vectorized decode, one seek;
* entries live in **leaf components** (``leaf0``, ``leaf1``, ...), each
  holding a contiguous range of the sorted entries, bin-packed to a
  target raw size.

A lookup therefore costs: open (tail fetch, includes the LUT) → one
dependent round fetching exactly one leaf component → parsing only the
key's own bucket (its ``count`` entries), whatever else the leaf holds.
A file without a ``lutb`` is a :class:`~repro.errors.FormatError` at
the first probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from repro.errors import RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.indices.base import ExactQuerier, IndexBuilder, paired
from repro.indices.bits import lcp_bits, prefix_matches, truncate_bits
from repro.storage.stats import barrier
from repro.util.binio import BinaryReader, BinaryWriter
from repro.util.varint import decode_uvarints

TYPE_NAME = "uuid_trie"
DEFAULT_EXTRA_BITS = 8
DEFAULT_COMPONENT_TARGET_BYTES = 256 * 1024
LUT_SIZE = 256
LUT = "lutb"  # component name; see the module docstring


@dataclass
class TrieEntry:
    """One truncated key and the pages containing its full key(s)."""

    prefix: bytes  # truncated, zero-padded key prefix
    bits: int  # number of meaningful bits in ``prefix``
    gids: list[int]  # global page ids, sorted ascending

    def sort_key(self) -> tuple[bytes, int]:
        return (self.prefix, self.bits)


class UuidTrieBuilder(IndexBuilder):
    """In-memory trie: the sorted truncated-entry array."""

    type_name: ClassVar[str] = TYPE_NAME
    min_rows: ClassVar[int] = 1

    def __init__(self, entries: list[TrieEntry], extra_bits: int) -> None:
        self.entries = entries
        self.extra_bits = extra_bits

    @classmethod
    def build(
        cls,
        pages: Iterable[tuple[int, list]],
        *,
        extra_bits: int = DEFAULT_EXTRA_BITS,
        **_params,
    ) -> "UuidTrieBuilder":
        pairs: list[tuple[bytes, int]] = []
        for gid, values in pages:
            for value in values:
                key = bytes(value)
                if not key:
                    raise RottnestIndexError("cannot index empty keys")
                pairs.append((key, gid))
        if not pairs:
            raise RottnestIndexError("cannot build a trie over zero rows")
        pairs.sort()
        # Group identical keys, merging their page lists.
        keys: list[bytes] = []
        gid_lists: list[list[int]] = []
        for key, gid in pairs:
            if keys and keys[-1] == key:
                if gid_lists[-1][-1] != gid:
                    gid_lists[-1].append(gid)
            else:
                keys.append(key)
                gid_lists.append([gid])
        entries = []
        for i, key in enumerate(keys):
            lcp = 0
            if i > 0:
                lcp = max(lcp, lcp_bits(key, keys[i - 1]))
            if i + 1 < len(keys):
                lcp = max(lcp, lcp_bits(key, keys[i + 1]))
            # LCP + 1 distinguishing bit + merge headroom, floor of one
            # byte so the 8-bit LUT level is always present, capped at
            # the key's own length.
            bits = min(max(lcp + 1 + extra_bits, 8), len(key) * 8)
            entries.append(
                TrieEntry(
                    prefix=truncate_bits(key, bits), bits=bits, gids=gid_lists[i]
                )
            )
        entries.sort(key=TrieEntry.sort_key)
        return cls(_coalesce(entries), extra_bits)

    # -- serialization --------------------------------------------------
    def write(
        self,
        writer: IndexFileWriter,
        *,
        component_target_bytes: int = DEFAULT_COMPONENT_TARGET_BYTES,
    ) -> None:
        # Bucket = first byte of the prefix (the 8 LUT levels).
        starts = [0] * (LUT_SIZE + 1)
        for e in self.entries:
            starts[e.prefix[0] + 1] += 1
        for b in range(LUT_SIZE):
            starts[b + 1] += starts[b]

        # Bin-pack consecutive buckets into leaf components. A bucket's
        # LUT row is (leaf, byte length, entry count); the LUT goes last
        # so it lands in the file tail and reading it is free.
        lut = BinaryWriter()
        leaf = BinaryWriter()
        num_leaves = 0
        for b in range(LUT_SIZE):
            before = len(leaf)
            for e in self.entries[starts[b] : starts[b + 1]]:
                _write_entry(leaf, e)
            lut.write_uvarint(num_leaves)
            lut.write_uvarint(len(leaf) - before)
            lut.write_uvarint(starts[b + 1] - starts[b])
            if len(leaf) >= component_target_bytes or b == LUT_SIZE - 1:
                writer.add_component(f"leaf{num_leaves}", leaf.getvalue())
                num_leaves += 1
                leaf = BinaryWriter()
        writer.add_component(LUT, lut.getvalue())
        writer.params["num_leaves"] = num_leaves
        writer.params["extra_bits"] = self.extra_bits

    @classmethod
    def load(cls, reader: IndexFileReader) -> "UuidTrieBuilder":
        entries: list[TrieEntry] = []
        num_leaves = reader.params["num_leaves"]
        for blob in reader.components([f"leaf{i}" for i in range(num_leaves)]):
            r = BinaryReader(blob)
            while r.remaining():
                entries.append(_read_entry(r))
        return cls(entries, reader.params.get("extra_bits", DEFAULT_EXTRA_BITS))

    @classmethod
    def merge_streaming(
        cls, parts: Iterable["UuidTrieBuilder"], gid_offsets: list[int]
    ) -> "UuidTrieBuilder":
        """K-way merge of sorted entry arrays with gid remapping, one
        part at a time.

        No raw data is read; stored prefixes keep their lengths (the
        ``extra_bits`` headroom absorbs new collisions, which become
        multi-page entries — i.e. possible false positives, by design).
        Entries are shifted per part and sorted/coalesced once, so only
        the entries survive each iteration, never two loaded parts.
        """
        shifted: list[TrieEntry] = []
        extra = 0
        for part, offset in paired(parts, gid_offsets):
            extra = max(extra, part.extra_bits)
            for e in part.entries:
                shifted.append(
                    TrieEntry(
                        prefix=e.prefix,
                        bits=e.bits,
                        gids=[g + offset for g in e.gids],
                    )
                )
        shifted.sort(key=TrieEntry.sort_key)
        return cls(_coalesce(shifted), extra)


class UuidTrieQuerier(ExactQuerier):
    """Query path: LUT (free, from the cached tail) → one leaf GET."""

    type_name: ClassVar[str] = TYPE_NAME

    @classmethod
    def warm(cls, reader: IndexFileReader) -> None:
        super().warm(reader)
        _lut(reader)

    def candidate_pages(self, query) -> list[int]:
        key = bytes(query)
        if not key:
            raise RottnestIndexError("cannot search for an empty key")
        bucket = key[0]
        leaf_ids, lengths, counts = _lut(self.reader).T
        leaf_id, count = int(leaf_ids[bucket]), int(counts[bucket])
        if count == 0:
            return []
        # The bucket starts where the earlier buckets of its leaf end.
        start = int(lengths[:bucket][leaf_ids[:bucket] == leaf_id].sum())
        barrier()  # leaf fetch depends on the LUT
        blob = BinaryReader(self.reader.component(f"leaf{leaf_id}"), start)
        gids: list[int] = []
        for _ in range(count):
            entry = _read_entry(blob)
            if prefix_matches(entry.prefix, entry.bits, key):
                gids.extend(entry.gids)
        return sorted(set(gids))


def _lut(reader: IndexFileReader) -> np.ndarray:
    """The decoded LUT: ``(LUT_SIZE, 3)`` varint rows, one vectorized
    decode."""
    return reader.decoded(LUT, _lut_rows)


def _lut_rows(blob: bytes) -> np.ndarray:
    rows, _ = decode_uvarints(blob, 3 * LUT_SIZE)
    return rows.reshape(LUT_SIZE, 3)


def _coalesce(sorted_entries: list[TrieEntry]) -> list[TrieEntry]:
    """Merge adjacent entries with identical (prefix, bits)."""
    out: list[TrieEntry] = []
    for e in sorted_entries:
        if out and out[-1].prefix == e.prefix and out[-1].bits == e.bits:
            merged = sorted(set(out[-1].gids) | set(e.gids))
            out[-1] = TrieEntry(prefix=e.prefix, bits=e.bits, gids=merged)
        else:
            out.append(e)
    return out


def _write_entry(writer: BinaryWriter, entry: TrieEntry) -> None:
    writer.write_uvarint(entry.bits)
    writer.write_bytes(entry.prefix)  # length implied by bits
    writer.write_uvarint(len(entry.gids))
    prev = 0
    for gid in entry.gids:
        writer.write_uvarint(gid - prev)
        prev = gid


def _read_entry(reader: BinaryReader) -> TrieEntry:
    bits = reader.read_uvarint()
    prefix = reader.read_bytes((bits + 7) // 8)
    count = reader.read_uvarint()
    gids = []
    cursor = 0
    for _ in range(count):
        cursor += reader.read_uvarint()
        gids.append(cursor)
    return TrieEntry(prefix=prefix, bits=bits, gids=gids)
