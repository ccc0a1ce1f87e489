"""Per-page Bloom-filter index for exact key matching.

A lighter-weight alternative to the binary trie (§V-C1): each data page
gets a Bloom filter over its keys. A lookup tests every page's filter —
all filters are fetched in **one parallel round** (width is cheap on
object storage, §V-B), so latency stays flat while the index is a few
bits per key. The trade-off is a tunable false-positive rate that the
in-situ probing step absorbs, exactly the behaviour the paper's search
protocol is designed around ("Rottnest indices are allowed to return
false positives (e.g. bloom filter)").

Componentization: consecutive pages' filters are packed into
fixed-target components; a query reads all of them in one round. Merge
is concatenation with gid shifts — by far the cheapest compaction of
the index types here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import ClassVar, Iterable

import numpy as np

from repro.errors import RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.indices.base import ExactQuerier, IndexBuilder, paired
from repro.util.binio import BinaryReader, BinaryWriter

TYPE_NAME = "bloom"
DEFAULT_BITS_PER_KEY = 12
DEFAULT_NUM_HASHES = 7
DEFAULT_COMPONENT_TARGET_BYTES = 256 * 1024


def _hash_pair(key: bytes) -> tuple[int, int]:
    """Two independent 64-bit hashes (double hashing: h1 + i*h2)."""
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1  # odd: full period
    return h1, h2


@dataclass
class PageBloom:
    """One page's filter."""

    gid: int
    num_bits: int
    num_hashes: int
    bits: np.ndarray  # uint8 array of ceil(num_bits / 8) bytes

    @classmethod
    def build(
        cls, gid: int, keys: list[bytes], bits_per_key: int, num_hashes: int
    ) -> "PageBloom":
        num_bits = max(8, len(keys) * bits_per_key)
        bits = np.zeros((num_bits + 7) // 8, dtype=np.uint8)
        for key in keys:
            h1, h2 = _hash_pair(bytes(key))
            for i in range(num_hashes):
                bit = (h1 + i * h2) % num_bits
                bits[bit >> 3] |= 1 << (bit & 7)
        return cls(gid=gid, num_bits=num_bits, num_hashes=num_hashes, bits=bits)

    def might_contain(self, key: bytes) -> bool:
        h1, h2 = _hash_pair(bytes(key))
        for i in range(self.num_hashes):
            bit = (h1 + i * h2) % self.num_bits
            if not self.bits[bit >> 3] & (1 << (bit & 7)):
                return False
        return True

    def serialize(self, writer: BinaryWriter) -> None:
        writer.write_uvarint(self.gid)
        writer.write_uvarint(self.num_bits)
        writer.write_uvarint(self.num_hashes)
        writer.write_len_bytes(self.bits.tobytes())

    @classmethod
    def deserialize(cls, reader: BinaryReader) -> "PageBloom":
        gid = reader.read_uvarint()
        num_bits = reader.read_uvarint()
        num_hashes = reader.read_uvarint()
        bits = np.frombuffer(reader.read_len_bytes(), dtype=np.uint8).copy()
        return cls(gid=gid, num_bits=num_bits, num_hashes=num_hashes, bits=bits)


class BloomBuilder(IndexBuilder):
    """In-memory form: one filter per page, in gid order."""

    type_name: ClassVar[str] = TYPE_NAME
    min_rows: ClassVar[int] = 1

    def __init__(self, blooms: list[PageBloom]) -> None:
        self.blooms = blooms

    @classmethod
    def build(
        cls,
        pages: Iterable[tuple[int, list]],
        *,
        bits_per_key: int = DEFAULT_BITS_PER_KEY,
        num_hashes: int = DEFAULT_NUM_HASHES,
        **_params,
    ) -> "BloomBuilder":
        blooms = [
            PageBloom.build(gid, [bytes(v) for v in values],
                            bits_per_key, num_hashes)
            for gid, values in pages
        ]
        if not blooms:
            raise RottnestIndexError("cannot build a bloom index over zero pages")
        blooms.sort(key=lambda b: b.gid)
        return cls(blooms)

    def write(
        self,
        writer: IndexFileWriter,
        *,
        component_target_bytes: int = DEFAULT_COMPONENT_TARGET_BYTES,
    ) -> None:
        component = BinaryWriter()
        count_in_component = 0
        num_components = 0
        counts: list[int] = []

        def flush() -> None:
            nonlocal component, count_in_component, num_components
            if count_in_component:
                header = BinaryWriter()
                header.write_uvarint(count_in_component)
                writer.add_component(
                    f"blooms{num_components}",
                    header.getvalue() + component.getvalue(),
                )
                counts.append(count_in_component)
                num_components += 1
            component = BinaryWriter()
            count_in_component = 0

        for bloom in self.blooms:
            bloom.serialize(component)
            count_in_component += 1
            if len(component) >= component_target_bytes:
                flush()
        flush()
        writer.params["num_components"] = num_components

    @classmethod
    def load(cls, reader: IndexFileReader) -> "BloomBuilder":
        blooms: list[PageBloom] = []
        names = [f"blooms{i}" for i in range(reader.params["num_components"])]
        for blob in reader.components(names):
            r = BinaryReader(blob)
            count = r.read_uvarint()
            for _ in range(count):
                blooms.append(PageBloom.deserialize(r))
        return cls(blooms)

    @classmethod
    def merge_streaming(
        cls, parts: Iterable["BloomBuilder"], gid_offsets: list[int]
    ) -> "BloomBuilder":
        """Concatenate filters with shifted gids (O(total filters))."""
        merged: list[PageBloom] = []
        for part, offset in paired(parts, gid_offsets):
            for bloom in part.blooms:
                merged.append(
                    PageBloom(
                        gid=bloom.gid + offset,
                        num_bits=bloom.num_bits,
                        num_hashes=bloom.num_hashes,
                        bits=bloom.bits,
                    )
                )
        merged.sort(key=lambda b: b.gid)
        return cls(merged)


class BloomQuerier(ExactQuerier):
    """One parallel round: fetch every filter component, test locally."""

    type_name: ClassVar[str] = TYPE_NAME

    def candidate_pages(self, query) -> list[int]:
        key = bytes(query)
        if not key:
            raise RottnestIndexError("cannot search for an empty key")
        names = [
            f"blooms{i}" for i in range(self.reader.params["num_components"])
        ]
        gids: list[int] = []
        for blob in self.reader.components(names):
            r = BinaryReader(blob)
            count = r.read_uvarint()
            for _ in range(count):
                bloom = PageBloom.deserialize(r)
                if bloom.might_contain(key):
                    gids.append(bloom.gid)
        return sorted(gids)
