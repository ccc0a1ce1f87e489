"""Componentization: the index-file layout strategy of §V-B.

A Rottnest index is split into *components* — serialized, individually
compressed chunks chosen so that one logical access into the data
structure touches few components, and components needed together can be
fetched in one parallel round of byte-range GETs. This sits between the
two naive extremes the paper describes:

* download-everything (one big sequential read, wasteful for random
  access), and
* "memory-mapping" (minimal bytes but long chains of dependent requests
  and no compression).

File layout:

.. code-block:: text

    +--------+------------------------+-----------+---------+--------+
    | "RIX1" | component 0..n-1 bytes | directory | len u32 | "RIX1" |
    +--------+------------------------+-----------+---------+--------+

The directory holds a JSON header (index type, column, parameters), the
component count, and per component the offset step from the previous
component, the stored size and the inflated size (uvarints) and the
codec id (one byte). Opening a file fetches the tail once; reads of
components that happened to land inside the cached tail are free,
everything else is one ranged GET per component (or one parallel round
via :meth:`ComponentFileReader.read_many`).

A corrupt directory is a :class:`~repro.errors.FormatError` at open,
never a read of a neighbour's bytes: the first component starts right
after the magic, each one ends at or before the next one's offset and
the last at or before the directory, every codec id is known, and the
entries fill the directory to its end. A read whose inflated length is
not the entry's inflated size is one as well.
"""

from __future__ import annotations

import json
from array import array
from operator import add, gt

from repro.errors import FormatError, InvalidByteRange
from repro.formats import compression
from repro.storage.object_store import ObjectStore
from repro.storage.stats import barrier
from repro.util.binio import BinaryReader, BinaryWriter

MAGIC = b"RIX1"

#: Tail bytes fetched speculatively on open; sized like real footer
#: readers so small indices resolve in a single request.
TAIL_SPECULATIVE_BYTES = 256 * 1024


class ComponentFileWriter:
    """Builds an index file from components."""

    def __init__(self, codec: str = "zlib") -> None:
        self._codec_id = compression.codec_id(codec)
        self._body = BinaryWriter()
        self._body.write_bytes(MAGIC)
        self._entries: list[tuple[int, int, int, int]] = []  # off, stored, raw, codec

    def add(self, data: bytes, *, rle: bool = False, raw: bool = False) -> int:
        """Append one component; returns its id (dense, from 0). ``rle``
        picks the codec's run-length strategy (same codec id); ``raw``
        stores ``data`` as is, for components that compress their own
        parts."""
        codec = compression.NONE if raw else self._codec_id
        stored = compression.compress(data, codec, rle=rle)
        if not compression.deflate_pays(len(data), len(stored)):
            stored, codec = data, compression.NONE
        self._entries.append((len(self._body), len(stored), len(data), codec))
        self._body.write_bytes(stored)
        return len(self._entries) - 1

    @property
    def count(self) -> int:
        return len(self._entries)

    def finish(self, header: dict) -> bytes:
        """Write the directory + footer; returns the full file bytes."""
        directory = BinaryWriter()
        directory.write_len_bytes(json.dumps(header).encode("utf-8"))
        directory.write_uvarint(len(self._entries))
        prev_offset = 0
        for offset, stored, raw, codec in self._entries:
            directory.write_uvarint(offset - prev_offset)
            prev_offset = offset
            directory.write_uvarint(stored)
            directory.write_uvarint(raw)
            directory.write_u8(codec)
        dir_bytes = directory.getvalue()
        self._body.write_bytes(dir_bytes)
        self._body.write_u32(len(dir_bytes))
        self._body.write_bytes(MAGIC)
        return self._body.getvalue()


class ComponentFileReader:
    """Random access to components of an index file on object storage."""

    def __init__(
        self,
        store: ObjectStore,
        key: str,
        *,
        size: int,
        header: dict,
        entries: array,
        tail: bytes,
        tail_start: int,
    ) -> None:
        self.store = store
        self.key = key
        self.size = size
        self.header = header
        self._entries = entries
        self._tail = tail
        self._tail_start = tail_start

    @classmethod
    def open(
        cls, store: ObjectStore, key: str, *, size: int | None = None
    ) -> "ComponentFileReader":
        """One tail GET; a HEAD first (a round of its own) when ``size``
        is unknown, and a second GET only for huge directories. A
        ``size`` past the object's end is a :class:`FormatError`, and
        one short of it leaves the footer's magic out of the tail."""
        if size is None:
            size = store.head(key).size
            barrier()  # the tail's range depends on the size
        tail_len = min(TAIL_SPECULATIVE_BYTES, size)
        tail_start = size - tail_len
        try:
            tail = store.get(key, (tail_start, tail_len))
        except InvalidByteRange as exc:
            raise FormatError(f"{key!r} is smaller than its size {size}") from exc
        if tail[-4:] != MAGIC:
            raise FormatError(f"{key!r} is not an index file (bad magic)")
        dir_len = int.from_bytes(tail[-8:-4], "little")
        frame = dir_len + 8
        if frame > size:
            raise FormatError(f"{key!r}: directory length {dir_len} too large")
        if frame <= tail_len:
            dir_bytes = tail[-frame:-8]
        else:
            barrier()
            dir_bytes = store.get(key, (size - frame, dir_len))
            tail_start, tail = size - frame, dir_bytes + tail[-8:]
        reader = BinaryReader(dir_bytes)
        header = json.loads(reader.read_len_bytes().decode("utf-8"))
        count = reader.read_uvarint()
        # (offset, stored, raw, codec) per component, flat: one object,
        # where a tuple per component would be five for a caching store
        # to hold and charge.
        entries = array("Q")
        offset = 0
        try:
            for _ in range(count):
                offset += reader.read_uvarint()
                stored = reader.read_uvarint()
                raw = reader.read_uvarint()
                entries.extend((offset, stored, raw, reader.read_u8()))
        except OverflowError as exc:
            raise FormatError(f"{key!r}: bad component directory: {exc}") from exc
        if reader.remaining():
            raise FormatError(
                f"{key!r}: bad component directory: {reader.remaining()} "
                f"bytes after its {count} entries"
            )
        _check_entries(key, entries, size - frame)
        return cls(
            store,
            key,
            size=size,
            header=header,
            entries=entries,
            tail=tail,
            tail_start=tail_start,
        )

    def __len__(self) -> int:
        return len(self._entries) // 4

    def component_size(self, component_id: int) -> int:
        return self._entry(component_id)[1]

    def _entry(self, component_id: int) -> array:
        if not 0 <= component_id < len(self):
            raise FormatError(
                f"component {component_id} out of range in {self.key!r} "
                f"({len(self)} components)"
            )
        return self._entries[4 * component_id : 4 * component_id + 4]

    def _fetch(self, offset: int, stored: int) -> bytes:
        # Served from the cached tail when fully contained — free, like
        # any real reader that keeps its footer read around.
        if offset >= self._tail_start:
            rel = offset - self._tail_start
            return self._tail[rel : rel + stored]
        return self.store.get(self.key, (offset, stored))

    def read(self, component_id: int) -> bytes:
        """Fetch and decompress one component (<= one ranged GET)."""
        offset, stored, raw, codec = self._entry(component_id)
        data = compression.decompress(self._fetch(offset, stored), codec)
        if len(data) != raw:
            raise FormatError(
                f"{self.key!r}: component {component_id} holds {len(data)} "
                f"bytes, its directory entry says {raw}"
            )
        return data

    def read_many(self, component_ids: list[int]) -> list[bytes]:
        """Fetch several components as one parallel round (no barriers
        between them); returns them in input order."""
        return [self.read(cid) for cid in component_ids]

    def read_all(self) -> list[bytes]:
        """Download every component (used by compaction merges, where a
        full sequential read is the right access pattern)."""
        return [self.read(cid) for cid in range(len(self))]


def _check_entries(key: str, entries: array, end: int) -> None:
    """``FormatError`` unless the flat (offset, stored, raw, codec)
    ``entries`` lay their components out after the magic, each ending
    at or before the next one's offset and the last at or before
    ``end`` (the directory), every one under a known codec."""
    if not entries:
        return
    offsets = entries[0::4]
    ends = list(map(add, offsets, entries[1::4]))
    if offsets[0] != len(MAGIC):
        problem = f"first component at {offsets[0]}, not {len(MAGIC)}"
    elif any(overruns := list(map(gt, ends[:-1], offsets[1:]))):
        problem = f"component {overruns.index(True)} runs into the next"
    elif ends[-1] > end:
        problem = f"last component runs past the directory at {end}"
    elif not compression.CODECS.issuperset(entries[3::4]):
        problem = f"unknown codec among {sorted(set(entries[3::4]))}"
    else:
        return
    raise FormatError(f"{key!r}: bad component directory: {problem}")
