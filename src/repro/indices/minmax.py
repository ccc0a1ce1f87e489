"""Min-max zone-map index: per-page (min, max) of a comparable column.

This is the indexing primitive Parquet data lakes already rely on —
lifted out of the file footers into a Rottnest index so it can serve
planned point/range probes without opening any footer. It is also the
paper's §II-B negative exhibit: on clustered or sorted columns (time,
monotonically increasing ids) a probe touches few pages, but on
high-cardinality random columns every page's [min, max] spans the whole
key space and the "index" prunes nothing. The measurable contrast with
the trie/bloom indices is what motivates Rottnest in the first place.

Layout: entries packed into components of consecutive pages; a probe
reads every component in one parallel round (the structure is tiny:
two values per page).
"""

from __future__ import annotations

import struct
from typing import ClassVar, Iterable

from repro.errors import RottnestIndexError
from repro.core.index_file import IndexFileReader, IndexFileWriter
from repro.indices.base import ExactQuerier, IndexBuilder, paired
from repro.util.binio import BinaryReader, BinaryWriter

TYPE_NAME = "minmax"
DEFAULT_COMPONENT_TARGET_BYTES = 256 * 1024

_TAG_INT = "i"
_TAG_STR = "s"
_TAG_BYTES = "b"


def _tag_of(value) -> str:
    if isinstance(value, bool):
        raise RottnestIndexError("boolean columns are not comparable keys")
    if isinstance(value, int):
        return _TAG_INT
    if isinstance(value, str):
        return _TAG_STR
    if isinstance(value, (bytes, bytearray)):
        return _TAG_BYTES
    raise RottnestIndexError(
        f"min-max index cannot compare values of type {type(value).__name__}"
    )


def _write_value(writer: BinaryWriter, tag: str, value) -> None:
    if tag == _TAG_INT:
        writer.write_bytes(struct.pack("<q", value))
    elif tag == _TAG_STR:
        writer.write_str(value)
    else:
        writer.write_len_bytes(bytes(value))


def _read_value(reader: BinaryReader, tag: str):
    if tag == _TAG_INT:
        return struct.unpack("<q", reader.read_bytes(8))[0]
    if tag == _TAG_STR:
        return reader.read_str()
    return reader.read_len_bytes()


class MinMaxBuilder(IndexBuilder):
    """In-memory form: ``(gid, min, max)`` per page, gid-ordered."""

    type_name: ClassVar[str] = TYPE_NAME
    min_rows: ClassVar[int] = 1

    def __init__(self, tag: str, entries: list[tuple[int, object, object]]) -> None:
        self.tag = tag
        self.entries = entries

    @classmethod
    def build(
        cls, pages: Iterable[tuple[int, list]], **_params
    ) -> "MinMaxBuilder":
        entries: list[tuple[int, object, object]] = []
        tag: str | None = None
        for gid, values in pages:
            if not len(values):
                raise RottnestIndexError(f"page {gid} has no values")
            page_tag = _tag_of(values[0])
            if tag is None:
                tag = page_tag
            elif tag != page_tag:
                raise RottnestIndexError(
                    f"mixed value types in min-max index: {tag} vs {page_tag}"
                )
            normalized = (
                [bytes(v) for v in values] if tag == _TAG_BYTES else list(values)
            )
            entries.append((gid, min(normalized), max(normalized)))
        if tag is None:
            raise RottnestIndexError("cannot build a min-max index over zero pages")
        entries.sort(key=lambda e: e[0])
        return cls(tag, entries)

    def write(
        self,
        writer: IndexFileWriter,
        *,
        component_target_bytes: int = DEFAULT_COMPONENT_TARGET_BYTES,
    ) -> None:
        component = BinaryWriter()
        count = 0
        num_components = 0

        def flush() -> None:
            nonlocal component, count, num_components
            if count:
                header = BinaryWriter()
                header.write_uvarint(count)
                writer.add_component(
                    f"zones{num_components}",
                    header.getvalue() + component.getvalue(),
                )
                num_components += 1
            component = BinaryWriter()
            count = 0

        for gid, lo, hi in self.entries:
            component.write_uvarint(gid)
            _write_value(component, self.tag, lo)
            _write_value(component, self.tag, hi)
            count += 1
            if len(component) >= component_target_bytes:
                flush()
        flush()
        writer.params["num_components"] = num_components
        writer.params["value_tag"] = self.tag

    @classmethod
    def load(cls, reader: IndexFileReader) -> "MinMaxBuilder":
        tag = reader.params["value_tag"]
        entries: list[tuple[int, object, object]] = []
        names = [f"zones{i}" for i in range(reader.params["num_components"])]
        for blob in reader.components(names):
            r = BinaryReader(blob)
            count = r.read_uvarint()
            for _ in range(count):
                gid = r.read_uvarint()
                lo = _read_value(r, tag)
                hi = _read_value(r, tag)
                entries.append((gid, lo, hi))
        return cls(tag, entries)

    @classmethod
    def merge_streaming(
        cls, parts: Iterable["MinMaxBuilder"], gid_offsets: list[int]
    ) -> "MinMaxBuilder":
        tags: set[str] = set()
        entries: list[tuple[int, object, object]] = []
        for part, offset in paired(parts, gid_offsets):
            tags.add(part.tag)
            entries.extend((g + offset, lo, hi) for g, lo, hi in part.entries)
        if len(tags) != 1:
            raise RottnestIndexError(f"cannot merge mixed value tags {tags}")
        entries.sort(key=lambda e: e[0])
        return cls(tags.pop(), entries)


class MinMaxQuerier(ExactQuerier):
    """One parallel round: fetch all zone components, prune locally."""

    type_name: ClassVar[str] = TYPE_NAME

    def candidate_pages(self, query) -> list[int]:
        """Pages whose [min, max] intersects the probe.

        ``query`` is a point value (exact match) or an inclusive
        ``(lo, hi)`` tuple (range probe).
        """
        tag = self.reader.params["value_tag"]
        if isinstance(query, tuple):
            lo, hi = query
        else:
            lo = hi = query
        lo = _coerce(tag, lo)
        hi = _coerce(tag, hi)
        names = [
            f"zones{i}" for i in range(self.reader.params["num_components"])
        ]
        gids: list[int] = []
        for blob in self.reader.components(names):
            r = BinaryReader(blob)
            count = r.read_uvarint()
            for _ in range(count):
                gid = r.read_uvarint()
                page_lo = _read_value(r, tag)
                page_hi = _read_value(r, tag)
                if page_lo <= hi and lo <= page_hi:
                    gids.append(gid)
        return sorted(gids)


def _coerce(tag: str, value):
    if tag == _TAG_BYTES:
        if not isinstance(value, (bytes, bytearray)):
            raise RottnestIndexError(
                f"probe type {type(value).__name__} vs binary zone map"
            )
        return bytes(value)
    if tag == _TAG_INT and not isinstance(value, int):
        raise RottnestIndexError(
            f"probe type {type(value).__name__} vs int zone map"
        )
    if tag == _TAG_STR and not isinstance(value, str):
        raise RottnestIndexError(
            f"probe type {type(value).__name__} vs string zone map"
        )
    return value
