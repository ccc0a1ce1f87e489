"""Rottnest index file: page directory + componentized index payload.

Every index file records, for each Parquet file it covers, the *page
table* of the indexed column (offsets/sizes/row ranges of every data
page — §V-A). Pages across all covered files get dense **global page
ids**: file 0's pages come first, then file 1's, and so on. Index
posting lists speak global page ids; the page directory converts them
back into ``(file, byte-range)`` for in-situ probing.

Component 0 of every index file is the serialized page directory; the
type-specific components follow and are addressed by *name* through the
``components`` map in the JSON header.

A file is readable only if its header says ``"format": 2`` and every
entry of its page directory carries its page's CRC32; anything else is a
:class:`~repro.errors.FormatError` at open or at directory decode. An
index derives from the data it covers, so a file of an older layout is
rebuilt from that data, never decoded: a
:class:`~repro.serve.SearchServer` answers by scan around it and
``fsck`` lists it among the corrupt index files.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, TypeVar

import numpy as np

from repro.errors import FormatError
from repro.formats.page_reader import PageEntry, PageTable
from repro.core.componentize import ComponentFileReader, ComponentFileWriter
from repro.storage.object_store import ObjectStore
from repro.util.binio import BinaryReader, BinaryWriter

#: The one format this build writes and reads: page-directory entries
#: carry a CRC32 (see :class:`~repro.formats.page_reader.PageEntry`).
FORMAT_VERSION = 2

T = TypeVar("T")


class PageDirectory:
    """Maps global page ids to concrete pages of covered files."""

    def __init__(self, tables: list[PageTable]) -> None:
        self.tables = tables
        self._bases: list[int] = []
        base = 0
        for table in tables:
            self._bases.append(base)
            base += len(table)
        self._num_pages = base

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def file_keys(self) -> list[str]:
        return [t.file_key for t in self.tables]

    @property
    def num_rows(self) -> int:
        return sum(t.num_rows for t in self.tables)

    def locate(self, gid: int) -> PageEntry:
        """Global page id -> the page's entry (with its file key)."""
        if not 0 <= gid < self._num_pages:
            raise FormatError(f"global page id {gid} out of range")
        table = bisect_right(self._bases, gid) - 1
        return self.tables[table].entry(gid - self._bases[table])

    def file_indices(self, gids: np.ndarray) -> np.ndarray:
        """Global page ids -> the index of each one's file in
        :attr:`tables`, in one vectorized lookup."""
        gids = np.asarray(gids, dtype=np.int64)
        if len(gids) and not 0 <= gids.min() <= gids.max() < self._num_pages:
            raise FormatError(
                f"global page ids {gids.min()}..{gids.max()} out of range "
                f"({self._num_pages} pages)"
            )
        return np.searchsorted(self._bases, gids, side="right") - 1

    def serialize(self) -> bytes:
        writer = BinaryWriter()
        writer.write_uvarint(len(self.tables))
        for table in self.tables:
            table.serialize(writer)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data: bytes) -> "PageDirectory":
        reader = BinaryReader(data)
        count = reader.read_uvarint()
        return cls([PageTable.deserialize(reader) for _ in range(count)])

    @classmethod
    def concat(cls, parts: list["PageDirectory"]) -> "PageDirectory":
        """Directory of a merged index: parts in order, gids shifted."""
        tables: list[PageTable] = []
        for part in parts:
            tables.extend(part.tables)
        return cls(tables)


class IndexFileWriter:
    """Assembles one index file."""

    def __init__(
        self,
        index_type: str,
        column: str,
        directory: PageDirectory,
        *,
        params: dict | None = None,
        codec: str = "zlib",
    ) -> None:
        self.index_type = index_type
        self.column = column
        self.directory = directory
        self.params = dict(params or {})
        self._writer = ComponentFileWriter(codec)
        first = self._writer.add(directory.serialize())
        self._names: dict[str, int] = {"__pages__": first}

    def add_component(
        self, name: str, data: bytes, *, rle: bool = False, raw: bool = False
    ) -> int:
        if name in self._names:
            raise FormatError(f"duplicate component name {name!r}")
        cid = self._writer.add(data, rle=rle, raw=raw)
        self._names[name] = cid
        return cid

    def finish(self) -> bytes:
        header = {
            "format": FORMAT_VERSION,
            "index_type": self.index_type,
            "column": self.column,
            "covered_files": self.directory.file_keys,
            "num_rows": self.directory.num_rows,
            "params": self.params,
            "components": self._names,
        }
        return self._writer.finish(header)


class IndexFileReader:
    """Opens an index file and exposes named components on demand.

    Index files are immutable, so what a query derives from one — the
    opened reader itself, an inflated component, a decoded array — goes
    through :meth:`~repro.storage.object_store.ObjectStore.memo`: a
    caching store keeps it across queries, a plain store rebuilds it.
    """

    def __init__(self, reader: ComponentFileReader) -> None:
        self._reader = reader
        header = reader.header
        if header.get("format") != FORMAT_VERSION:
            raise FormatError(
                f"unsupported index format {header.get('format')!r} in "
                f"{reader.key!r}"
            )
        self.index_type: str = header["index_type"]
        self.column: str = header["column"]
        self.covered_files: list[str] = header["covered_files"]
        self.num_rows: int = header["num_rows"]
        self.params: dict = header["params"]
        self._names: dict[str, int] = header["components"]

    @classmethod
    def open(
        cls, store: ObjectStore, key: str, *, size: int | None = None
    ) -> "IndexFileReader":
        """Tail GET and header parse — or the kept reader. ``size``
        (an :class:`~repro.meta.metadata_table.IndexRecord` has it)
        saves the HEAD that otherwise finds it."""
        return store.memo(
            key, "open", lambda: cls(ComponentFileReader.open(store, key, size=size))
        )

    @property
    def key(self) -> str:
        return self._reader.key

    @property
    def store(self) -> ObjectStore:
        return self._reader.store

    @property
    def size(self) -> int:
        return self._reader.size

    def component_names(self) -> list[str]:
        return sorted(self._names)

    def has_component(self, name: str) -> bool:
        return name in self._names

    def _component_id(self, name: str) -> int:
        try:
            return self._names[name]
        except KeyError:
            raise FormatError(
                f"no component {name!r} in {self._reader.key!r}"
            ) from None

    def component(self, name: str) -> bytes:
        """One component's inflated bytes (<= one ranged GET)."""
        cid = self._component_id(name)
        return self.store.memo(
            self.key, f"{name}:", lambda: self._reader.read(cid)
        )

    def decoded(self, name: str, decode: Callable[[bytes], T]) -> T:
        """``decode(component bytes)``, kept like :meth:`component`.

        ``decode`` is a pure function of the bytes (and of this file's
        header); its qualified name tells decodings of one component
        apart. A ``ValueError`` from it means the component is corrupt.
        """
        cid = self._component_id(name)
        return self.memo(
            f"{name}:{decode.__qualname__}",
            lambda: decode(self._reader.read(cid)),
        )

    def memo(self, name: str, build: Callable[[], T]) -> T:
        """``build()``, a value derived from this file alone, kept under
        ``name`` like :meth:`decoded` keeps a decoding (a part of a
        component, say). A ``ValueError`` from it means the file is
        corrupt."""

        def checked() -> T:
            try:
                return build()
            except ValueError as exc:
                raise FormatError(f"{self.key!r}: bad {name}: {exc}") from exc

        return self.store.memo(self.key, name, checked)

    def components(self, names: list[str]) -> list[bytes]:
        """Fetch several components as one parallel round (bulk loads;
        nothing is kept)."""
        return self._reader.read_many([self._component_id(n) for n in names])

    @property
    def directory(self) -> PageDirectory:
        # A probe ends by locating its pages, so looking the opened file
        # up again here keeps it as recent as its last use: an LRU then
        # evicts decoded components (one inflate to rebuild) before the
        # file they decode from (a tail GET and a header parse).
        self.store.memo(self.key, "open")
        return self.decoded("__pages__", PageDirectory.deserialize)
