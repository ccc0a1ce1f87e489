"""Parquet-like columnar file format and its two readers."""

from repro.formats.page_reader import (
    PageEntry,
    PageTable,
    build_page_table,
)
from repro.formats.parquet import (
    DEFAULT_ROW_GROUP_ROWS,
    FileMetadata,
    WriteResult,
    parse_footer,
    write_parquet,
)
from repro.formats.pages import DEFAULT_PAGE_TARGET_BYTES
from repro.formats.reader import ParquetFile
from repro.formats.schema import ColumnType, Field, Schema

__all__ = [
    "ColumnType",
    "Field",
    "Schema",
    "FileMetadata",
    "WriteResult",
    "write_parquet",
    "parse_footer",
    "ParquetFile",
    "PageEntry",
    "PageTable",
    "build_page_table",
    "DEFAULT_PAGE_TARGET_BYTES",
    "DEFAULT_ROW_GROUP_ROWS",
]
