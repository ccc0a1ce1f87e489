"""Rottnest core: client protocol, index files, componentization."""

from repro.core.client import (
    RottnestClient,
    SearchMatch,
    SearchPlan,
    SearchResult,
    SearchStats,
)
from repro.core.componentize import ComponentFileReader, ComponentFileWriter
from repro.core.index_file import IndexFileReader, IndexFileWriter, PageDirectory
from repro.core.fsck import FsckReport, fsck
from repro.core.maintenance import (
    VacuumReport,
    compact_indices,
    covering_records,
    vacuum_indices,
)
from repro.core.queries import (
    Query,
    RangeQuery,
    RegexQuery,
    SubstringQuery,
    UuidQuery,
    VectorQuery,
)

__all__ = [
    "RottnestClient",
    "SearchMatch",
    "SearchPlan",
    "SearchResult",
    "SearchStats",
    "ComponentFileReader",
    "ComponentFileWriter",
    "IndexFileReader",
    "IndexFileWriter",
    "PageDirectory",
    "FsckReport",
    "fsck",
    "VacuumReport",
    "covering_records",
    "compact_indices",
    "vacuum_indices",
    "Query",
    "RangeQuery",
    "RegexQuery",
    "SubstringQuery",
    "UuidQuery",
    "VectorQuery",
]
