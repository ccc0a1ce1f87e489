"""Index integrity checker ("fsck" for a Rottnest deployment).

Audits the §IV-D invariants against live state:

* **Existence** — every index file the metadata table references is
  physically present in the bucket, at the size its record names
  (searches open it at that size, without a HEAD; a mismatch is
  reported as a corrupt file);
* **Consistency** — every index file's embedded page tables match the
  real layout of each covered Parquet file that still exists (a
  violated page table would mean in-situ probes read the wrong bytes);
  the pages' CRCs are the search's to check, not a footer's;
* plus operational findings: orphan index files (uploaded but never
  committed — normal within the index timeout, vacuum fodder after)
  and stale records (covering no file of any retained snapshot).

Read-only; safe to run any time, from anywhere. Exposed as
``python -m repro fsck``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    FormatError,
    InvariantViolation,
    ObjectNotFound,
    ObjectStoreError,
)
from repro.core.client import RottnestClient
from repro.core.index_file import IndexFileReader
from repro.formats.page_reader import build_page_table
from repro.formats.reader import ParquetFile


@dataclass
class FsckReport:
    """Findings of one integrity pass."""

    records_checked: int = 0
    files_verified: int = 0
    missing_index_files: list[str] = field(default_factory=list)  # Existence
    corrupt_index_files: list[str] = field(default_factory=list)
    page_table_mismatches: list[tuple[str, str]] = field(default_factory=list)
    orphan_index_files: list[str] = field(default_factory=list)
    stale_records: list[str] = field(default_factory=list)

    @property
    def invariants_hold(self) -> bool:
        """Existence + Consistency (orphans and stale records are
        expected operational debris, not violations)."""
        return not (
            self.missing_index_files
            or self.corrupt_index_files
            or self.page_table_mismatches
        )

    def describe(self) -> str:
        """Human-readable audit summary, one finding class per line."""
        lines = [
            f"records checked:        {self.records_checked}",
            f"covered files verified: {self.files_verified}",
            f"missing index files:    {len(self.missing_index_files)}",
            f"corrupt index files:    {len(self.corrupt_index_files)}",
            f"page-table mismatches:  {len(self.page_table_mismatches)}",
            f"orphan index files:     {len(self.orphan_index_files)}",
            f"stale records:          {len(self.stale_records)}",
            "invariants: " + ("OK" if self.invariants_hold else "VIOLATED"),
        ]
        for key in self.missing_index_files:
            lines.append(f"  MISSING  {key}")
        for key in self.corrupt_index_files:
            lines.append(f"  CORRUPT  {key}")
        for index_key, data_path in self.page_table_mismatches:
            lines.append(f"  MISMATCH {index_key} vs {data_path}")
        return "\n".join(lines)


def fsck(client: RottnestClient, *, verify_consistency: bool = True) -> FsckReport:
    """Audit one deployment; returns findings without changing anything."""
    report = FsckReport()
    records = client.meta.records()
    live_keys = {r.index_key for r in records}
    active = client.lake.files_since(client.lake.latest_version())

    for record in records:
        report.records_checked += 1
        # Existence.
        try:
            info = client.store.head(record.index_key)
        except ObjectNotFound:
            report.missing_index_files.append(record.index_key)
            continue
        if not (set(record.covered_files) & active):
            report.stale_records.append(record.index_key)
        # Searches open the file at the record's size, without a HEAD.
        if info.size != record.size:
            report.corrupt_index_files.append(record.index_key)
            continue
        if not verify_consistency:
            continue
        # Consistency: the page tables embedded at build time must match
        # the current physical layout of every still-existing file.
        try:
            reader = IndexFileReader.open(
                client.store, record.index_key, size=record.size
            )
            tables = reader.directory.tables
        except (FormatError, ObjectStoreError):
            report.corrupt_index_files.append(record.index_key)
            continue
        for table in tables:
            if not client.store.exists(table.file_key):
                continue  # ¬exists(d_f): vacuously consistent
            try:
                parquet = ParquetFile(client.store, table.file_key)
                fresh = build_page_table(
                    parquet.metadata, table.file_key, reader.column
                )
            except (FormatError, ObjectStoreError):
                report.page_table_mismatches.append(
                    (record.index_key, table.file_key)
                )
                continue
            # Entries compare by placement: a footer records no CRCs.
            if fresh.entries != table.entries:
                report.page_table_mismatches.append(
                    (record.index_key, table.file_key)
                )
            else:
                report.files_verified += 1

    # Orphans: physically present, never committed.
    prefix = f"{client.index_dir}/files/"
    for info in client.store.list(prefix):
        if info.key not in live_keys:
            report.orphan_index_files.append(info.key)
    return report


class InvariantChecker:
    """Existence/Consistency verdict machine for the chaos harness.

    Thin, purposeful wrapper over :func:`fsck`: where ``fsck`` is an
    operator tool that *reports*, the checker is an oracle that
    *asserts* — the chaos fuzzer calls :meth:`assert_holds` after every
    injected crash, and any surviving violation is a protocol bug by
    definition (paper §IV-D proves none can exist).

    Always audits through a fresh, un-faulted view of the store: the
    doomed client is dead, and the invariants are a statement about
    what *every other* client observes afterwards.
    """

    def __init__(
        self, client: RottnestClient, *, verify_consistency: bool = True
    ) -> None:
        """Audit ``client``'s deployment; ``verify_consistency=False``
        checks Existence only (cheaper, for high-frequency fuzzing)."""
        self.client = client
        self.verify_consistency = verify_consistency

    def check(self) -> FsckReport:
        """Run one audit and return the raw findings."""
        return fsck(self.client, verify_consistency=self.verify_consistency)

    def assert_holds(self) -> FsckReport:
        """Audit and raise :class:`~repro.errors.InvariantViolation`
        (carrying the full report text) unless both invariants hold."""
        report = self.check()
        if not report.invariants_hold:
            raise InvariantViolation(report.describe())
        return report
