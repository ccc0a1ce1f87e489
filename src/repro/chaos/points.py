"""Canonical names for every crash point of the maintenance protocol.

A *crash point* is a mutation boundary: the client performed one PUT or
DELETE and died before doing anything else. The protocol's §IV-D
correctness argument is exactly a case analysis over these boundaries,
so they get stable, documented identifiers:

* the crash matrix in ``docs/protocol.md`` walks the same names
  (a unit test keeps the two sets equal, one-to-one);
* the fuzzer reports which points each run covered, so "every crash
  point exercised" is a checkable claim, not a vibe.

``search`` has no crash points — it never mutates — which is itself a
protocol property worth stating.
"""

from __future__ import annotations

from repro.core.client import INDEX_FILES_DIR
from repro.ingest.wal import WAL_DIR
from repro.lake.log import HINT_NAME
from repro.lake.table import DATA_DIR, LAKE_LOG
from repro.meta.metadata_table import META_LOG
from repro.obs.flight import FLIGHT_DIR
from repro.obs.store import SNAPSHOT_DIR

#: Every crash point the protocol can reach, with the §IV-D argument
#: for why the invariants survive it. Keys are ``verb:boundary``.
CRASH_POINTS: dict[str, str] = {
    "index:put-index-file": (
        "Index file uploaded, metadata commit never happened. The file "
        "is an invisible orphan (searches plan from metadata only); "
        "vacuum removes it once older than the index timeout."
    ),
    "index:put-meta-commit": (
        "Metadata commit landed; the index is fully live. The dead "
        "client's remaining work was only returning to its caller."
    ),
    "index:put-meta-checkpoint": (
        "Commit landed, checkpoint upload interrupted. Checkpoints are "
        "a pure read optimization: readers replay the log tail from an "
        "older checkpoint (or from scratch) and see identical state."
    ),
    "index:put-meta-hint": (
        "Commit (and any due checkpoint) landed and the hint now names "
        "it: the operation is complete. Had the crash come one PUT "
        "earlier, the hint would name an older version; readers probe "
        "the version after the hinted one, find it, and fall back to "
        "one LIST, so a stale hint only costs a round trip."
    ),
    "compact:put-merged-index": (
        "A merged index file uploaded, commit never happened. Same "
        "orphan story as index:put-index-file — and because merged "
        "keys are content-addressed, the re-run overwrites the same "
        "key with the same bytes instead of stacking orphans. The "
        "parallel compactor reaches this same boundary from worker "
        "threads: sibling uploads in flight at the crash land as "
        "orphans at the keys the recovery re-uploads anyway."
    ),
    "compact:put-meta-commit": (
        "Merged records committed; old records stay until vacuum, "
        "exactly as in an uninterrupted run. A re-run finds the small "
        "files subsumed by the newer merged index and no-ops."
    ),
    "compact:put-meta-checkpoint": (
        "Commit landed, checkpoint interrupted — harmless read "
        "optimization, as with index:put-meta-checkpoint."
    ),
    "compact:put-meta-hint": (
        "Commit landed and the hint names it — complete. A hint is a "
        "read optimization, as with index:put-meta-hint."
    ),
    "vacuum:put-meta-commit": (
        "Record deletions committed, physical deletions never started. "
        "Metadata shrank first, so M ⊆ B still holds; the lingering "
        "files are unreferenced and a later vacuum removes them."
    ),
    "vacuum:put-meta-checkpoint": (
        "Deletion commit landed, checkpoint interrupted — harmless "
        "read optimization."
    ),
    "vacuum:put-meta-hint": (
        "Deletion commit landed and the hint names it; physical "
        "deletions never started. Same as vacuum:put-meta-commit: "
        "the lingering files are unreferenced orphans."
    ),
    "vacuum:delete-index-file": (
        "Crashed partway through physical deletions. Every deleted "
        "file was already unreferenced (the commit came first), so "
        "Existence never observes a dangling reference; a later "
        "vacuum finishes the remainder (deleting a missing key is an "
        "S3 no-op)."
    ),
    "ingest:put-wal-frame": (
        "The WAL segment PUT is the ingest durability point: if the "
        "frame landed, recovery replays it into a memtable and the "
        "rows are searchable; if it never landed, the writer never "
        "got an ack and the batch simply does not exist. Either way "
        "the fresh tier converges to exactly the durable segments."
    ),
    "drain:put-seal-marker": (
        "A seal marker landed but the flush never happened. Seals "
        "are advisory — drain recomputes the pending set from the "
        "lake's SetTransaction floor, not from seal markers — so a "
        "re-run re-seals idempotently and continues."
    ),
    "drain:put-data-file": (
        "The merged lake data file uploaded, commit never happened. "
        "The file is an invisible orphan (readers plan from the "
        "transaction log only); its key is content-addressed, so the "
        "re-run overwrites the same key with the same bytes."
    ),
    "drain:put-lake-commit": (
        "The lake commit carrying AddFile + SetTransaction landed "
        "atomically: the rows are in the lake and the ingest floor "
        "advanced in the same log entry, so the fresh tier stops "
        "reporting them the moment the lazy tier starts. The re-run "
        "sees app_version already recorded and skips the flush."
    ),
    "drain:put-lake-checkpoint": (
        "Commit landed, lake checkpoint upload interrupted. Pure "
        "read optimization: readers replay the log tail; the re-run "
        "re-attempts the same due checkpoint and converges."
    ),
    "drain:put-lake-hint": (
        "The lake commit (and any due checkpoint) landed and the lake's "
        "hint names it. A hint is a read optimization: one left stale "
        "by an earlier crash makes readers fall back to one LIST."
    ),
    "drain:delete-wal-frame": (
        "Crashed partway through WAL truncation. Every segment being "
        "deleted is at-or-below the committed floor, so the fresh "
        "view (strictly above the floor) never included them; the "
        "re-run finishes the remaining deletes (missing-key DELETE "
        "is an S3 no-op)."
    ),
    "drain:put-index-file": (
        "Drain's optional index stage died after uploading an index "
        "file. Same orphan story as index:put-index-file — the drain "
        "re-run replays the index stage and vacuum collects strays."
    ),
    "drain:put-meta-commit": (
        "The index stage's metadata commit landed; the new index is "
        "live. A re-run finds the files already covered and no-ops."
    ),
    "drain:put-meta-checkpoint": (
        "Index-stage commit landed, metadata checkpoint interrupted "
        "— harmless read optimization, as everywhere else."
    ),
    "drain:put-meta-hint": (
        "Index-stage commit landed and the hint names it — a read "
        "optimization, as with index:put-meta-hint."
    ),
    "crack:put-index-file": (
        "The cracking controller died after uploading a targeted or "
        "refined index file, before the metadata commit. Same orphan "
        "story as index:put-index-file — and both uploads are "
        "content-addressed, so the recovery tick (planning from the "
        "same heat map over unchanged metadata) re-uploads the same "
        "bytes at the same key instead of stacking orphans."
    ),
    "crack:put-meta-commit": (
        "The targeted-index or refinement commit landed; the new "
        "record is live. A recovery tick re-plans and no-ops: the "
        "hot files are now covered, and a refined file supersedes "
        "its source in the newest-first cover, so neither verb is "
        "proposed again."
    ),
    "crack:put-meta-checkpoint": (
        "Commit landed, metadata checkpoint interrupted — harmless "
        "read optimization, as everywhere else."
    ),
    "crack:put-meta-hint": (
        "Commit landed and the hint names it — a read optimization, "
        "as with index:put-meta-hint."
    ),
    "obs:put-flight": (
        "The flight recorder died after uploading a retained trace, "
        "before persisting the rest. Flight traces are independent, "
        "content-addressed objects carrying no references — the lake "
        "invariants never mention them — so a partial persist leaves a "
        "valid (smaller) retained set. The recovery re-run skips keys "
        "that already exist and uploads the remainder: convergence is "
        "byte-identical and a clean re-run makes zero mutations."
    ),
    "obs:put-snapshot": (
        "A telemetry snapshot commit died mid-PUT (the object store "
        "makes the PUT itself atomic, so 'mid' means before the key "
        "became durable). Snapshots are self-contained immutable "
        "payloads keyed by their own content hash: a re-committed "
        "identical plane hits the same key with the same bytes and "
        "no-ops; readers folding the snapshot set never observe a "
        "torn or duplicated entry."
    ),
}

#: Verbs that mutate the store (search never does). ``index`` /
#: ``compact`` / ``vacuum`` are the maintenance protocol; ``ingest``
#: and ``drain`` are the real-time tier's write path; ``crack`` is the
#: query-adaptive controller's tick (targeted index + cell refinement);
#: ``obs`` is the telemetry plane's durability path (flight-trace
#: persistence + snapshot commits).
MUTATING_VERBS = ("index", "compact", "vacuum", "ingest", "drain", "crack", "obs")


def classify_crash_point(verb: str, op: str, key: str) -> str:
    """Map a crash observed during ``verb`` to its canonical name.

    ``op``/``key`` come straight off the
    :class:`~repro.errors.SimulatedCrash`. Unrecognized combinations
    return a ``verb:unclassified-…`` name that is deliberately *not*
    in :data:`CRASH_POINTS` — the fuzzer treats those as findings,
    because a mutation boundary nobody enumerated is exactly the kind
    of hole this harness exists to catch.
    """
    op = op.upper()
    if op == "DELETE" and f"/{INDEX_FILES_DIR}/" in key:
        name = f"{verb}:delete-index-file"
    elif op == "PUT" and key.endswith(f"/{META_LOG.log_dir}/{HINT_NAME}"):
        name = f"{verb}:put-meta-hint"
    elif op == "PUT" and key.endswith(f"/{LAKE_LOG.log_dir}/{HINT_NAME}"):
        name = f"{verb}:put-lake-hint"
    elif op == "PUT" and f"/{META_LOG.checkpoint_dir}/" in key:
        name = f"{verb}:put-meta-checkpoint"
    elif op == "PUT" and f"/{META_LOG.log_dir}/" in key:
        name = f"{verb}:put-meta-commit"
    elif op == "PUT" and f"/{INDEX_FILES_DIR}/" in key:
        name = (
            "compact:put-merged-index"
            if verb == "compact"
            else f"{verb}:put-index-file"
        )
    elif op == "PUT" and f"/{WAL_DIR}/" in key and key.endswith(".seal"):
        name = f"{verb}:put-seal-marker"
    elif op == "PUT" and f"/{WAL_DIR}/" in key:
        name = f"{verb}:put-wal-frame"
    elif op == "DELETE" and f"/{WAL_DIR}/" in key:
        name = f"{verb}:delete-wal-frame"
    elif op == "PUT" and f"/{LAKE_LOG.log_dir}/" in key:
        name = f"{verb}:put-lake-commit"
    elif op == "PUT" and f"/{LAKE_LOG.checkpoint_dir}/" in key:
        name = f"{verb}:put-lake-checkpoint"
    elif op == "PUT" and f"/{DATA_DIR}/" in key:
        name = f"{verb}:put-data-file"
    elif op == "PUT" and f"/{FLIGHT_DIR}/" in key:
        name = f"{verb}:put-flight"
    elif op == "PUT" and f"/{SNAPSHOT_DIR}/" in key:
        name = f"{verb}:put-snapshot"
    else:
        name = f"{verb}:unclassified-{op.lower()}"
    return name
