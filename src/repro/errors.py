"""Exception hierarchy for the Rottnest reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Subsystems raise the most specific subclass available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class EmptyInput(ReproError):
    """A command was given nothing to work on: no samples, no query
    events, nothing to benchmark. The CLI exits 3 on it, where any
    other :class:`ReproError` exits 1."""


class ObjectStoreError(ReproError):
    """Base class for object-store failures."""


class ObjectNotFound(ObjectStoreError):
    """The requested key does not exist in the store."""

    def __init__(self, key: str) -> None:
        super().__init__(f"object not found: {key!r}")
        self.key = key


class PreconditionFailed(ObjectStoreError):
    """A conditional PUT (if-none-match) lost the race: the key exists."""

    def __init__(self, key: str) -> None:
        super().__init__(f"precondition failed, key exists: {key!r}")
        self.key = key


class InvalidByteRange(ObjectStoreError):
    """A byte-range GET asked for bytes outside the object."""


class InjectedFault(ObjectStoreError):
    """Raised by the fault-injection wrapper to simulate infrastructure
    failures (used by tests and the protocol crash-safety suite)."""


class SimulatedCrash(ReproError):
    """A chaos-injected client death: the process "dies" right *after*
    an object-store mutation durably completed.

    Deliberately **not** an :class:`ObjectStoreError`: retry wrappers
    and degradation paths must not absorb a simulated crash — the whole
    point is that nothing downstream of the dead client runs.
    """

    def __init__(self, op: str, key: str) -> None:
        super().__init__(f"simulated crash after {op} {key!r}")
        self.op = op
        self.key = key


class InvariantViolation(ReproError):
    """The Existence or Consistency invariant (paper §IV-D) failed an
    audit — raised by the chaos invariant checker, never in normal
    operation."""


class FormatError(ReproError):
    """Malformed file in the columnar format layer."""


class CorruptPage(FormatError):
    """A data page's stored bytes fail the CRC32 the index build took of
    them. The damage is in the data file, not in an index, so a scan of
    that file would read the same bytes: no reader may fall back to one."""


class LakeError(ReproError):
    """Base class for data-lake failures."""


class CommitConflict(LakeError):
    """Optimistic commit lost: another writer committed the same version."""


class SnapshotNotFound(LakeError):
    """The requested snapshot version does not exist."""


class IndexError_(ReproError):
    """Base class for index build/query failures.

    Named with a trailing underscore to avoid shadowing the builtin
    ``IndexError``; exported as ``RottnestIndexError`` from the package.
    """


class IndexAborted(IndexError_):
    """An ``index`` call aborted (timeout, vanished input file, or the
    new data fell below the index type's minimum size)."""


class UnknownIndexType(IndexError_):
    """The metadata table references an index type that is not registered."""


class TCOError(ReproError):
    """Invalid input to the TCO / phase-diagram framework."""


class ServeError(ReproError):
    """Base class for query-serving (``repro.serve``) failures."""


class ServerOverloaded(ServeError):
    """Admission control rejected a query: the server already has its
    maximum number of in-flight queries and shedding was requested."""


class ShardError(ReproError):
    """Base class for sharded-deployment (``repro.shard``) failures."""


class ShardUnavailable(ShardError):
    """One or more shards failed to answer and the router was
    configured to fail the whole query (``on_shard_failure="error"``)
    rather than return a partial result."""


class CrackError(ReproError):
    """Invalid input to the query-adaptive (cracking) index controller
    (``repro.crack``): negative heat weights, malformed heat-map
    serializations, or unusable policy parameters."""


class IngestError(ReproError):
    """Base class for real-time ingest tier (``repro.ingest``) failures."""


class WalCorruption(IngestError):
    """A WAL segment failed its checksum or framing check on replay."""


RottnestIndexError = IndexError_
