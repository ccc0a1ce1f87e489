"""Optimistic-concurrency transaction log on object storage.

Commits are conditional PUTs of ``<root>/_log/<version>.json``: the
writer that creates the next version number wins; losers get
:class:`~repro.errors.CommitConflict` and must re-read and retry. This
needs only the strong read-after-write consistency + if-none-match
primitives of modern object stores — no atomic rename (paper §IV).
"""

from __future__ import annotations

from repro.errors import (
    CommitConflict,
    ObjectNotFound,
    PreconditionFailed,
    SnapshotNotFound,
)
from repro.lake.actions import Action, actions_from_bytes, actions_to_bytes
from repro.storage.object_store import ObjectStore

LOG_DIR = "_log"
CHECKPOINT_DIR = "_checkpoints"
VERSION_DIGITS = 20


def log_key(root: str, version: int) -> str:
    return f"{root}/{LOG_DIR}/{version:0{VERSION_DIGITS}d}.json"


def checkpoint_key(root: str, version: int) -> str:
    return f"{root}/{CHECKPOINT_DIR}/{version:0{VERSION_DIGITS}d}.json"


class TransactionLog:
    """Reads and commits versions of one table's log."""

    def __init__(self, store: ObjectStore, root: str) -> None:
        self.store = store
        self.root = root.rstrip("/")

    def latest_version(self) -> int:
        """Highest committed version, or -1 for an empty log."""
        entries = self.store.list(f"{self.root}/{LOG_DIR}/")
        if not entries:
            return -1
        # Keys sort lexicographically == numerically (zero padded).
        last = entries[-1].key.rsplit("/", 1)[1]
        return int(last.split(".")[0])

    def versions(self) -> tuple[int, list[int]]:
        """Latest log version plus all checkpoint versions, in one LIST.

        The hot plan path needs both the log tip and the newest usable
        checkpoint; listing ``<root>/_`` once covers ``_log/`` and
        ``_checkpoints/`` together (data files live under ``data/`` and
        deletion vectors under ``deletes/``, so the underscore prefix is
        metadata-only). LISTs are the expensive, unparallelisable part
        of a cold query's plan round (~100 ms each under the latency
        model), so one umbrella LIST instead of two-plus is the single
        biggest lever on the latency floor. Returns ``(latest,
        sorted checkpoint versions)``; ``latest`` is -1 for an empty
        log. Keys under other ``_``-prefixed dirs are ignored.
        """
        log_prefix = f"{self.root}/{LOG_DIR}/"
        checkpoint_prefix = f"{self.root}/{CHECKPOINT_DIR}/"
        latest = -1
        checkpoints: list[int] = []
        for info in self.store.list(f"{self.root}/_"):
            if info.key.startswith(log_prefix):
                name = info.key.rsplit("/", 1)[1]
                latest = max(latest, int(name.split(".")[0]))
            elif info.key.startswith(checkpoint_prefix):
                name = info.key.rsplit("/", 1)[1]
                checkpoints.append(int(name.split(".")[0]))
        return latest, checkpoints

    def read_version(self, version: int) -> list[Action]:
        try:
            data = self.store.get(log_key(self.root, version))
        except ObjectNotFound as exc:
            # Only a missing object means a missing version: a store
            # fault that outlived its retries propagates as itself.
            raise SnapshotNotFound(
                f"version {version} of {self.root!r} does not exist"
            ) from exc
        return actions_from_bytes(data)

    def read_all(
        self, up_to: int | None = None, *, latest: int | None = None
    ) -> list[list[Action]]:
        """Actions of every version 0..up_to (inclusive).

        ``latest`` lets a caller that already listed the log (via
        :meth:`versions`) skip the bounds-check re-LIST.
        """
        if latest is None:
            latest = self.latest_version()
        if up_to is None:
            up_to = latest
        if up_to > latest or up_to < -1:
            raise SnapshotNotFound(
                f"version {up_to} of {self.root!r} does not exist (latest {latest})"
            )
        return [self.read_version(v) for v in range(up_to + 1)]

    def read_range(
        self, first: int, last: int, *, latest: int | None = None
    ) -> list[list[Action]]:
        """Actions of versions ``first..last`` (inclusive tail reads
        after a checkpoint). ``latest`` skips the bounds-check LIST for
        callers that already know the log tip."""
        if latest is None:
            latest = self.latest_version()
        if last > latest:
            raise SnapshotNotFound(
                f"version {last} of {self.root!r} does not exist (latest {latest})"
            )
        return [self.read_version(v) for v in range(first, last + 1)]

    # -- checkpoints ---------------------------------------------------
    def latest_checkpoint_version(self, up_to: int) -> int:
        """Newest checkpoint at or before ``up_to``, or -1."""
        entries = self.store.list(f"{self.root}/{CHECKPOINT_DIR}/")
        best = -1
        for info in entries:
            version = int(info.key.rsplit("/", 1)[1].split(".")[0])
            if version <= up_to:
                best = max(best, version)
        return best

    def read_checkpoint(self, version: int):
        import json

        from repro.lake.snapshot import Snapshot

        data = self.store.get(checkpoint_key(self.root, version))
        return Snapshot.from_json(json.loads(data.decode("utf-8")))

    def write_checkpoint(self, snapshot) -> bool:
        """Persist a snapshot as a checkpoint (idempotent; a racing
        writer's identical checkpoint wins harmlessly)."""
        import json

        try:
            self.store.put(
                checkpoint_key(self.root, snapshot.version),
                json.dumps(snapshot.to_json()).encode("utf-8"),
                if_none_match=True,
            )
            return True
        except PreconditionFailed:
            return False

    def try_commit(self, version: int, actions: list[Action]) -> None:
        """Commit ``actions`` as exactly ``version`` or raise
        :class:`CommitConflict` if that version was taken."""
        try:
            self.store.put(
                log_key(self.root, version),
                actions_to_bytes(actions),
                if_none_match=True,
            )
        except PreconditionFailed as exc:
            raise CommitConflict(
                f"version {version} of {self.root!r} already committed"
            ) from exc

    def commit(self, actions: list[Action], max_retries: int = 20) -> int:
        """Commit at the next free version, retrying past conflicts.

        Suitable for *blind* appends whose actions do not depend on the
        table state (e.g. AddFile of a brand-new file). State-dependent
        commits must re-plan on conflict and call :meth:`try_commit`.
        """
        for _ in range(max_retries):
            version = self.latest_version() + 1
            try:
                self.try_commit(version, actions)
                return version
            except CommitConflict:
                continue
        raise CommitConflict(
            f"gave up after {max_retries} commit attempts on {self.root!r}"
        )
