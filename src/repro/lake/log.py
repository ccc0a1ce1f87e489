"""Optimistic-concurrency transaction log on object storage.

Commits are conditional PUTs of ``<root>/<log_dir>/<version>.json``:
the writer that creates the next version number wins; losers get
:class:`~repro.errors.CommitConflict` and must re-read and retry. This
needs only the strong read-after-write consistency + if-none-match
primitives of modern object stores — no atomic rename (paper §IV).
Every ``checkpoint_interval``-th version also gets a full-state
checkpoint under ``<root>/<checkpoint_dir>/``, so readers fold one
checkpoint plus the log tail (Delta Lake's checkpointing).

The lake's log and Rottnest's metadata table are two
:class:`LogFormat` configurations of this one class.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    CommitConflict,
    LakeError,
    ObjectNotFound,
    PreconditionFailed,
    SnapshotNotFound,
)
from repro.storage.object_store import ObjectStore

VERSION_DIGITS = 20
DEFAULT_CHECKPOINT_INTERVAL = 10


@dataclass(frozen=True)
class LogFormat:
    """One log's directories, entry and checkpoint codecs, and fold:
    ``fold(version, tail entries, checkpointed state or None)`` returns
    the state at ``version``."""

    log_dir: str
    checkpoint_dir: str
    encode: Callable[[Any], bytes]
    decode: Callable[[bytes], Any]
    fold: Callable[[int, list, Any], Any]
    dump: Callable[[Any], bytes]
    load: Callable[[bytes], Any]


def json_bytes(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def json_value(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LakeError(f"corrupt log object: {exc}") from exc


class TransactionLog:
    """Reads, commits and checkpoints the versions of one log."""

    def __init__(
        self,
        store: ObjectStore,
        root: str,
        fmt: LogFormat,
        *,
        checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
    ) -> None:
        self.store = store
        self.root = root.rstrip("/")
        self.fmt = fmt
        self.checkpoint_interval = max(1, checkpoint_interval)
        self._log_prefix = f"{self.root}/{fmt.log_dir}/"
        self._checkpoint_prefix = f"{self.root}/{fmt.checkpoint_dir}/"
        # The two directories' common prefix (``_`` for the lake,
        # ``_meta`` for the metadata table): one LIST sees both.
        umbrella = os.path.commonprefix([fmt.log_dir, fmt.checkpoint_dir])
        self._umbrella = f"{self.root}/{umbrella}"

    def _key(self, prefix: str, version: int) -> str:
        return f"{prefix}{version:0{VERSION_DIGITS}d}.json"

    def versions(self) -> tuple[int, list[int]]:
        """``(latest version, sorted checkpoint versions)`` from one
        LIST; latest is -1 for an empty log.

        LISTs are the expensive, unparallelisable part of a cold
        query's plan round (~100 ms each under the latency model), so
        the tip and the checkpoint inventory share one umbrella LIST.
        """
        latest = -1
        checkpoints: list[int] = []
        for info in self.store.list(self._umbrella):
            name = info.key.rsplit("/", 1)[1]
            if info.key.startswith(self._log_prefix):
                latest = max(latest, int(name.split(".")[0]))
            elif info.key.startswith(self._checkpoint_prefix):
                checkpoints.append(int(name.split(".")[0]))
        return latest, checkpoints

    def latest_version(self) -> int:
        return self.versions()[0]

    def read_version(self, version: int):
        try:
            data = self.store.get(self._key(self._log_prefix, version))
        except ObjectNotFound as exc:
            # Only a missing object means a missing version: a store
            # fault that outlived its retries propagates as itself.
            raise SnapshotNotFound(
                f"version {version} of {self.root!r} does not exist"
            ) from exc
        return self.fmt.decode(data)

    def state(self, version: int | None = None, *, listing=None):
        """State at ``version`` (default: the tip): the newest
        checkpoint at or before it, then a replay of the tail.
        ``listing`` is a :meth:`versions` result already in hand."""
        latest, checkpoints = listing or self.versions()
        version = latest if version is None else version
        if not -1 <= version <= latest:
            raise SnapshotNotFound(
                f"version {version} of {self.root!r} does not exist (latest {latest})"
            )
        base_version = max((c for c in checkpoints if c <= version), default=-1)
        base = None
        if base_version >= 0:
            key = self._key(self._checkpoint_prefix, base_version)
            base = self.fmt.load(self.store.get(key))
        tail = [self.read_version(v) for v in range(base_version + 1, version + 1)]
        return self.fmt.fold(version, tail, base)

    def try_commit(self, version: int, entry) -> None:
        """Commit ``entry`` as exactly ``version`` or raise
        :class:`CommitConflict` if that version was taken."""
        try:
            self.store.put(
                self._key(self._log_prefix, version),
                self.fmt.encode(entry),
                if_none_match=True,
            )
        except PreconditionFailed as exc:
            raise CommitConflict(
                f"version {version} of {self.root!r} already committed"
            ) from exc

    def commit(self, entry=None, *, plan=None, max_retries: int = 20) -> int | None:
        """Commit at the next free version, retrying past conflicts, and
        take the checkpoint if one is due there.

        A blind ``entry`` (e.g. AddFile of a brand-new file) costs a
        LIST and a PUT per attempt. A ``plan`` maps the state at the tip
        to the entry to commit, or to ``None`` for nothing to do, and
        may raise to refuse; after a conflict it runs again on the new
        state, so no entry lands on a version it was not validated
        against. Returns the committed version, or ``None``.
        """
        for _ in range(max_retries):
            latest, checkpoints = self.versions()
            if plan is not None:
                entry = plan(self.state(latest, listing=(latest, checkpoints)))
                if entry is None:
                    return None
            try:
                self.try_commit(latest + 1, entry)
            except CommitConflict:
                continue
            self.checkpoint(latest + 1, listing=(latest + 1, checkpoints))
            return latest + 1
        raise CommitConflict(
            f"gave up after {max_retries} commit attempts on {self.root!r}"
        )

    def checkpoint(self, version: int, *, listing=None) -> None:
        """Write the checkpoint of ``version`` if one is due and missing.

        Its state is exactly ``version``'s, so newer commits cannot leak
        in. Best-effort: a racing writer's identical checkpoint wins the
        conditional PUT harmlessly.
        """
        if version < 0 or (version + 1) % self.checkpoint_interval:
            return
        listing = listing or self.versions()
        if version in listing[1]:
            return
        try:
            self.store.put(
                self._key(self._checkpoint_prefix, version),
                self.fmt.dump(self.state(version, listing=listing)),
                if_none_match=True,
            )
        except PreconditionFailed:
            pass
