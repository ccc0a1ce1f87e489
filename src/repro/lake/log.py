"""Optimistic-concurrency transaction log on object storage.

Commits are conditional PUTs of ``<root>/<log_dir>/<version>.json``:
the writer that creates the next version number wins; losers get
:class:`~repro.errors.CommitConflict` and must re-read and retry. This
needs only the strong read-after-write consistency + if-none-match
primitives of modern object stores — no atomic rename (paper §IV).
Every ``checkpoint_interval``-th version also gets a full-state
checkpoint under ``<root>/<checkpoint_dir>/``, so readers fold one
checkpoint plus the log tail (Delta Lake's checkpointing).

After every commit (and its checkpoint, when one is due) the writer
overwrites a hint, ``<root>/<log_dir>/_latest.json``, naming the
version and its newest checkpoint (Delta's ``_last_checkpoint``).
Readers find the tip from it without a LIST: versions are dense and
immutable, so a hinted version that exists and a 404 on the next one
*is* the tip. The hint is only ever a hint — when it is missing,
unreadable, stale or ahead of the log, readers fall back to one LIST.

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
from repro.storage.stats import barrier

VERSION_DIGITS = 20
DEFAULT_CHECKPOINT_INTERVAL = 10
#: Name of the hint object inside a log's directory.
HINT_NAME = "_latest.json"


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
        self.hint_key = f"{self._log_prefix}{HINT_NAME}"
        # The two directories' common prefix (``_`` for the lake,
        # ``_meta`` for the metadata table): one LIST sees both.
        umbrella = os.path.commonprefix([fmt.log_dir, fmt.checkpoint_dir])
        self._umbrella = f"{self.root}/{umbrella}"

    def _key(self, prefix: str, version: int) -> str:
        return f"{prefix}{version:0{VERSION_DIGITS}d}.json"

    def _due(self, version: int) -> bool:
        return version >= 0 and (version + 1) % self.checkpoint_interval == 0

    # -- discovery -----------------------------------------------------
    def versions(self) -> tuple[int, list[int]]:
        """``(latest version, sorted checkpoint versions)`` from one
        umbrella LIST; latest is -1 for an empty log.

        This is the full inventory, and the only way to find the tip
        when the hint cannot be trusted. A LIST is the expensive,
        unparallelisable request of a plan round (~100 ms under the
        latency model), so the tip and the checkpoints share one.
        """
        latest = -1
        checkpoints: list[int] = []
        for info in self.store.list(self._umbrella):
            if info.key == self.hint_key:
                continue
            name = info.key.rsplit("/", 1)[1]
            if info.key.startswith(self._log_prefix):
                latest = max(latest, int(name.split(".")[0]))
            elif info.key.startswith(self._checkpoint_prefix):
                checkpoints.append(int(name.split(".")[0]))
        return latest, checkpoints

    def latest_version(self) -> int:
        return self._discover(None, fold=False)[0]

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

    def state(self, version: int | None = None):
        """State at ``version`` (default: the tip): the newest
        checkpoint at or before it, then a replay of the tail."""
        return self._discover(version)[2]

    def hint(self) -> tuple[int, int] | None:
        """``(version, checkpoint)`` the hint names, or None when it is
        missing or unreadable. One GET."""
        try:
            obj = json.loads(self.store.get(self.hint_key))
            version, checkpoint = obj["version"], obj["checkpoint"]
        except (ObjectNotFound, ValueError, TypeError, KeyError):
            return None
        if type(version) is not int or type(checkpoint) is not int:
            return None
        # Only a commit writes a hint, so it names a version >= 0.
        if version < 0 or not -1 <= checkpoint <= version:
            return None
        return version, checkpoint

    def write_hint(self, version: int, checkpoint: int) -> None:
        """Point the hint at ``version``, whose newest checkpoint is
        ``checkpoint`` (-1 for none)."""
        self.store.put(
            self.hint_key, json_bytes({"version": version, "checkpoint": checkpoint})
        )

    def _fold(self, version: int, base_version: int):
        """State at ``version`` from checkpoint ``base_version`` (-1:
        none) plus the tail: one round of independent GETs."""
        base = None
        if base_version >= 0:
            key = self._key(self._checkpoint_prefix, base_version)
            base = self.fmt.load(self.store.get(key))
        tail = [self.read_version(v) for v in range(base_version + 1, version + 1)]
        return self.fmt.fold(version, tail, base)

    def _exists(self, version: int) -> bool:
        try:
            self.store.get(self._key(self._log_prefix, version))
        except ObjectNotFound:
            return False
        return True

    def _discover(self, version: int | None, *, fold: bool = True):
        """``(version, newest checkpoint at or before it or -1, state at
        it or None)``; ``version`` None means the tip.

        Through the hint in two rounds when it can serve the read: GET
        the hint; then the checkpoint, the tail and — for the tip — a
        probe of the next version, which must be missing. Otherwise
        through the umbrella LIST, then the checkpoint and the tail.
        """
        hinted = self._through_hint(version, fold)
        if hinted is not None:
            return hinted
        latest, checkpoints = self.versions()
        barrier()  # what to read next depends on the listing
        version = latest if version is None else version
        if not -1 <= version <= latest:
            raise SnapshotNotFound(
                f"version {version} of {self.root!r} does not exist (latest {latest})"
            )
        base = max((c for c in checkpoints if c <= version), default=-1)
        return version, base, self._fold(version, base) if fold else None

    def _through_hint(self, version: int | None, fold: bool):
        """:meth:`_discover` through the hint, or None to fall back."""
        hint = self.hint()
        barrier()  # every other read depends on the hint
        if hint is None:
            return None
        tip, base = hint
        target = tip if version is None else version
        if not base <= target <= tip:
            return None  # time travel to before the hinted checkpoint
        state = None
        try:
            if fold:
                state = self._fold(target, base)
            else:
                self.store.get(self._key(self._log_prefix, tip))
        except (ObjectNotFound, SnapshotNotFound):
            return None  # it names what does not exist: ahead of the log
        if version is None and self._exists(tip + 1):
            return None  # the hint is stale
        return target, base, state

    # -- writes --------------------------------------------------------
    def try_commit(self, version: int, entry) -> None:
        """Commit ``entry`` as exactly ``version`` or raise
        :class:`CommitConflict` if that version was taken. A bare
        conditional PUT: no checkpoint and no hint."""
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
        """Commit at the next free version, retrying past conflicts;
        then take the checkpoint if one is due there, then advance the
        hint.

        A blind ``entry`` (e.g. AddFile of a brand-new file) finds the
        tip and PUTs per attempt. A ``plan`` maps the state at the tip
        to the entry to commit, or to ``None`` for nothing to do, and
        may raise to refuse; after a conflict it runs again on the new
        state, so no entry lands on a version it was not validated
        against. Returns the committed version, or ``None``.
        """
        for _ in range(max_retries):
            latest, base, state = self._discover(None, fold=plan is not None)
            if plan is not None:
                entry = plan(state)
                if entry is None:
                    return None
            try:
                self.try_commit(latest + 1, entry)
            except CommitConflict:
                continue
            if self._due(latest + 1):
                self.checkpoint(latest + 1)
                base = latest + 1
            # A blind commit passes on the checkpoint its hint named
            # without reading it; readers that find it missing fall back.
            self.write_hint(latest + 1, base)
            return latest + 1
        raise CommitConflict(
            f"gave up after {max_retries} commit attempts on {self.root!r}"
        )

    def checkpoint(self, version: int) -> None:
        """Write the checkpoint of ``version`` if one is due and missing.

        Its state is exactly ``version``'s, folded from the newest
        listed checkpoint before it, so newer commits cannot leak in.
        Best-effort: a racing writer's identical checkpoint wins the
        conditional PUT harmlessly.
        """
        if not self._due(version):
            return
        checkpoints = self.versions()[1]
        if version in checkpoints:
            return
        base = max((c for c in checkpoints if c < version), default=-1)
        try:
            self.store.put(
                self._key(self._checkpoint_prefix, version),
                self.fmt.dump(self._fold(version, base)),
                if_none_match=True,
            )
        except PreconditionFailed:
            pass
