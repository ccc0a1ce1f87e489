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
version, its newest checkpoint (Delta's ``_last_checkpoint``) and the
tail between them: the stored bytes of every entry after the
checkpoint, spliced in as the entries were PUT. A reader gets the
state from two rounds — the hint, then the checkpoint, the tip entry
and a probe of the next version — whatever the tail's length.
Versions are dense and immutable, so a tip entry that exists and
equals the tail's last entry byte for byte, followed by a 404, *is*
the tip, and the tail before it is the log's own. The hint is only
ever a hint — when it is missing, unreadable, stale, ahead of the log
or its tail disagrees with the tip, readers fall back to one LIST. A
hint without a tail is no hint either: it costs that one LIST, and the
next commit writes a whole one.

The lake's log and Rottnest's metadata table are two
:class:`LogFormat` configurations of this one class.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

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

#: How every commit starts its hint; the tail's entries follow, joined
#: by ``", "``, and ``]}`` closes it.
_HINT_HEAD = re.compile(
    rb'\{"version": (0|[1-9][0-9]*), "checkpoint": (-1|0|[1-9][0-9]*), "tail": \['
)
_DECODER = json.JSONDecoder()


@dataclass(frozen=True)
class LogFormat:
    """One log's directories, entry and checkpoint codecs, and fold:
    ``fold(version, tail entries, checkpointed state or None)`` returns
    the state at ``version`` and leaves the checkpointed state as it
    was."""

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


class Hint(NamedTuple):
    """What a log's hint names."""

    version: int
    checkpoint: int  # newest checkpoint at or before ``version``; -1: none
    tail: list[bytes]
    """Stored bytes of entries ``checkpoint+1 .. version``."""


def _parse_hint(data: bytes) -> Hint | None:
    """The hint ``data`` holds, or None when it cannot serve a read:
    not a hint as commits write it (with its tail), a checkpoint after
    the version, or a tail that is not a list of exactly the entries
    between them."""
    match = _HINT_HEAD.match(data)
    if match is None:
        return None
    version, checkpoint = int(match[1]), int(match[2])
    tail = _elements(data, match.end())
    if tail is None or checkpoint > version or len(tail) != version - checkpoint:
        return None
    return Hint(version, checkpoint, tail)


def _elements(data: bytes, pos: int) -> list[bytes] | None:
    """The stored bytes of each element of the JSON array that opens
    just before ``pos`` and closes the hint, or None."""
    if not data.isascii() or not data.endswith(b"]}"):
        return None
    text, end = data.decode("ascii"), len(data) - 2
    elements: list[bytes] = []
    while pos < end:
        if elements:
            if not text.startswith(", ", pos):
                return None
            pos += 2
        try:
            stop = _DECODER.raw_decode(text, pos)[1]
        except ValueError:
            return None
        elements.append(data[pos:stop])
        pos = stop
    return elements if pos == end else None


def _window(lo: int | None, hi: int | None, tip: int) -> tuple[int, int]:
    """``(lo, hi)`` as versions: None is the tip, a negative ``lo``
    counts back from ``hi`` (never past version 0)."""
    hi = tip if hi is None else hi
    if lo is None:
        return hi, hi
    return (max(0, hi + 1 + lo) if lo < 0 else lo), hi


class _Found(NamedTuple):
    """What one discovery read: the last version it was asked for, the
    checkpoint before the window, the entries between them (stored
    bytes, and decoded when the state was asked for) and the
    checkpointed state (None when not asked for, or no checkpoint)."""

    version: int
    checkpoint: int
    tail: list[bytes]
    entries: list | None
    base: Any


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
        return self._find(None, None, load=False).version

    def entry_bytes(self, version: int) -> bytes:
        """The stored bytes of entry ``version``."""
        try:
            return self.store.get(self._key(self._log_prefix, version))
        except ObjectNotFound as exc:
            # Only a missing object means a missing version: a store
            # fault that outlived its retries propagates as itself.
            raise SnapshotNotFound(
                f"version {version} of {self.root!r} does not exist"
            ) from exc

    def read_version(self, version: int):
        return self.fmt.decode(self.entry_bytes(version))

    def state(self, version: int | None = None):
        """State at ``version`` (default: the tip): the newest
        checkpoint at or before it, then a replay of the tail."""
        found = self._find(version, version)
        return self.fmt.fold(found.version, found.entries, found.base)

    def states(self, lo: int, hi: int | None = None) -> Iterator:
        """Every state from ``lo`` to ``hi`` (default: the tip), oldest
        first, from one discovery: the checkpoint at or before ``lo``
        and the entries up to ``hi``, folded forward one version at a
        time. A negative ``lo`` counts back from ``hi``, as a slice's
        start does: ``states(-3)`` is the last three states."""
        found = self._find(lo, hi)
        lo = _window(lo, found.version, found.version)[0]
        first = lo - found.checkpoint
        state = self.fmt.fold(lo, found.entries[:first], found.base)
        yield state
        for version, entry in enumerate(found.entries[first:], lo + 1):
            state = self.fmt.fold(version, [entry], state)
            yield state

    def hint(self) -> Hint | None:
        """What the hint names, or None when it is missing or cannot
        serve a read (:func:`_parse_hint`). One GET."""
        try:
            return _parse_hint(self.store.get(self.hint_key))
        except ObjectNotFound:
            return None

    def write_hint(self, version: int, checkpoint: int, tail: list[bytes]) -> None:
        """Point the hint at ``version``, whose newest checkpoint is
        ``checkpoint`` (-1 for none) and whose entries after it have
        the stored bytes ``tail``: spliced in as stored, never
        re-encoded."""
        data = b'{"version": %d, "checkpoint": %d, "tail": [%s]}' % (
            version,
            checkpoint,
            b", ".join(tail),
        )
        self.store.put(self.hint_key, data)

    def _find(self, lo: int | None, hi: int | None, *, load: bool = True) -> _Found:
        """Discover versions ``lo .. hi`` (None: the tip) and the tail:
        the stored entries after the checkpoint at or before ``lo``, up
        to ``hi``; with ``load``, the checkpointed state and the
        decoded entries too.

        Through the hint in two rounds when it can serve the read;
        otherwise through the umbrella LIST, then the checkpoint and
        the tail in one more round.
        """
        found = self._through_hint(lo, hi, load=load)
        if found is not None:
            return found
        latest, checkpoints = self.versions()
        barrier()  # what to read next depends on the listing
        lo, hi = _window(lo, hi, latest)
        if not -1 <= lo <= hi <= latest:
            missing = (
                f"version {lo}" if lo > latest
                else f"version {hi}" if hi > latest
                else f"window {lo}..{hi}"
            )
            raise SnapshotNotFound(
                f"{missing} of {self.root!r} does not exist (latest {latest})"
            )
        base = max((c for c in checkpoints if c <= lo), default=-1)
        start = self._load(base) if load else None
        return self._found(hi, base, self._tail(base, hi), start, load)

    def _tail(self, checkpoint: int, version: int) -> list[bytes]:
        """Stored bytes of entries ``checkpoint+1 .. version``."""
        return [self.entry_bytes(v) for v in range(checkpoint + 1, version + 1)]

    def _load(self, checkpoint: int):
        """The state checkpointed at ``checkpoint`` (None for -1)."""
        if checkpoint < 0:
            return None
        key = self._key(self._checkpoint_prefix, checkpoint)
        return self.fmt.load(self.store.get(key))

    def _found(self, version: int, checkpoint: int, tail: list[bytes], base, load):
        """:class:`_Found`, decoding ``tail`` when the state was asked
        for (``load``)."""
        entries = [self.fmt.decode(data) for data in tail] if load else None
        return _Found(version, checkpoint, tail, entries, base)

    def _exists(self, version: int) -> bool:
        try:
            self.store.get(self._key(self._log_prefix, version))
        except ObjectNotFound:
            return False
        return True

    def _through_hint(self, lo, hi, *, load: bool) -> _Found | None:
        """:meth:`_find` through the hint, or None to fall back.

        Round 1 GETs the hint. Round 2 GETs the checkpoint (for the
        state), entry ``hi`` — which must equal the tail's entry byte
        for byte, proving the hint is not ahead of the log and its tail
        is the log's own — and, for the tip, probes the next version,
        which must be missing.
        """
        hint = self.hint()
        barrier()  # every other read depends on the hint
        if hint is None:
            return None
        tip, base, stored = hint
        to_tip = hi is None
        lo, hi = _window(lo, hi, tip)
        if not base <= lo <= hi <= tip:
            return None  # before the hinted checkpoint, or past its tip
        try:
            start = self._load(base) if load else None
            entries = stored[: hi - base]
            if entries and self.entry_bytes(hi) != entries[-1]:
                return None  # not the log's entry: ahead of it, or foreign
            if not entries and not load:
                self.entry_bytes(hi)  # proves the version exists
            found = self._found(hi, base, entries, start, load)
        except (ObjectNotFound, LakeError):
            # It names what does not exist (ahead of the log), or a
            # tail entry no log would hold.
            return None
        if to_tip and self._exists(tip + 1):
            return None  # the hint is stale
        return found

    # -- writes --------------------------------------------------------
    def try_commit(self, version: int, entry) -> bytes:
        """Commit ``entry`` as exactly ``version`` or raise
        :class:`CommitConflict` if that version was taken. A bare
        conditional PUT: no checkpoint and no hint. Returns the stored
        bytes."""
        data = self.fmt.encode(entry)
        try:
            self.store.put(
                self._key(self._log_prefix, version), data, if_none_match=True
            )
        except PreconditionFailed as exc:
            raise CommitConflict(
                f"version {version} of {self.root!r} already committed"
            ) from exc
        return data

    def commit(self, entry=None, *, plan=None, max_retries: int = 20) -> int | None:
        """Commit at the next free version, retrying past conflicts;
        then take the checkpoint if one is due there, then advance the
        hint: the tail just read plus the entry just PUT, or nothing
        after a checkpoint.

        A blind ``entry`` (e.g. AddFile of a brand-new file) finds the
        tip and PUTs per attempt. A ``plan`` maps the state at the tip
        to the entry to commit, or to ``None`` for nothing to do, and
        may raise to refuse; after a conflict it runs again on the new
        state, so no entry lands on a version it was not validated
        against. Returns the committed version, or ``None``.
        """
        for _ in range(max_retries):
            found = self._find(None, None, load=plan is not None)
            latest = found.version
            if plan is not None:
                entry = plan(self.fmt.fold(latest, found.entries, found.base))
                if entry is None:
                    return None
            try:
                data = self.try_commit(latest + 1, entry)
            except CommitConflict:
                continue
            base, tail = found.checkpoint, [*found.tail, data]
            if self._due(latest + 1):
                self.checkpoint(latest + 1)
                base, tail = latest + 1, []
            # A blind commit passes on the checkpoint its hint named
            # without reading it; readers that find it missing fall back.
            self.write_hint(latest + 1, base, tail)
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
        start = self._load(base)
        entries = [self.fmt.decode(data) for data in self._tail(base, version)]
        try:
            self.store.put(
                self._key(self._checkpoint_prefix, version),
                self.fmt.dump(self.fmt.fold(version, entries, start)),
                if_none_match=True,
            )
        except PreconditionFailed:
            pass
