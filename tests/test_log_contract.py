"""One contract for the one transaction log, run on both configurations.

The lake's ``_log`` (``Action`` lists folded into snapshots) and the
metadata table's ``_meta`` (insert/delete dicts folded into live
records) are the same :class:`TransactionLog` with different
:class:`LogFormat`\\ s, so every property below is stated once and
checked for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommitConflict, LakeError, SnapshotNotFound
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.actions import AddFile, RemoveFile, SetSchema
from repro.lake.log import LogFormat, TransactionLog, json_bytes
from repro.lake.table import LAKE_LOG
from repro.meta.metadata_table import META_LOG, IndexRecord
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import tracing


@dataclass(frozen=True)
class Config:
    """A log format plus how to spell "add x" / "remove x" in it."""

    fmt: LogFormat
    root: str
    genesis: list  # entries every log of this kind starts with
    add: Callable[[str], Any]
    remove: Callable[[str], Any]


def _record(key: str) -> IndexRecord:
    return IndexRecord(
        index_key=key,
        index_type="fm",
        column="text",
        covered_files=(f"data/{key}.parquet",),
        num_rows=1,
        size=1,
        created_at=0.0,
    )


CONFIGS = {
    "lake": Config(
        fmt=LAKE_LOG,
        root="lake/t",
        genesis=[[SetSchema(schema=Schema.of(Field("x", ColumnType.INT64)))]],
        add=lambda name: [AddFile(path=name, num_rows=1, size=1)],
        remove=lambda name: [RemoveFile(path=name)],
    ),
    "meta": Config(
        fmt=META_LOG,
        root="idx/t",
        genesis=[],
        add=lambda name: {"insert": [_record(name).to_json()]},
        remove=lambda name: {"delete": [name]},
    ),
}


@pytest.fixture(params=sorted(CONFIGS))
def config(request) -> Config:
    return CONFIGS[request.param]


def _log(config: Config, interval: int = 10) -> TransactionLog:
    log = TransactionLog(
        InMemoryObjectStore(), config.root, config.fmt, checkpoint_interval=interval
    )
    for version, entry in enumerate(config.genesis):
        log.try_commit(version, entry)  # as LakeTable.create: no checkpoint
    return log


def _rounds(trace) -> list[list[tuple[str, str]]]:
    return [[(r.op, r.key) for r in round_] for round_ in trace.rounds if round_]


def _full_replay(log: TransactionLog, version: int):
    entries = [log.read_version(v) for v in range(version + 1)]
    return log.fmt.fold(version, entries, None)


def _tail(log: TransactionLog, checkpoint: int, version: int) -> list[bytes]:
    """What a commit of ``version`` puts in its hint: the stored bytes
    of each entry after ``checkpoint``; made up where none exists."""
    config = next(c for c in CONFIGS.values() if c.fmt is log.fmt)
    tail = []
    for v in range(checkpoint + 1, version + 1):
        try:
            tail.append(log.entry_bytes(v))
        except SnapshotNotFound:
            tail.append(log.fmt.encode(config.add(f"ghost{v}")))
    return tail


def _write_hint(log: TransactionLog, version: int, checkpoint: int) -> None:
    """A hint naming ``version`` and ``checkpoint``, as a commit there
    would have written it (with a made-up tail past the log's tip)."""
    log.write_hint(version, checkpoint, _tail(log, checkpoint, version))


def test_commit_then_conflicting_try_commit(config):
    log = _log(config)
    version = log.commit(config.add("a"))
    assert version == log.latest_version()
    with pytest.raises(CommitConflict):
        log.try_commit(version, config.add("b"))
    assert log.read_version(version) == config.add("a")  # the winner stays
    # A blind commit re-reads the tip and lands on the next version.
    assert log.commit(config.add("b")) == version + 1


def test_checkpoint_exactly_at_interval(config):
    log = _log(config, interval=4)
    while log.latest_version() < 2:
        log.commit(config.add(f"f{log.latest_version()}"))
    assert log.versions() == (2, [])
    log.commit(config.add("f3"))
    assert log.versions() == (3, [3])
    # Reading the tip now costs the hint GET, then the checkpoint GET
    # and no log GETs (the probe of version 4 finds nothing, unbilled).
    with tracing() as trace:
        state = log.state()
    assert _rounds(trace) == [
        [("GET", log.hint_key)],
        [("GET", f"{config.root}/{config.fmt.checkpoint_dir}/{3:020d}.json")],
    ]
    assert state == _full_replay(log, 3)


def test_corrupt_entry_raises_lake_error(config):
    log = _log(config)
    version = log.commit(config.add("a"))
    key = f"{config.root}/{config.fmt.log_dir}/{version:020d}.json"
    log.store.put(key, b"\xff not json")
    with pytest.raises(LakeError):
        log.read_version(version)
    with pytest.raises(LakeError):
        log.state()


def test_missing_version_raises_snapshot_not_found(config):
    log = _log(config)
    log.commit(config.add("a"))
    latest = log.latest_version()
    with pytest.raises(SnapshotNotFound):
        log.read_version(latest + 1)
    with pytest.raises(SnapshotNotFound):
        log.state(latest + 1)


def test_a_plan_is_revalidated_after_a_conflict(config):
    """The validated commit re-runs its plan on the new tip: a rival
    commit landing first is seen, never committed over."""
    log = _log(config)
    rival = TransactionLog(log.store, config.root, config.fmt)
    seen = []

    def plan(state):
        seen.append(state)
        if len(seen) == 1:
            rival.commit(config.add("rival"))  # lands between read and PUT
        return config.add("mine")

    version = log.commit(plan=plan)
    assert len(seen) == 2 and seen[1] == _full_replay(log, version - 1)
    assert log.read_version(version - 1) == config.add("rival")


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    interval=st.integers(1, 5),
    ops=st.lists(st.booleans(), min_size=1, max_size=14),
)
def test_checkpoint_plus_tail_equals_full_replay(name, interval, ops):
    """For any commit sequence and interval, the state at every version
    read through checkpoint plus tail equals a full replay."""
    config = CONFIGS[name]
    log = _log(config, interval=interval)
    live: list[str] = []
    for i, add in enumerate(ops):
        if add or not live:
            live.append(f"f{i}")
            log.commit(config.add(live[-1]))
        else:
            log.commit(config.remove(live.pop(0)))
    latest, checkpoints = log.versions()
    assert checkpoints == [
        v
        for v in range(len(config.genesis), latest + 1)
        if (v + 1) % interval == 0
    ]
    for version in range(latest + 1):
        assert log.state(version) == _full_replay(log, version)


# -- the tip from the hint ---------------------------------------------
def _history(config: Config, interval: int = 3, commits: int = 7) -> TransactionLog:
    """``commits`` commits after the genesis; with interval 3 and seven
    commits the lake has checkpoints at 2 and 5, the metadata table at
    2 and 5 too (its versions start at 0)."""
    log = _log(config, interval=interval)
    for i in range(commits):
        log.commit(config.add(f"f{i}"))
    return log


def _read(log: TransactionLog, fn):
    """``(fn(), LISTs it sent)``."""
    with tracing() as trace:
        value = fn()
    return value, sum(op == "LIST" for round_ in _rounds(trace) for op, _ in round_)


def _assert_reads_the_tip(log: TransactionLog, *, lists: int) -> None:
    latest = log.versions()[0]
    state, sent = _read(log, log.state)
    assert state == _full_replay(log, latest)
    assert sent == lists
    assert _read(log, log.latest_version) == (latest, lists)
    # A commit lands right after the true tip, whatever the hint says.
    assert log.commit(log.fmt.decode(log.fmt.encode(_next_entry(log)))) == latest + 1
    assert log.versions()[0] == latest + 1
    checkpoint = max(log.versions()[1], default=-1)
    assert log.hint() == (latest + 1, checkpoint, _tail(log, checkpoint, latest + 1))


def _next_entry(log: TransactionLog):
    config = next(c for c in CONFIGS.values() if c.fmt is log.fmt)
    return config.add(f"next{log.versions()[0]}")


def test_fresh_hint_finds_the_tip_without_a_list(config):
    log = _history(config)
    latest, checkpoints = log.versions()
    assert log.hint() == (latest, checkpoints[-1], _tail(log, checkpoints[-1], latest))
    _assert_reads_the_tip(log, lists=0)


def test_missing_hint_falls_back_to_the_list(config):
    log = _history(config)
    log.store.delete(log.hint_key)
    assert log.hint() is None
    _assert_reads_the_tip(log, lists=1)


@pytest.mark.parametrize("behind", [1, 2, 3])
def test_stale_hint_falls_back_to_the_list(config, behind):
    """The probe of the version after a stale hint finds it."""
    log = _history(config)
    latest = log.versions()[0]
    _write_hint(log, latest - behind, 2)
    _assert_reads_the_tip(log, lists=1)


@pytest.mark.parametrize("ahead", [1, 3])
def test_hint_ahead_of_the_log_falls_back_to_the_list(config, ahead):
    """The tip the hint names is missing, whatever its made-up tail
    holds: no version is skipped."""
    log = _history(config)
    latest = log.versions()[0]
    _write_hint(log, latest + ahead, 5)
    _assert_reads_the_tip(log, lists=1)


@pytest.mark.parametrize(
    "garbage",
    [b"", b"\xff\xfe", b"[]", b'{"version": 3}', b'{"version": "7", "checkpoint": 5}',
     b'{"version": 4, "checkpoint": 5}', b'{"version": true, "checkpoint": -1}'],
)
def test_corrupt_hint_falls_back_to_the_list(config, garbage):
    log = _history(config)
    log.store.put(log.hint_key, garbage)
    assert log.hint() is None
    _assert_reads_the_tip(log, lists=1)


def test_hint_naming_a_missing_checkpoint_falls_back(config):
    """Reading the state needs the checkpoint, so it falls back; finding
    only the tip does not read it."""
    log = _history(config)
    latest = log.versions()[0]
    _write_hint(log, latest, 4)  # no checkpoint at 4
    state, sent = _read(log, log.state)
    assert (state, sent) == (_full_replay(log, latest), 1)
    assert _read(log, log.latest_version) == (latest, 0)


def test_racing_writer_regressing_the_hint(config):
    """Writer A's hint lands after writer B's newer commit and hint: the
    hint goes backwards, readers notice, the next commit repairs it."""
    log = _history(config)
    rival = TransactionLog(log.store, config.root, config.fmt, checkpoint_interval=3)
    old = log.hint()
    rival.commit(config.add("rival"))
    log.write_hint(*old)  # A's late hint PUT
    _assert_reads_the_tip(log, lists=1)
    _assert_reads_the_tip(log, lists=0)  # repaired by that commit


def test_time_travel_through_the_hint(config):
    """Versions from the hinted checkpoint to the hinted tip need no
    LIST; older ones LIST for their checkpoint. Every one equals a full
    replay, and versions past the tip do not exist."""
    log = _history(config)
    latest, checkpoints = log.versions()
    hinted = checkpoints[-1]
    for version in range(latest + 1):
        state, sent = _read(log, lambda: log.state(version))
        assert state == _full_replay(log, version)
        assert sent == (0 if version >= hinted else 1), version
    with pytest.raises(SnapshotNotFound):
        log.state(latest + 1)


# -- the hint's tail ------------------------------------------------------
def _hint_with_tail(log: TransactionLog, tail: bytes) -> None:
    """The fresh hint's version and checkpoint around another tail."""
    version, checkpoint, _ = log.hint()
    log.store.put(
        log.hint_key,
        b'{"version": %d, "checkpoint": %d, "tail": %s}' % (version, checkpoint, tail),
    )


@pytest.mark.parametrize("change", [-1, 1])
def test_tail_of_the_wrong_length_falls_back(config, change):
    log = _history(config)
    version, checkpoint, tail = log.hint()
    tail = tail[:-1] if change < 0 else [tail[0], *tail]
    log.write_hint(version, checkpoint, tail)
    assert log.hint() is None
    _assert_reads_the_tip(log, lists=1)


@pytest.mark.parametrize(
    "tail", [b"3", b'"x"', b"{}", b"null", b"[1, 2", b"[1,2]", b"[[], []] "]
)
def test_tail_that_is_not_a_list_falls_back(config, tail):
    log = _history(config)
    _hint_with_tail(log, tail)
    assert log.hint() is None
    _assert_reads_the_tip(log, lists=1)


def test_last_entry_differing_from_the_tip_falls_back(config):
    """A tail of the right length whose last entry is not the tip's:
    the tip GET catches it."""
    log = _history(config)
    version, checkpoint, tail = log.hint()
    other = _tail(log, checkpoint - 1, version - 1)  # one version earlier
    log.write_hint(version, checkpoint, other)
    assert log.hint().tail != tail
    _assert_reads_the_tip(log, lists=1)


def test_foreign_tail_falls_back(config):
    """Another log's tail, of the right length."""
    log = _history(config)
    other = next(c for c in CONFIGS.values() if c is not config)
    foreign = _history(other)
    version, checkpoint, _ = log.hint()
    log.write_hint(version, checkpoint, foreign.hint().tail)
    _assert_reads_the_tip(log, lists=1)


def test_tailless_hint_reads_the_tip_through_one_list(config):
    """A hint without a tail, as builds before the tail wrote it, is no
    hint: the read takes one LIST and still yields the tip's exact
    state, and the next commit writes a whole hint."""
    log = _history(config)
    latest, checkpoint, _ = log.hint()
    log.store.put(log.hint_key, json_bytes({"version": latest, "checkpoint": checkpoint}))
    assert log.hint() is None
    _assert_reads_the_tip(log, lists=1)


def test_a_checkpoint_empties_the_tail(config):
    log = _log(config, interval=3)
    while log.latest_version() < 1:
        log.commit(config.add(f"f{log.latest_version()}"))
    assert log.hint() == (1, -1, _tail(log, -1, 1))
    log.commit(config.add("f2"))
    assert log.hint() == (2, 2, [])
    log.commit(config.add("f3"))
    assert log.hint() == (3, 2, [log.entry_bytes(3)])


def test_the_hint_is_its_tail_plus_a_constant(config):
    """The tail's entries are spliced in as stored: the hint is their
    bytes plus at most 128 more."""
    log = _history(config, interval=10, commits=8)
    data = log.store.get(log.hint_key)
    tail = log.hint().tail
    assert len(tail) == 8 + len(config.genesis)
    assert tail == _tail(log, -1, log.versions()[0])
    assert len(data) <= sum(map(len, tail)) + 128


_HINT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add")),
        st.tuples(st.just("remove")),
        st.tuples(st.just("checkpoint"), st.integers(0, 20)),
        st.tuples(st.just("hint"), st.integers(-3, 3), st.integers(-1, 20)),
        st.tuples(st.just("drop")),
        st.tuples(st.just("garbage"), st.binary(max_size=8)),
        st.tuples(st.just("truncate"), st.integers(1, 3)),
        st.tuples(st.just("garbage-tail"), st.binary(max_size=8)),
        st.tuples(st.just("foreign")),
    ),
    min_size=1,
    max_size=16,
)


def _perturb(log: TransactionLog, config: Config, op: tuple, i: int, live: list) -> None:
    """One step of a history: a commit, a checkpoint, or a hint written
    wrong (racing, lost, made up, or with a truncated, garbage or
    another log's tail)."""
    latest = log.versions()[0]
    hint = log.hint()
    if op[0] == "add" or (op[0] == "remove" and not live):
        live.append(f"f{i}")
        assert log.commit(config.add(live[-1])) == latest + 1
    elif op[0] == "remove":
        assert log.commit(config.remove(live.pop(0))) == latest + 1
    elif op[0] == "checkpoint":
        log.checkpoint(min(op[1], latest))
    elif op[0] == "hint":  # a racing, lost or made-up hint write
        _write_hint(log, max(-1, latest + op[1]), min(op[2], latest + op[1]))
    elif op[0] == "drop":
        log.store.delete(log.hint_key)
    elif op[0] == "garbage":
        log.store.put(log.hint_key, op[1])
    elif hint is None or not hint.tail:
        return
    elif op[0] == "truncate":
        log.write_hint(hint.version, hint.checkpoint, hint.tail[: -op[1]])
    elif op[0] == "garbage-tail":
        log.write_hint(hint.version, hint.checkpoint, [*hint.tail[:-1], op[1]])
    else:  # the other configuration's entries, as many
        other = next(c for c in CONFIGS.values() if c is not config)
        tail = [other.fmt.encode(other.add(f"x{v}")) for v in range(len(hint.tail))]
        log.write_hint(hint.version, hint.checkpoint, tail)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), interval=st.integers(1, 4), ops=_HINT_OPS)
def test_any_hint_history_reads_the_listed_tip(name, interval, ops):
    """For any interleaving of commits, checkpoints and hint writes or
    losses, the tip read through whatever hint is there equals a full
    replay of the tip a LIST finds, and a commit lands right after it."""
    config = CONFIGS[name]
    log = _log(config, interval=interval)
    live: list[str] = []
    for i, op in enumerate(ops):
        _perturb(log, config, op, i, live)
        latest = log.versions()[0]
        assert log.latest_version() == latest
        if latest >= 0:
            assert log.state() == _full_replay(log, latest)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    interval=st.integers(1, 4),
    ops=_HINT_OPS,
    window=st.tuples(st.integers(-4, 12), st.integers(0, 12) | st.none()),
)
def test_states_equal_per_version_replays(name, interval, ops, window):
    """For any history and any hint left behind, every state
    ``states(lo, hi)`` yields equals a full replay of its version, from
    ``lo`` (counted back from ``hi`` when negative) to ``hi`` (the
    tip when None); a window past the tip does not exist."""
    config = CONFIGS[name]
    log = _log(config, interval=interval)
    live: list[str] = []
    for i, op in enumerate(ops):
        _perturb(log, config, op, i, live)
    latest = log.versions()[0]
    lo, hi = window
    last = latest if hi is None else hi
    first = max(0, last + 1 + lo) if lo < 0 else lo
    if latest < 0 or not first <= last <= latest:
        with pytest.raises(SnapshotNotFound):
            list(log.states(lo, hi))
        return
    states = list(log.states(lo, hi))
    assert states == [_full_replay(log, v) for v in range(first, last + 1)]
