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
from repro.lake.log import LogFormat, TransactionLog
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
    assert log.hint() == (latest + 1, max(log.versions()[1], default=-1))


def _next_entry(log: TransactionLog):
    config = next(c for c in CONFIGS.values() if c.fmt is log.fmt)
    return config.add(f"next{log.versions()[0]}")


def test_fresh_hint_finds_the_tip_without_a_list(config):
    log = _history(config)
    latest, checkpoints = log.versions()
    assert log.hint() == (latest, checkpoints[-1])
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
    log.write_hint(latest - behind, 2)
    _assert_reads_the_tip(log, lists=1)


@pytest.mark.parametrize("ahead", [1, 3])
def test_hint_ahead_of_the_log_falls_back_to_the_list(config, ahead):
    """A tail entry the hint names is missing: no version is skipped."""
    log = _history(config)
    latest = log.versions()[0]
    log.write_hint(latest + ahead, 5)
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
    log.write_hint(latest, 4)  # no checkpoint at 4
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


_HINT_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add")),
        st.tuples(st.just("remove")),
        st.tuples(st.just("checkpoint"), st.integers(0, 20)),
        st.tuples(st.just("hint"), st.integers(-3, 3), st.integers(-1, 20)),
        st.tuples(st.just("drop")),
        st.tuples(st.just("garbage"), st.binary(max_size=8)),
    ),
    min_size=1,
    max_size=16,
)


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
        latest = log.versions()[0]
        if op[0] == "add" or (op[0] == "remove" and not live):
            live.append(f"f{i}")
            assert log.commit(config.add(live[-1])) == latest + 1
        elif op[0] == "remove":
            assert log.commit(config.remove(live.pop(0))) == latest + 1
        elif op[0] == "checkpoint":
            log.checkpoint(min(op[1], latest))
        elif op[0] == "hint":  # a racing, lost or made-up hint write
            log.write_hint(max(-1, latest + op[1]), min(op[2], latest + op[1]))
        elif op[0] == "drop":
            log.store.delete(log.hint_key)
        else:
            log.store.put(log.hint_key, op[1])
        latest = log.versions()[0]
        assert log.latest_version() == latest
        if latest >= 0:
            assert log.state() == _full_replay(log, latest)
