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
    # Reading the tip now costs the checkpoint GET and no log GETs.
    before = log.store.stats.snapshot()
    state = log.state()
    assert log.store.stats.snapshot().delta(before).gets == 1
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
