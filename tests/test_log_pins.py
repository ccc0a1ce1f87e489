"""What the transaction logs must never move: bytes and read requests.

Both logs (the lake's ``_log`` and the metadata table's ``_meta``) are
on-storage formats other readers depend on, and their two reads —
``LakeTable.snapshot`` and ``MetadataTable.records`` — are a cold
query's plan rounds. The golden bytes and mutation order were captured
from the log code before the lake and metadata logs became one
``TransactionLog``, and hold with each log's hint (``_latest.json``)
left out; any change to keys, bytes, PUT order or the plan rounds'
requests fails here. Log entries name data and index files by content
hash and size, so a change to the Parquet or index file formats moves
the golden values too: re-pin them only in such a change.
"""

from __future__ import annotations

import hashlib
import itertools
import os

import pytest

from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices, vacuum_indices
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.log import HINT_NAME
from repro.lake.table import LakeTable, TableConfig
from repro.meta.metadata_table import IndexRecord, MetadataTable
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.stats import tracing
from repro.util.clock import SimClock

SCHEMA = Schema.of(Field("id", ColumnType.INT64), Field("uuid", ColumnType.BINARY))
LOG_DIRS = ("/_log/", "/_checkpoints/", "/_meta/", "/_meta_checkpoints/")
#: (log dir, checkpoint dir) of the two logs.
LOGS = (("_log", "_checkpoints"), ("_meta", "_meta_checkpoints"))


@pytest.fixture
def seeded_urandom(monkeypatch):
    """Lake data and deletion-vector names are salted with
    ``os.urandom``; a counter makes a history reproducible."""
    counter = itertools.count()
    monkeypatch.setattr(
        os, "urandom", lambda n: next(counter).to_bytes(n, "big")
    )


def _batch(lo: int, hi: int) -> dict[str, list]:
    return {
        "id": list(range(lo, hi)),
        "uuid": [f"row-{i:05d}".encode().ljust(16, b"\0") for i in range(lo, hi)],
    }


class _RecordingStore(InMemoryObjectStore):
    """Remembers every mutation that landed, in order."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.mutations: list[str] = []

    def put(self, key, data, *, if_none_match=False):
        info = super().put(key, data, if_none_match=if_none_match)
        self.mutations.append(f"PUT {key}")
        return info

    def delete(self, key):
        super().delete(key)
        self.mutations.append(f"DELETE {key}")


def _scripted_history() -> tuple[InMemoryObjectStore, str]:
    """Appends, index, index compaction, a delete-where, a lake
    compaction, a fresh index and a vacuum; interval 3 on both logs."""
    store = _RecordingStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        store,
        "lake/g",
        SCHEMA,
        TableConfig(row_group_rows=64, page_target_bytes=512, checkpoint_interval=3),
    )
    counter = itertools.count()
    client = RottnestClient(
        store, "idx/g", lake, key_entropy=lambda: next(counter).to_bytes(4, "big")
    )
    client.meta.checkpoint_interval = 3
    for i in range(4):
        lake.append(_batch(i * 40, (i + 1) * 40))
        client.index("uuid", "uuid_trie")
    compact_indices(client, "uuid", "uuid_trie")
    lake.delete_where("id", lambda v: v % 7 == 0)
    lake.compact(min_file_rows=1000, target_rows=10_000)
    lake.append(_batch(160, 200))
    client.index("uuid", "uuid_trie")
    store.clock.advance(2 * client.index_timeout_s)
    vacuum_indices(client, snapshot_id=lake.latest_version())
    return store, "\n".join(m for m in store.mutations if not _is_hint(m))


def _is_hint(key_or_line: str) -> bool:
    return key_or_line.endswith(f"/{HINT_NAME}")


def _log_digests(store: InMemoryObjectStore) -> dict[str, str]:
    return {
        key: hashlib.sha256(data).hexdigest()
        for key, data in sorted(store.dump().items())
        if any(d in key for d in LOG_DIRS) and not _is_hint(key)
    }


def _requests(read) -> list[list[tuple[str, str]]]:
    with tracing() as trace:
        read()
    return [[(r.op, r.key) for r in round_] for round_ in trace.rounds if round_]


def _lake(store: InMemoryObjectStore, interval: int, appends: int) -> LakeTable:
    lake = LakeTable.create(
        store,
        "lake/r",
        SCHEMA,
        TableConfig(row_group_rows=64, page_target_bytes=512,
                    checkpoint_interval=interval),
    )
    for i in range(appends):
        lake.append(_batch(i * 5, (i + 1) * 5))
    return lake


def _record(key: str) -> IndexRecord:
    return IndexRecord(
        index_key=key,
        index_type="uuid_trie",
        column="uuid",
        covered_files=(f"lake/r/data/{key}.parquet",),
        num_rows=5,
        size=100,
        created_at=1.0,
    )


def _meta(store: InMemoryObjectStore, interval: int, inserts: int) -> MetadataTable:
    meta = MetadataTable(store, "idx/r", checkpoint_interval=interval)
    for i in range(inserts):
        meta.insert([_record(f"i{i}")])
    meta.delete(["i0"])
    return meta


def _v(n: int) -> str:
    return f"{n:020d}.json"


# -- (a) golden bytes ---------------------------------------------------
#: The metadata entries name content-addressed index keys and sizes, so
#: they moved when page entries gained their CRCs (4 bytes a page, and
#: index format 2 in the header); the lake's did not.
GOLDEN = {
    "idx/g/_meta/00000000000000000000.json": (
        "0de55321b126836a39eee71458bd5110abe0746f56fa056f6cd8dbc09d604d71"
    ),
    "idx/g/_meta/00000000000000000001.json": (
        "2f5caec168663dfdab2d46f703df91414c5ceb58da596f70ffd54e606fb06fb4"
    ),
    "idx/g/_meta/00000000000000000002.json": (
        "74c96ecbf24790ab62682ce30d58a7291ba16328fe8823c028a0e7bb253b6039"
    ),
    "idx/g/_meta/00000000000000000003.json": (
        "133d303555b4b11d1bc8bdfe009cd34100a3f816e66bec8c1ff711b9d0909c38"
    ),
    "idx/g/_meta/00000000000000000004.json": (
        "5e11affdf6b0b3e988b0ee4ead739c67d2b0ce8bbba6eaa4d0f7f18b04ca89ee"
    ),
    "idx/g/_meta/00000000000000000005.json": (
        "198d757411fbe25a250ceb1d36cc9b975dd21e8430b857524a875b399f739f85"
    ),
    "idx/g/_meta/00000000000000000006.json": (
        "af67f7c89baf426fd9687b34060298730afcc7ab9202b82c92294d9836e1a63a"
    ),
    "idx/g/_meta_checkpoints/00000000000000000002.json": (
        "b72f111ae0e7eff0d19d96190e1dffde567706f87e6e38a5b9f49c159cbc5b92"
    ),
    "idx/g/_meta_checkpoints/00000000000000000005.json": (
        "2afd9edbd9afcaa30dc065ced6a990e38c758e51d784123b276e4d38f5bd8d20"
    ),
    "lake/g/_checkpoints/00000000000000000002.json": (
        "1f83024e0c8112eaaddb41776605739c35fe976e11e563ad2c80f6d1778655f5"
    ),
    "lake/g/_checkpoints/00000000000000000005.json": (
        "d568b9c9cb682ea9d08b71a5472864e369ac04f1bd394b15d12bd425789422a2"
    ),
    "lake/g/_log/00000000000000000000.json": (
        "07eeed3ab56beb31af4f0febc2f3f8624532e765c2b7c3afc8add80634197f33"
    ),
    "lake/g/_log/00000000000000000001.json": (
        "d91e9b7bd4d7e1007b9a72a0fb8d35bae98972916dd519617a22f4c66f0b4f01"
    ),
    "lake/g/_log/00000000000000000002.json": (
        "0c7a0074cb64900ae6a2fdab3a14d457e1314e0c0a42d33b0bf5ce515b7e0941"
    ),
    "lake/g/_log/00000000000000000003.json": (
        "9d88186eb8aae59c2bb3bae5a85d873dabf150d86d26b724ed8b27c9f8b5fc07"
    ),
    "lake/g/_log/00000000000000000004.json": (
        "31371c1b56af727cc4ceabc0cd81ef5564be38dc4131943c08ef92b0cfe210f2"
    ),
    "lake/g/_log/00000000000000000005.json": (
        "9ca00d4f89d9f1fd390fcf2212d2cdbafdaaaabe4eb1b71b4657d51062ce32de"
    ),
    "lake/g/_log/00000000000000000006.json": (
        "808d1e87861e4d211d7ed91933e036f28890521db89661738357cd626a22832d"
    ),
    "lake/g/_log/00000000000000000007.json": (
        "62eb14afe8e4803460a0abd2abcb156d239419467e222c17c0f58834d801d735"
    ),
}


#: sha256 over the history's landed mutations, one ``"<op> <key>"``
#: per line in the order they landed: every PUT and DELETE, data files
#: included.
GOLDEN_MUTATIONS = (
    "32ebcf7a5c16a0074b09730e9cd8caab66198b5836ecb78a285f8d9d350e4f80"
)


def test_scripted_history_writes_the_golden_log_bytes(seeded_urandom):
    store, mutations = _scripted_history()
    assert _log_digests(store) == GOLDEN
    assert hashlib.sha256(mutations.encode()).hexdigest() == GOLDEN_MUTATIONS


def test_every_commit_puts_one_hint_after_its_checkpoint(seeded_urandom):
    store, _ = _scripted_history()
    ops = store.mutations
    commits = 0
    for i, op in enumerate(ops):
        for log_dir, checkpoint_dir in LOGS:
            root, sep, name = op.partition(f"/{log_dir}/")
            if not sep or name == HINT_NAME:
                continue
            commits += 1
            after = i + 1
            if ops[after] == f"{root}/{checkpoint_dir}/{name}":
                after += 1
            assert ops[after] == f"{root}/{log_dir}/{HINT_NAME}", op
    assert sum(map(_is_hint, ops)) == commits == 15
    for log, (version, checkpoint) in (
        (LakeTable.open(store, "lake/g").log, (7, 5)),
        (MetadataTable(store, "idx/g").log, (6, 5)),
    ):
        tail = [log.entry_bytes(v) for v in range(checkpoint + 1, version + 1)]
        assert log.hint() == (version, checkpoint, tail)


# -- (b) the plan rounds' requests --------------------------------------
# Round 1 GETs the hint; round 2 reads the checkpoint it names and the
# tip entry, which must equal the hint's last tail entry: the tail's
# other entries come from the hint. The probe of the version after the
# tip finds nothing, and a missing key is not billed, so it is in no
# round.
LAKE_HINT = ("GET", f"lake/r/_log/{HINT_NAME}")
META_HINT = ("GET", f"idx/r/_meta/{HINT_NAME}")


def test_snapshot_without_checkpoint_requests():
    store = InMemoryObjectStore()
    lake = _lake(store, interval=10, appends=3)
    assert _requests(lake.snapshot) == [[LAKE_HINT], [("GET", f"lake/r/_log/{_v(3)}")]]


def test_snapshot_from_checkpoint_requests():
    store = InMemoryObjectStore()
    lake = _lake(store, interval=3, appends=7)  # checkpoints at 2 and 5
    assert _requests(lake.snapshot) == [
        [LAKE_HINT],
        [("GET", f"lake/r/_checkpoints/{_v(5)}"), ("GET", f"lake/r/_log/{_v(7)}")],
    ]


def test_time_travel_requests():
    store = InMemoryObjectStore()
    lake = _lake(store, interval=3, appends=7)
    # Before the hinted checkpoint (5): the hint cannot serve it, so
    # the LIST finds the older checkpoint, then the reads follow.
    assert _requests(lambda: lake.snapshot(1)) == [
        [LAKE_HINT],
        [("LIST", "lake/r/_")],
        [("GET", f"lake/r/_log/{_v(v)}") for v in (0, 1)],
    ]
    assert _requests(lambda: lake.snapshot(4)) == [
        [LAKE_HINT],
        [("LIST", "lake/r/_")],
        [("GET", f"lake/r/_checkpoints/{_v(2)}")]
        + [("GET", f"lake/r/_log/{_v(v)}") for v in (3, 4)],
    ]
    # Between the hinted checkpoint and the tip: no LIST, no probe.
    assert _requests(lambda: lake.snapshot(6)) == [
        [LAKE_HINT],
        [("GET", f"lake/r/_checkpoints/{_v(5)}"), ("GET", f"lake/r/_log/{_v(6)}")],
    ]


def test_records_requests():
    store = InMemoryObjectStore()
    without = _meta(store, interval=10, inserts=3)
    assert _requests(without.records) == [[META_HINT], [("GET", f"idx/r/_meta/{_v(3)}")]]
    store = InMemoryObjectStore()
    with_checkpoint = _meta(store, interval=3, inserts=6)  # checkpoint at 5
    assert _requests(with_checkpoint.records) == [
        [META_HINT],
        [("GET", f"idx/r/_meta_checkpoints/{_v(5)}"), ("GET", f"idx/r/_meta/{_v(6)}")],
    ]


# -- (c) history reads ----------------------------------------------------
# ``files_since`` and the lake's ``vacuum`` fold every snapshot of their
# window forward from one discovery. From the hinted checkpoint on that
# is the hint, then the checkpoint and the tip entry; a window reaching
# back before it adds one LIST, then the checkpoint and entries it needs.
def _rounds(read) -> tuple[int, int]:
    """``(rounds, LISTs)`` a read sent."""
    requests = _requests(read)
    return len(requests), sum(op == "LIST" for r in requests for op, _ in r)


def test_whole_history_read_takes_three_rounds():
    store = InMemoryObjectStore()
    lake = _lake(store, interval=10, appends=50)  # checkpoints at 9 .. 49
    assert lake.log.hint()[:2] == (50, 49)
    everything = set().union(*(lake.snapshot(v).file_paths for v in range(51)))
    assert _rounds(lambda: lake.files_since(0)) == (3, 1)
    assert lake.files_since(0) == everything
    assert _rounds(lambda: lake.files_since(49)) == (2, 0)
    assert _rounds(lambda: lake.files_since(50)) == (2, 0)
    assert _requests(lambda: lake.files_since(0))[1:] == [
        [("LIST", "lake/r/_")],
        [("GET", f"lake/r/_log/{_v(v)}") for v in range(51)],
    ]


@pytest.mark.parametrize("retain", [1, 2, 3, 4, 52, 60])
def test_vacuum_reads_its_window_in_three_rounds(retain):
    store = InMemoryObjectStore()
    lake = _lake(store, interval=10, appends=50)
    lake.compact(min_file_rows=100, target_rows=1000)  # v51 drops every file
    assert lake.log.hint()[:2] == (51, 49)
    keep = set().union(
        *(lake.snapshot(v).file_paths for v in range(max(0, 52 - retain), 52))
    )
    with tracing() as trace:
        lake.vacuum(retain_versions=retain)
    log_rounds = [r for r in trace.rounds if any(q.key.startswith("lake/r/_") for q in r)]
    assert len(log_rounds) == (2 if retain <= 3 else 3)
    assert {info.key for info in store.list("lake/r/data/")} == keep
