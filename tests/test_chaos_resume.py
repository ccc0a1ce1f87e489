"""Property tests: crash resumability and parallel/serial identity.

Two byte-level properties of the maintenance protocol:

* for *any* prefix of a compact run — the client dies right after its
  Nth mutation — a second ``compact`` from a brand-new client leaves
  the lake's object state byte-identical to a run that was never
  interrupted (modulo metadata checkpoints, which are a pure read
  optimization a no-op recovery legitimately skips);
* for *any* lake shape and worker count, a parallel index+compact
  history commits byte-identical objects and identical metadata to the
  serial history — parallelism changes request scheduling, never bytes.

Hypothesis drives the lake shape (number of files, rows per file) and
the crash boundary / worker count; determinism of the convergence
comes from content-addressed merged-index keys plus the idempotent
metadata commit, both in :mod:`repro.core.maintenance`.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.harness import _logical_state
from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices
from repro.errors import SimulatedCrash
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.pool import TracedPool
from repro.util.clock import SimClock

SCHEMA = Schema.of(Field("uuid", ColumnType.BINARY))


def _client(store) -> RottnestClient:
    client = RottnestClient(store, "idx/u", LakeTable.open(store, "lake/u"))
    client.meta.checkpoint_interval = 3  # checkpoints land mid-history too
    return client


def _build_lake(n_files: int, rows: int) -> InMemoryObjectStore:
    store = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        store, "lake/u", SCHEMA, TableConfig(row_group_rows=64,
                                             page_target_bytes=512)
    )
    for i in range(n_files):
        lake.append(
            {
                "uuid": [
                    f"{i:02d}-{j:04d}".encode().ljust(16, b"\0")
                    for j in range(rows)
                ]
            }
        )
        _client(store).index("uuid", "uuid_trie")
    return store


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_any_compact_prefix_plus_fresh_compact_is_byte_identical(data):
    n_files = data.draw(st.integers(min_value=2, max_value=4), label="files")
    rows = data.draw(st.integers(min_value=16, max_value=48), label="rows")
    base = _build_lake(n_files, rows)

    # Uninterrupted reference run on a clone of the starting state.
    reference = base.clone()
    before = reference.stats.snapshot()
    compact_indices(_client(reference), "uuid", "uuid_trie")
    delta = reference.stats.snapshot().delta(before)
    mutations = delta.puts + delta.deletes
    assert mutations >= 2  # merged upload + commit, at least

    # Kill a compacting client right after an arbitrary mutation...
    crash_at = data.draw(
        st.integers(min_value=0, max_value=mutations - 1), label="crash_at"
    )
    store = base.clone()
    faulty = FaultyObjectStore(store)
    faulty.crash_after("MUTATE", countdown=crash_at)
    with pytest.raises(SimulatedCrash):
        compact_indices(_client(faulty), "uuid", "uuid_trie")

    # ...then recover with a brand-new, fault-free client.
    compact_indices(_client(store), "uuid", "uuid_trie")

    assert _logical_state(store) == _logical_state(reference)


# ---------------------------------------------------------------------
# parallel maintenance == serial maintenance, byte for byte
# ---------------------------------------------------------------------
def _deterministic_client(store) -> RottnestClient:
    """A client whose salted index keys come from a counter instead of
    ``os.urandom``, so two maintenance histories over clones of one
    store produce byte-identical objects when the protocol does."""
    counter = itertools.count()
    client = RottnestClient(
        store,
        "idx/u",
        LakeTable.open(store, "lake/u"),
        key_entropy=lambda: next(counter).to_bytes(4, "big"),
    )
    client.meta.checkpoint_interval = 3
    return client


def _maintain_history(store, pool, batches: int) -> None:
    """Index each lake version in turn on ``pool`` (``None`` = inline
    on the calling thread), then compact — the canonical maintenance history of one lake. (Appends
    happen on the *base* store before cloning: lake data-file names
    are salted with no injection hook, so the appended bytes must be
    shared for two histories to be comparable.)"""
    client = _deterministic_client(store)
    for version in range(1, batches + 1):
        client.index(
            "uuid",
            "uuid_trie",
            snapshot=client.lake.snapshot(version),
            pool=pool,
        )
    compact_indices(client, "uuid", "uuid_trie", pool=pool)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_parallel_maintenance_is_byte_identical_to_serial(data):
    batches = data.draw(st.integers(min_value=2, max_value=4), label="batches")
    rows = data.draw(st.integers(min_value=16, max_value=48), label="rows")
    workers = data.draw(st.sampled_from([2, 3, 4]), label="workers")

    base = InMemoryObjectStore(clock=SimClock(start=1_000_000.0))
    lake = LakeTable.create(
        base, "lake/u", SCHEMA, TableConfig(row_group_rows=64,
                                            page_target_bytes=512)
    )
    for i in range(batches):
        lake.append(
            {
                "uuid": [
                    f"{i:02d}-{j:04d}".encode().ljust(16, b"\0")
                    for j in range(rows)
                ]
            }
        )

    serial = base.clone()
    parallel = base.clone()
    _maintain_history(serial, None, batches)
    with TracedPool(workers=workers) as pool:
        _maintain_history(parallel, pool, batches)

    # Byte-identical objects at identical keys (checkpoints excluded).
    assert _logical_state(parallel) == _logical_state(serial)
    # ...and identical committed metadata, record for record.
    serial_meta = _deterministic_client(serial).meta.records()
    parallel_meta = _deterministic_client(parallel).meta.records()
    assert parallel_meta == serial_meta
