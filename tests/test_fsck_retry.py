"""fsck integrity auditor + retrying store wrapper."""

import dataclasses

import pytest

from repro.errors import FormatError, InjectedFault, ObjectNotFound, PreconditionFailed
from repro.core.client import RottnestClient
from repro.core.queries import UuidQuery
from repro.core.fsck import fsck
from repro.core.maintenance import vacuum_indices
from repro.storage.faults import FaultyObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.storage.retry import RetryingObjectStore
from repro.util.clock import SimClock

from tests.conftest import event_batch, event_uuid


class TestFsck:
    def test_clean_deployment(self, indexed_client):
        report = fsck(indexed_client)
        assert report.invariants_hold
        assert report.records_checked == 3
        assert report.files_verified > 0
        assert report.orphan_index_files == []
        assert "OK" in report.describe()

    def test_detects_missing_index_file(self, indexed_client, store):
        victim = indexed_client.meta.records()[0].index_key
        store.delete(victim)
        report = fsck(indexed_client)
        assert not report.invariants_hold
        assert victim in report.missing_index_files
        assert "MISSING" in report.describe()

    def test_detects_corrupt_index_file(self, indexed_client, store):
        victim = indexed_client.meta.records()[0].index_key
        store.put(victim, b"garbage" * 10)
        report = fsck(indexed_client)
        assert victim in report.corrupt_index_files
        assert not report.invariants_hold

    @pytest.mark.parametrize("delta", [-9, -1, 1, 9])
    def test_record_size_disagreeing_with_its_file(self, indexed_client, delta):
        """A search opens an index file at its record's size, with no
        HEAD: a wrong size is flagged by fsck and fails the search with
        a FormatError instead of answering from a misread tail."""
        meta = indexed_client.meta
        record = next(r for r in meta.records() if r.column == "uuid")
        meta.delete([record.index_key])
        meta.insert([dataclasses.replace(record, size=record.size + delta)])
        for verify_consistency in (True, False):  # HEAD alone tells
            report = fsck(indexed_client, verify_consistency=verify_consistency)
            assert report.corrupt_index_files == [record.index_key]
            assert not report.invariants_hold
        with pytest.raises(FormatError):
            indexed_client.search("uuid", UuidQuery(event_uuid(1, 5)), k=3)

    def test_detects_orphans(self, store, event_lake):
        faulty = FaultyObjectStore(store)
        client = RottnestClient(faulty, "idx/events", event_lake)
        faulty.fail_next("PUT", "_meta")
        with pytest.raises(InjectedFault):
            client.index("uuid", "uuid_trie")
        report = fsck(client)
        assert report.invariants_hold  # orphan is not a violation
        assert len(report.orphan_index_files) == 1

    def test_flags_stale_records(self, indexed_client, event_lake):
        event_lake.compact(min_file_rows=1000, target_rows=10_000)
        report = fsck(indexed_client)
        # Old records now cover only removed files.
        assert len(report.stale_records) == 3
        assert report.invariants_hold  # consistency vacuous, existence ok

    def test_existence_only_mode(self, indexed_client):
        report = fsck(indexed_client, verify_consistency=False)
        assert report.invariants_hold
        assert report.files_verified == 0

    def test_clean_after_vacuum(self, indexed_client, event_lake, clock):
        event_lake.compact(min_file_rows=1000, target_rows=10_000)
        indexed_client.index("uuid", "uuid_trie")
        vacuum_indices(indexed_client, snapshot_id=event_lake.latest_version())
        clock.advance(indexed_client.index_timeout_s + 1)
        vacuum_indices(indexed_client, snapshot_id=event_lake.latest_version())
        report = fsck(indexed_client)
        assert report.invariants_hold
        assert report.orphan_index_files == []
        assert report.stale_records == []


class TestRetryingStore:
    @pytest.fixture
    def stack(self):
        inner = InMemoryObjectStore(clock=SimClock())
        faulty = FaultyObjectStore(inner)
        retrying = RetryingObjectStore(faulty, max_attempts=4)
        return inner, faulty, retrying

    def test_transient_get_retried(self, stack):
        inner, faulty, retrying = stack
        inner.put("k", b"v")
        faulty.fail_next("GET")
        assert retrying.get("k") == b"v"
        assert retrying.retries == 1

    def test_repeated_failures_exhaust(self, stack):
        inner, faulty, retrying = stack
        inner.put("k", b"v")
        for _ in range(4):
            faulty.fail_next("GET")
        with pytest.raises(InjectedFault):
            retrying.get("k")
        assert retrying.retries == 4

    def test_permanent_errors_not_retried(self, stack):
        _, _, retrying = stack
        with pytest.raises(ObjectNotFound):
            retrying.get("missing")
        assert retrying.retries == 0

    def test_conditional_put_not_retried(self, stack):
        inner, faulty, retrying = stack
        faulty.fail_next("PUT")
        with pytest.raises(InjectedFault):
            retrying.put("log/0", b"x", if_none_match=True)
        assert retrying.retries == 0
        # The CAS semantics are intact for the caller's own retry.
        retrying.put("log/0", b"x", if_none_match=True)
        with pytest.raises(PreconditionFailed):
            retrying.put("log/0", b"y", if_none_match=True)

    def test_plain_put_retried(self, stack):
        inner, faulty, retrying = stack
        faulty.fail_next("PUT")
        retrying.put("k", b"v")
        assert inner.get("k") == b"v"

    def test_backoff_advances_sim_clock(self, stack):
        inner, faulty, retrying = stack
        inner.put("k", b"v")
        start = inner.clock.now()
        faulty.fail_next("GET")
        retrying.get("k")
        assert inner.clock.now() > start

    def test_end_to_end_through_flaky_store(self):
        """A full index+search cycle succeeds through a store that
        throws a transient error every few operations."""
        from repro.core.queries import UuidQuery
        from tests.conftest import EVENT_SCHEMA, event_uuid
        from repro.lake.table import LakeTable, TableConfig

        inner = InMemoryObjectStore(clock=SimClock())
        faulty = FaultyObjectStore(inner)
        retrying = RetryingObjectStore(faulty, max_attempts=5)
        lake = LakeTable.create(
            retrying, "lake/f", EVENT_SCHEMA,
            TableConfig(row_group_rows=200, page_target_bytes=2048),
        )
        lake.append(event_batch(200, seed=1))
        client = RottnestClient(retrying, "idx/f", lake)
        # Sprinkle transient GET failures ahead of the work.
        for countdown in (3, 9, 17, 31):
            faulty.fail_next("GET", countdown=countdown)
        client.index("uuid", "uuid_trie")
        res = client.search("uuid", UuidQuery(event_uuid(1, 5)), k=5)
        assert len(res.matches) == 1
        assert retrying.retries >= 1
