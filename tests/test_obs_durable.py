"""Unreadable telemetry: corrupt objects are skipped, bad files are
one-line errors.

Flights and snapshots are one kind of durable object (``ObjectKind``):
put-if-absent under a content address, read back with a schema check.
Reading all of them skips and counts an object that is corrupt, not a
JSON object, or of a foreign schema; reading that one object by name is
a :class:`ReproError` naming its key. The ops verbs inherit both rules,
and a ``--telemetry`` file that cannot be read or is not a telemetry
snapshot exits 1 with one ``error:`` line instead of a traceback.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.crack.heat import HeatKey, HeatMap
from repro.errors import ReproError
from repro.obs import TelemetryHub, write_telemetry_json
from repro.obs.flight import FLIGHTS, FlightTrace, load_flight, load_flights
from repro.obs.store import (
    SNAPSHOTS,
    SnapshotStore,
    canonical_json,
    content_id,
    load_snapshots,
    snapshot_payload,
)
from repro.storage.localfs import LocalFSObjectStore
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock

#: Objects no reader can use: corrupt JSON, not an object, a foreign schema.
UNREADABLE = [b"{not json", b"[1, 2]", b'{"schema": "nope"}']


def _hub(queries: int) -> TelemetryHub:
    hub = TelemetryHub()
    for i in range(queries):
        hub.series("serve.queries").observe(1.0, at_s=float(i))
        hub.quantiles("serve.latency_s").observe(0.01 * (i + 1), at_s=float(i))
    return hub


def _plant(store, kind, root: str = "obs") -> list[str]:
    """Put every unreadable object beside the readable ones; their keys."""
    keys = []
    for n, body in enumerate(UNREADABLE):
        keys.append(kind.key(root, f"deadbeefdeadbee{n}"))
        store.put(keys[-1], body)
    return keys


# ---------------------------------------------------------------------
# the ops verbs on a bucket with unreadable snapshots
# ---------------------------------------------------------------------
@pytest.fixture
def snapshot_bucket(tmp_path):
    """A bucket holding one readable snapshot (hub + heat map) and the
    three unreadable snapshot objects, plus the hub as a telemetry file."""
    bucket = str(tmp_path / "bucket")
    store = LocalFSObjectStore(bucket)
    heat = HeatMap()
    heat.observe(HeatKey("lake/f0.bin", "request_id", "UuidQuery"), 3.0, at_s=10.0)
    SnapshotStore(store).commit(_hub(8), heat=heat, source="run-a", at_s=100.0)
    _plant(store, SNAPSHOTS)
    telemetry = str(tmp_path / "TELEMETRY_run.json")
    write_telemetry_json(telemetry, _hub(8), source="run-a")
    return bucket, telemetry


class TestUnreadableSnapshot:
    def test_top_skips_and_counts(self, snapshot_bucket, capsys):
        bucket, _ = snapshot_bucket
        assert main(["top", "--root", bucket]) == 0
        out, err = capsys.readouterr()
        assert "skipped 3 unreadable telemetry snapshot(s)" in err
        assert "== burn rates ==" in out
        assert "queries    8" in out  # the readable snapshot's hub

    def test_dashboard_skips_and_counts(self, snapshot_bucket, tmp_path, capsys):
        bucket, telemetry = snapshot_bucket
        out_path = str(tmp_path / "dash.html")
        assert main([
            "dashboard", "--telemetry", telemetry, "--root", bucket,
            "--out", out_path,
        ]) == 0
        assert "skipped 3 unreadable telemetry snapshot(s)" in capsys.readouterr().err
        with open(out_path) as f:
            doc = f.read()
        assert "Crack heat map" in doc and "lake/f0.bin" in doc
        assert "Cross-run trends" in doc


# ---------------------------------------------------------------------
# a bad --telemetry file
# ---------------------------------------------------------------------
@pytest.mark.parametrize("content", [None, '{"schema":"nope"}', "{not json"])
@pytest.mark.parametrize("verb", ["slo-check", "top", "dashboard"])
def test_bad_telemetry_is_a_one_line_error(verb, content, tmp_path, capsys):
    """Missing, foreign-schema and non-JSON telemetry files exit 1 with
    one ``error:`` line."""
    path = str(tmp_path / "TELEMETRY_bad.json")
    if content is not None:
        with open(path, "w") as f:
            f.write(content)
    argv = [verb, "--telemetry", path]
    if verb == "dashboard":
        argv += ["--out", str(tmp_path / "dash.html")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "TELEMETRY_bad.json" in err
    assert not os.path.exists(tmp_path / "dash.html")


# ---------------------------------------------------------------------
# one object kind, two payloads
# ---------------------------------------------------------------------
_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
_text = st.text(max_size=12)

_flights = st.builds(
    FlightTrace,
    trace_id=st.just(""),
    reason=st.sampled_from(["error", "slo-breach", "tail"]),
    latency_s=_floats,
    at_s=_floats,
    query=_text,
    spans=st.lists(
        st.fixed_dictionaries({"span_id": st.integers(0, 99), "name": _text}),
        max_size=3,
    ),
)

_snapshots = st.builds(
    lambda queries, source, at_s, flights: snapshot_payload(
        _hub(queries), source=source, at_s=at_s, flights=flights
    ),
    st.integers(0, 4),
    _text,
    _floats,
    st.lists(st.text(alphabet="0123456789abcdef", min_size=16, max_size=16), max_size=3),
)


def _flight_object(flight: FlightTrace) -> tuple[str, bytes]:
    """A flight's id and stored bytes, the way the recorder makes them."""
    flight.trace_id = content_id(flight.serialize())
    return flight.trace_id, flight.serialize()


def _snapshot_object(payload: dict) -> tuple[str, bytes]:
    body = canonical_json(payload)
    return content_id(body), body


def _read_back(kind, store, key):
    obj = kind.read(store, key)
    return canonical_json(obj.to_dict() if isinstance(obj, FlightTrace) else obj)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), kind_name=st.sampled_from(["flight", "snapshot"]))
def test_one_object_kind_for_flights_and_snapshots(data, kind_name):
    """For both kinds: a second put of one object issues no PUT, reads
    return the object, and one unreadable object among them is skipped
    and counted by the bulk reader and a ReproError for a direct read."""
    if kind_name == "flight":
        kind, load_all = FLIGHTS, load_flights
        drawn = data.draw(st.lists(_flights, min_size=1, max_size=3))
        objects = dict(_flight_object(flight) for flight in drawn)
    else:
        kind, load_all = SNAPSHOTS, load_snapshots
        drawn = data.draw(st.lists(_snapshots, min_size=1, max_size=3))
        objects = dict(_snapshot_object(payload) for payload in drawn)
    store = InMemoryObjectStore(clock=SimClock(start=0.0))
    for object_id, body in objects.items():
        before = store.stats.snapshot()
        assert kind.put(store, "obs", object_id, body) is True
        assert kind.put(store, "obs", object_id, body) is False
        assert store.stats.snapshot().delta(before).puts == 1
        assert _read_back(kind, store, kind.key("obs", object_id)) == body

    bad_key = kind.key("obs", "deadbeefdeadbeef")
    store.put(bad_key, data.draw(st.sampled_from(UNREADABLE)))
    loaded, skipped = load_all(store)
    assert (len(loaded), skipped) == (len(objects), 1)
    with pytest.raises(ReproError, match=bad_key):
        if kind is FLIGHTS:
            load_flight(store, "deadbeefdeadbeef")
        else:
            SnapshotStore(store).load(bad_key)


def test_snapshot_store_readers_skip_what_they_cannot_read():
    """``snapshots`` / ``fold`` use only the readable
    snapshots; ``keys`` still lists every object, and folding a named
    unreadable one is an error naming it."""
    store = InMemoryObjectStore(clock=SimClock(start=0.0))
    snaps = SnapshotStore(store)
    snaps.commit(_hub(3), source="a", at_s=1.0)
    planted = _plant(store, SNAPSHOTS)
    assert len(snaps.keys()) == 1 + len(planted)
    assert [p["sources"] for p in snaps.snapshots()] == [["a"]]
    folded = snaps.fold()
    assert folded["sources"] == ["a"]
    assert TelemetryHub.from_snapshot(folded["hub"]).series("serve.queries").count() == 3
    with pytest.raises(ReproError, match=planted[0]):
        snaps.fold(planted[:1])
