"""Command-line interface: operate a lake + Rottnest index on disk.

Backed by :class:`~repro.storage.localfs.LocalFSObjectStore`, so state
persists across invocations — each subcommand is the "any VM or
serverless function with access to the bucket" of the paper's protocol.

Usage sketch::

    python -m repro create-table --root /tmp/bucket --table lake/logs \
        --schema "ts:int64,request_id:binary,message:string"
    python -m repro append --root /tmp/bucket --table lake/logs \
        --jsonl events.jsonl
    python -m repro index --root /tmp/bucket --table lake/logs \
        --index-dir idx/logs --column request_id --type uuid_trie
    python -m repro search --root /tmp/bucket --table lake/logs \
        --index-dir idx/logs --column request_id --uuid deadbeef... -k 5
    python -m repro compact --root ... ; python -m repro vacuum --root ...
    python -m repro info --root /tmp/bucket --table lake/logs

Binary values travel as hex in JSONL/arguments; vectors as JSON arrays.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices, vacuum_indices
from repro.core.queries import (
    RangeQuery,
    RegexQuery,
    SubstringQuery,
    UuidQuery,
    VectorQuery,
)
from repro.errors import EmptyInput, ReproError
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig
from repro.storage.localfs import LocalFSObjectStore


def parse_schema(spec: str) -> Schema:
    """``"name:type[:dim]"`` comma list -> Schema."""
    fields = []
    for part in spec.split(","):
        bits = part.strip().split(":")
        if len(bits) not in (2, 3):
            raise ReproError(f"bad field spec {part!r}; want name:type[:dim]")
        name, type_name = bits[0], bits[1].upper()
        try:
            column_type = ColumnType[type_name]
        except KeyError:
            raise ReproError(
                f"unknown type {bits[1]!r}; one of "
                f"{[t.name.lower() for t in ColumnType]}"
            ) from None
        dim = int(bits[2]) if len(bits) == 3 else 0
        fields.append(Field(name=name, type=column_type, vector_dim=dim))
    return Schema.of(*fields)


def _decode_value(field: Field, raw):
    if field.type is ColumnType.BINARY:
        return bytes.fromhex(raw)
    return raw  # vectors stay lists, batched below


def _encode_value(value):
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, np.ndarray):
        return [round(float(x), 6) for x in value]
    return value


def _load_columns(schema: Schema, lines: list[str]) -> dict[str, list]:
    columns: dict[str, list] = {f.name: [] for f in schema.fields}
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"line {line_no}: not JSON ({exc})") from exc
        for f in schema.fields:
            if f.name not in obj:
                raise ReproError(f"line {line_no}: missing column {f.name!r}")
            columns[f.name].append(_decode_value(f, obj[f.name]))
    for f in schema.fields:
        if f.type is ColumnType.VECTOR:
            columns[f.name] = np.asarray(columns[f.name], dtype=np.float32)
    return columns


def _open(args) -> tuple[LocalFSObjectStore, LakeTable]:
    store = LocalFSObjectStore(args.root)
    return store, LakeTable.open(store, args.table)


def _client(args) -> RottnestClient:
    store, lake = _open(args)
    return RottnestClient(store, args.index_dir, lake)


def cmd_create_table(args) -> int:
    store = LocalFSObjectStore(args.root)
    schema = parse_schema(args.schema)
    config = TableConfig(
        row_group_rows=args.row_group_rows,
        page_target_bytes=args.page_target_bytes,
    )
    LakeTable.create(store, args.table, schema, config)
    print(f"created table {args.table!r} with columns {schema.names}")
    return 0


def cmd_append(args) -> int:
    store, lake = _open(args)
    if args.jsonl == "-":
        lines = sys.stdin.readlines()
    else:
        with open(args.jsonl) as f:
            lines = f.readlines()
    columns = _load_columns(lake.schema, lines)
    count = len(next(iter(columns.values())))
    if count == 0:
        raise ReproError("no rows to append")
    version = lake.append(columns)
    print(f"appended {count} rows as version {version}")
    return 0


def cmd_index(args) -> int:
    client = _client(args)
    params = {}
    for pair in args.param or []:
        key, _, value = pair.partition("=")
        params[key] = json.loads(value)
    record = client.index(args.column, args.type, params=params)
    if record is None:
        print("nothing new to index")
    else:
        print(
            f"indexed {record.num_rows} rows "
            f"({len(record.covered_files)} file(s)) into "
            f"{record.index_key} [{record.size} bytes]"
        )
    return 0


def _build_query(args):
    choices = [args.uuid, args.substring, args.regex, args.vector, args.range]
    if sum(c is not None for c in choices) != 1:
        raise ReproError(
            "give exactly one of --uuid, --substring, --regex, --vector, "
            "--range"
        )
    if args.uuid is not None:
        return UuidQuery(bytes.fromhex(args.uuid))
    if args.substring is not None:
        return SubstringQuery(args.substring)
    if args.regex is not None:
        return RegexQuery(args.regex)
    if args.range is not None:
        lo, hi = (json.loads(v) for v in args.range)
        return RangeQuery(lo, hi)
    vector = np.asarray(json.loads(args.vector), dtype=np.float32)
    return VectorQuery(vector, nprobe=args.nprobe, refine=args.refine)


def _run_query(search, args, query):
    """``search`` (a client's, an executor's or a server's) of the
    query flags' column, ``-k`` and ``--partition``."""
    return search(args.column, query, k=args.k, partition=args.partition)


def cmd_search(args) -> int:
    client = _client(args)
    query = _build_query(args)
    result = _run_query(client.search, args, query)
    for match in result.matches:
        print(
            json.dumps(
                {
                    "file": match.file,
                    "row": match.row,
                    "value": _encode_value(match.value),
                    **({"score": match.score} if match.score is not None else {}),
                }
            )
        )
    stats = result.stats
    print(
        f"# {len(result.matches)} match(es); "
        f"{stats.index_files_queried} index file(s), "
        f"{stats.pages_probed} page(s) probed, "
        f"{stats.files_brute_forced} file(s) brute-forced, "
        f"~{stats.estimated_latency() * 1000:.0f} ms modeled",
        file=sys.stderr,
    )
    return 0


def cmd_serve_bench(args) -> int:
    """Repeated-query serving benchmark: cold vs warm, concurrency."""
    import threading

    from repro.obs import FlightRecorder, SnapshotStore, TelemetryHub, use_hub
    from repro.obs import use_flight_recorder, write_dashboard, write_telemetry_json
    from repro.serve import SearchServer

    store = LocalFSObjectStore(args.root)
    server = SearchServer.for_lake(
        store,
        args.index_dir,
        args.table,
        cache_budget_bytes=args.cache_mb << 20,
        max_searchers=args.max_searchers,
        max_inflight=max(args.clients, 1),
    )
    query = _build_query(args)
    hub = TelemetryHub()
    recorder = (
        FlightRecorder(store, root=args.obs, slo=_slo(args)) if args.flight else None
    )
    with use_hub(hub), use_flight_recorder(recorder), server:
        if args.warmup:
            warmed = server.warmup()
            print(f"warmed {warmed} index file(s)", file=sys.stderr)
        cold = _run_query(server.query, args, query)
        cold_latency = server.stats.first_latency_s

        def run_client() -> None:
            for _ in range(args.repeat):
                _run_query(server.query, args, query)

        threads = [
            threading.Thread(target=run_client) for _ in range(args.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        warm_latency = server.stats.last_latency_s
        print(
            f"# {len(cold.matches)} match(es); cold "
            f"{cold_latency * 1000:.1f} ms -> warm "
            f"{warm_latency * 1000:.1f} ms modeled"
        )
        print(server.stats.describe(server.max_inflight))
        if args.telemetry or args.dashboard:
            snap = server.client.lake.snapshot()
            index_bytes = sum(
                record.size for record in server.client.meta.records()
            )
            hub.series("storage.data_bytes").set(snap.total_bytes)
            hub.series("storage.index_bytes").set(index_bytes)
    if recorder is not None:
        persisted = recorder.persist()
        key = SnapshotStore(store, root=args.obs).commit(
            hub,
            source="serve-bench",
            flights=[t.trace_id for t in recorder.traces()],
        )
        print(
            f"# flight recorder: {recorder.observed} observed, "
            f"{len(recorder)} retained, {persisted} persisted; "
            f"snapshot {key}",
            file=sys.stderr,
        )
    if args.telemetry:
        write_telemetry_json(args.telemetry, hub, source="serve-bench")
        print(f"# telemetry written to {args.telemetry}", file=sys.stderr)
    if args.dashboard:
        write_dashboard(
            args.dashboard, hub, source="serve-bench", flights=recorder
        )
        print(f"# dashboard written to {args.dashboard}", file=sys.stderr)
    return 0


def _durable(args) -> tuple[list, list[dict], dict]:
    """The bucket's durable telemetry, read once: readable flight
    traces (slowest first), readable snapshots (oldest first) and their
    fold. Says on stderr how many objects of each kind were skipped."""
    from repro.obs import fold_snapshots, load_flights, load_snapshots

    store = LocalFSObjectStore(args.root)
    flights, lost_flights = load_flights(store, root=args.obs)
    history, lost_snapshots = load_snapshots(store, root=args.obs)
    for lost, noun in ((lost_flights, "flight trace"), (lost_snapshots, "telemetry snapshot")):
        if lost:
            print(f"# skipped {lost} unreadable {noun}(s)", file=sys.stderr)
    return flights, history, fold_snapshots(history)


def cmd_dashboard(args) -> int:
    """Render the telemetry dashboard HTML from a snapshot file.

    With ``--root`` the durable telemetry plane joins in: retained
    flight traces (exemplar links), the folded crack heat map, and the
    snapshot history for the cross-run trend panel.
    """
    from repro.obs import load_telemetry_json, write_dashboard

    hub = load_telemetry_json(args.telemetry)
    flights = heat = history = None
    if args.root:
        from repro.crack.heat import HeatMap

        flights, history, folded = _durable(args)
        heat = HeatMap.from_dict(folded["heat"]) if folded["heat"] else None
    write_dashboard(
        args.out,
        hub,
        slo=_slo(args),
        source=args.telemetry,
        title=args.title,
        flights=flights,
        heat=heat,
        history=history,
    )
    print(f"dashboard written to {args.out}")
    return 0


def cmd_metrics(args) -> int:
    """Dump the process telemetry hub in Prometheus text format.

    With ``--root``/``--table`` the lake is opened first (and the
    index metadata replayed when ``--index-dir`` is given), so the
    storage-layer instruments have something to say; without them the
    command renders whatever this process already recorded. Exits 3
    when no instrument holds a single sample.
    """
    from repro.obs.metrics import get_registry, render

    if args.root and args.table:
        store, table = _open(args)
        table.snapshot()
        if args.index_dir:
            client = RottnestClient(store, args.index_dir, table)
            client.meta.records()
    text = render(get_registry())
    if not text:
        raise EmptyInput("empty input — no metric samples recorded")
    print(text, end="")
    return 0


def cmd_top(args) -> int:
    """Live-ops summary: burn rates, counters, slowest retained traces.

    The hub comes from ``--telemetry`` (a ``TELEMETRY_*.json`` file)
    or, with ``--root``, from folding the durable snapshot store;
    retained flight traces come from the store. Exits 3 when there is
    neither telemetry nor a single retained trace.
    """
    from repro.obs import TelemetryHub, load_telemetry_json

    hub = load_telemetry_json(args.telemetry) if args.telemetry else None
    flights = []
    if args.root:
        flights, _, folded = _durable(args)
        if hub is None and folded["hub"] is not None:
            hub = TelemetryHub.from_snapshot(folded["hub"])
    if hub is None and not flights:
        raise EmptyInput(
            "empty input — no telemetry snapshot and no retained flight traces"
        )
    if hub is not None:
        report = _slo(args).evaluate(hub)
        print("== burn rates ==")
        for status in report.statuses:
            marker = "ok    " if status.ok else "BREACH"
            print(
                f"{marker} {status.name:<16} long {status.burn.long_burn:6.2f}"
                f"  short {status.burn.short_burn:6.2f}  {status.detail}"
            )
        merged = hub.quantiles("serve.latency_s").merged()
        print("== counters ==")
        print(f"queries    {hub.series('serve.queries').count()}")
        print(f"degraded   {hub.series('serve.degraded').count()}")
        print(f"hedges     {hub.series('router.hedges').count()}")
        print(f"hedge wins {hub.series('router.hedge_wins').count()}")
        if merged.count:
            print(f"p50        {merged.quantile(0.5) * 1000:.2f} ms")
            print(f"p99        {merged.quantile(0.99) * 1000:.2f} ms")
    if flights:
        print(f"== slowest retained traces ({len(flights)}) ==")
        for flight in flights[: args.limit]:
            print(flight.describe())
    elif args.root:
        print("no retained flight traces")
    return 0


def cmd_traces(args) -> int:
    """Render one retained flight trace: span tree, bill, critical path."""
    from repro.obs import explain, load_flight

    store = LocalFSObjectStore(args.root)
    flight = load_flight(store, args.trace_id, root=args.obs)
    print(
        f"trace {flight.trace_id}  reason={flight.reason}  "
        f"{flight.latency_s * 1000:.2f} ms  slow_phase="
        f"{flight.slow_phase or '-'}  query={flight.query}"
    )
    print()
    print(explain(flight.root()))
    return 0


def cmd_slo_check(args) -> int:
    """Evaluate SLOs against a telemetry snapshot; exit 2 on breach."""
    from repro.obs import load_telemetry_json

    report = _slo(args).evaluate(load_telemetry_json(args.telemetry))
    print(report.describe())
    if report.total_events == 0:
        raise EmptyInput("telemetry contains no query events")
    return 0 if report.ok else 2


def cmd_profile(args) -> int:
    """Traced search(es): timeline, bill, critical path, reconciliation.

    With ``--repeat N`` the same query runs N times and the slowest
    trace (by modeled latency) is the one profiled — the timeline,
    bill, and critical path below describe the worst run, and the
    tail-attribution line compares it against the whole batch.
    """
    from repro.obs import (
        TailRecorder,
        Tracer,
        attribute,
        explain,
        price_iostats,
        tail_attribution,
        use_tracer,
        write_spans_jsonl,
    )
    from repro.storage.costs import CostModel
    from repro.storage.latency import LatencyModel

    client = _client(args)
    query = _build_query(args)
    tracer = Tracer()  # wall-clock spans; modeled time comes from the bill
    repeat = max(args.repeat, 1)
    before = client.store.stats.snapshot()
    with use_tracer(tracer):
        searcher = contextlib.nullcontext(client)
        if args.max_searchers > 0:
            from repro.serve.executor import SearchExecutor

            searcher = SearchExecutor(client, max_searchers=args.max_searchers)
        with searcher as runner:
            for _ in range(repeat):
                result = _run_query(runner.search, args, query)
    delta = client.store.stats.snapshot().delta(before)

    roots = [r for r in tracer.pop_finished() if r.name == "search"]
    if not roots:
        raise ReproError("search finished but recorded no span tree")
    latency, costs = LatencyModel(), CostModel()
    bills = [
        attribute(r, latency=latency, costs=costs, instance_type=args.instance)
        for r in roots
    ]
    slowest = max(range(len(bills)), key=lambda i: bills[i].est_latency_s)
    root = roots[slowest]
    print(explain(root, latency=latency, costs=costs, instance_type=args.instance))
    tail = TailRecorder()
    for i, bill in enumerate(bills):
        tail.record_bill(bill, bill.est_latency_s, at_s=float(i))
    print(tail_attribution(tail.samples()).headline())
    billed = sum(b.total_request_cost_usd(costs) for b in bills)
    reference = price_iostats(delta, costs)
    # Reconcile on the exact integer request/byte counts — the real
    # drift signal (an op outside any phase span) — rather than on the
    # float dollar totals, whose summation order differs between the
    # per-phase bills and the one-shot IOStats pricing.
    counts = ("gets", "puts", "lists", "heads", "deletes", "bytes_read", "bytes_written")
    attributed = [sum(getattr(b, n) for b in bills) for n in counts]
    observed = [getattr(delta, n) for n in counts]
    verdict = "exact" if attributed == observed else "MISMATCH"
    print(
        f"reconciliation: bill ${billed:.3e} vs IOStats delta "
        f"${reference:.3e} [{verdict}]"
    )
    print(f"# {len(result.matches)} match(es)", file=sys.stderr)
    if args.spans:
        write_spans_jsonl(args.spans, [root])
        print(f"# spans written to {args.spans}", file=sys.stderr)
    return 0 if verdict == "exact" else 2


def cmd_compact(args) -> int:
    client = _client(args)
    merged = compact_indices(
        client, args.column, args.type, threshold_bytes=args.threshold_bytes
    )
    print(f"compacted into {len(merged)} merged index file(s)")
    return 0


def cmd_vacuum(args) -> int:
    client = _client(args)
    snapshot_id = (
        args.snapshot_id if args.snapshot_id is not None else client.lake.latest_version()
    )
    report = vacuum_indices(client, snapshot_id=snapshot_id)
    print(
        f"kept {len(report.kept)} index file(s); deleted "
        f"{len(report.deleted_records)} record(s) and "
        f"{len(report.deleted_objects)} object(s)"
    )
    return 0


def cmd_fsck(args) -> int:
    client = _client(args)
    from repro.core.fsck import fsck

    report = fsck(client, verify_consistency=not args.fast)
    print(report.describe())
    return 0 if report.invariants_hold else 2


def cmd_chaos(args) -> int:
    """Seeded crash-fault fuzzing of the whole maintenance protocol.

    Runs entirely in memory against a simulated clock (no ``--root``):
    the subject is the protocol, not any particular bucket. Exit 0 on a
    clean run, 2 when an invariant was violated or a search disagreed
    with the oracle — the report then includes a replay command and the
    doomed operation's span timeline.
    """
    from repro.chaos import ChaosConfig, run_chaos

    report = run_chaos(
        ChaosConfig(
            ops=args.ops,
            seed=args.seed,
            clients=args.clients,
            crash_probability=args.crash_probability,
            verify_consistency=not args.fast,
        )
    )
    print(report.describe())
    return 0 if report.ok else 2


def cmd_maintain_bench(args) -> int:
    """Modeled scaling of the parallel maintenance pipeline.

    Runs entirely in memory against a simulated clock (no ``--root``):
    every worker count replays the same maintenance history on a clone
    of one store, and the printed latencies are modeled from the
    request traces. Exit 0 when the widest run clears the 2x modeled
    index speedup the pipeline is built for, 2 otherwise.
    """
    from repro.maintain.bench import run_maintain_bench

    if args.files <= 0 or args.rows <= 0:
        raise EmptyInput("nothing to benchmark (empty input)")
    workers = sorted(set(args.workers) | {1})
    result = run_maintain_bench(
        files=args.files, rows=args.rows, workers=tuple(workers)
    )
    print(result.describe())
    return 0 if result.index_speedup(max(workers)) >= 2.0 else 2


def cmd_shard_bench(args) -> int:
    """Modeled scaling of the sharded scatter-gather router.

    Runs entirely in memory against a simulated clock (no ``--root``):
    one uuid lake is materialized at each shard count, the same query
    stream is routed through every deployment, and a two-replica
    deployment with one injected slow node A/Bs the hedging policy.
    Exit 0 when scatter p50 stays ~flat across shard counts and hedging
    measurably cuts the slow-node p99, 2 otherwise.
    """
    from repro.shard.bench import run_shard_bench

    if args.files <= 0 or args.rows <= 0 or args.queries <= 0:
        raise EmptyInput("nothing to benchmark (empty input)")
    shards = tuple(sorted(set(args.shards) | {1}))
    result = run_shard_bench(
        files=args.files,
        rows=args.rows,
        shard_counts=shards,
        replicas=args.replicas,
        queries=args.queries,
        slow_factor=args.slow_factor,
    )
    print(result.describe())
    return 0 if result.ok else 2


def cmd_ingest_bench(args) -> int:
    """Modeled freshness of the real-time ingest tier.

    Runs entirely in memory against a simulated clock (no ``--root``):
    writers and readers interleave, every acked batch is immediately
    probed (the freshness invariant as recall), periodic drains hand
    rows to the lake, and the drainer's own lag measurements feed the
    gate. Exit 0 when every probe hit and the freshness-lag p99 stays
    within ``--max-lag-s``, 2 otherwise, 3 when there is nothing to
    benchmark.
    """
    from repro.ingest.bench import run_ingest_bench

    if args.batches <= 0 or args.rows <= 0:
        raise EmptyInput("nothing to benchmark (empty input)")
    result = run_ingest_bench(
        batches=args.batches,
        rows=args.rows,
        drain_every=args.drain_every,
        interval_s=args.interval_s,
        probes_per_batch=args.probes,
        max_lag_s=args.max_lag_s,
    )
    print(result.describe())
    return 0 if result.ok else 2


def cmd_crack_bench(args) -> int:
    """Cracked-vs-eager-vs-lazy comparison on a Zipf workload.

    Runs entirely in memory against a simulated clock (no ``--root``):
    the same skewed query trace plays against a fully-eager build, a
    never-indexed lake, and the cracking controller. Exit 0 when the
    cracked deployment spends no more build IO than eager while keeping
    hot-query p50 within ``--p50-budget`` of eager's (and ahead of
    lazy), 2 otherwise, 3 when there is nothing to benchmark.
    """
    from repro.crack.bench import run_crack_bench

    if min(args.files, args.rows, args.ticks, args.queries) <= 0:
        raise EmptyInput("nothing to benchmark (empty input)")
    result = run_crack_bench(
        files=args.files,
        rows=args.rows,
        ticks=args.ticks,
        queries_per_tick=args.queries,
        zipf_s=args.zipf_s,
        hotness_floor=args.hotness_floor,
        p50_budget_ratio=args.p50_budget,
        seed=args.seed,
    )
    print(result.describe())
    return 0 if result.ok else 2


def cmd_info(args) -> int:
    store, lake = _open(args)
    snap = lake.snapshot()
    print(f"table:     {args.table}")
    print(f"version:   {snap.version}")
    print(f"columns:   {', '.join(snap.schema.names)}")
    print(f"files:     {len(snap.files)}")
    print(f"rows:      {snap.num_rows}")
    print(f"bytes:     {snap.total_bytes}")
    print(f"deletions: {len(snap.deletion_vectors)} file(s) with vectors")
    if args.index_dir:
        client = RottnestClient(store, args.index_dir, lake)
        for record in client.meta.records():
            print(
                f"index:     {record.index_type} on {record.column} "
                f"covering {len(record.covered_files)} file(s) "
                f"[{record.size} bytes]"
            )
    return 0


def _query_flags(p) -> None:
    p.add_argument("--column", required=True)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--uuid", help="hex key")
    p.add_argument("--substring")
    p.add_argument("--regex")
    p.add_argument("--vector", help="JSON array of floats")
    p.add_argument(
        "--range", nargs=2, metavar=("LO", "HI"),
        help="inclusive range, JSON values (e.g. 100 200 or '\"a\"' '\"b\"')",
    )
    p.add_argument("--nprobe", type=int, default=8)
    p.add_argument("--refine", type=int, default=100)
    p.add_argument("--partition", help="restrict to one partition")


def _obs_flag(p) -> None:
    p.add_argument(
        "--obs", default="obs",
        help="root key for durable telemetry (flights + snapshots)",
    )


def _telemetry_flag(p, *, required: bool) -> None:
    p.add_argument(
        "--telemetry", required=required,
        help="TELEMETRY_*.json snapshot (serve-bench --telemetry)",
    )


def _slo_flags(p) -> None:
    p.add_argument(
        "--latency-p99-s", type=float, default=1.0,
        help="p99 modeled-latency objective in seconds",
    )
    p.add_argument(
        "--availability", type=float, default=0.999,
        help="fraction of queries that must complete undegraded",
    )
    p.add_argument(
        "--cost-per-query", type=float, default=5e-3,
        help="observed serve dollars per query budget",
    )


def _slo(args):
    """The SLO :func:`_slo_flags` asked for."""
    from repro.obs.slo import default_slo

    return default_slo(
        latency_p99_s=args.latency_p99_s,
        availability=args.availability,
        cost_usd_per_query=args.cost_per_query,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Rottnest data-lake search (reproduction)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, index_dir_required=False):
        p.add_argument("--root", required=True, help="bucket directory")
        p.add_argument("--table", required=True, help="table root key")
        p.add_argument(
            "--index-dir",
            required=index_dir_required,
            help="Rottnest index root key",
        )


    p = sub.add_parser("create-table", help="create an empty lake table")
    p.add_argument("--root", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--schema", required=True, help="name:type[:dim],...")
    p.add_argument("--row-group-rows", type=int, default=50_000)
    p.add_argument("--page-target-bytes", type=int, default=1 << 20)
    p.set_defaults(func=cmd_create_table)

    p = sub.add_parser("append", help="append JSONL rows")
    common(p)
    p.add_argument("--jsonl", required=True, help="path or - for stdin")
    p.set_defaults(func=cmd_append)

    p = sub.add_parser("index", help="build/refresh an index on a column")
    common(p, index_dir_required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--type", required=True, help="uuid_trie|bloom|fm|ivf_pq")
    p.add_argument("--param", action="append", help="key=json, repeatable")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="search a column")
    common(p, index_dir_required=True)
    _query_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "serve-bench",
        help="repeated-query serving benchmark (cache + concurrency)",
    )
    common(p, index_dir_required=True)
    _query_flags(p)
    p.add_argument("--repeat", type=int, default=4, help="queries per client")
    p.add_argument("--clients", type=int, default=2, help="concurrent clients")
    p.add_argument("--max-searchers", type=int, default=4)
    p.add_argument("--cache-mb", type=int, default=64)
    p.add_argument(
        "--warmup", action="store_true",
        help="pre-load metadata and index roots before the cold query",
    )
    p.add_argument(
        "--telemetry",
        help="write a TELEMETRY_*.json hub snapshot here after the run",
    )
    p.add_argument(
        "--dashboard",
        help="also render the HTML dashboard for this run here",
    )
    p.add_argument(
        "--flight", action="store_true",
        help="run the tail-sampling flight recorder and persist retained "
        "traces + a telemetry snapshot into the bucket",
    )
    _obs_flag(p)
    _slo_flags(p)
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "profile",
        help="trace one search and print its attributed cost/latency bill",
    )
    common(p, index_dir_required=True)
    _query_flags(p)
    p.add_argument(
        "--max-searchers", type=int, default=0,
        help="profile through the concurrent executor (0 = sequential client)",
    )
    p.add_argument(
        "--instance", default="c6i.2xlarge",
        help="instance type compute time is priced against",
    )
    p.add_argument(
        "--repeat", type=int, default=1,
        help="run the query N times and profile the slowest",
    )
    p.add_argument("--spans", help="also dump the span tree as JSONL here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("compact", help="merge small index files")
    common(p, index_dir_required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--threshold-bytes", type=int, default=16 << 20)
    p.set_defaults(func=cmd_compact)

    p = sub.add_parser("vacuum", help="garbage-collect index files")
    common(p, index_dir_required=True)
    p.add_argument("--snapshot-id", type=int, default=None)
    p.set_defaults(func=cmd_vacuum)

    p = sub.add_parser(
        "chaos",
        help="crash-fault fuzz the maintenance protocol (in-memory)",
    )
    p.add_argument("--ops", type=int, default=200, help="protocol steps")
    p.add_argument("--seed", type=int, default=0, help="replayable RNG seed")
    p.add_argument("--clients", type=int, default=3, help="simulated clients")
    p.add_argument(
        "--crash-probability", type=float, default=0.6,
        help="chance each maintenance op gets a crash armed",
    )
    p.add_argument(
        "--fast", action="store_true",
        help="existence-only invariant audits (skip page-table checks)",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "maintain-bench",
        help="modeled scaling of parallel index build + compaction "
        "(in-memory)",
    )
    p.add_argument(
        "--files", type=int, default=40, help="lake files to index"
    )
    p.add_argument("--rows", type=int, default=32, help="rows per file")
    p.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4],
        help="worker counts to compare (1 is always included)",
    )
    p.set_defaults(func=cmd_maintain_bench)

    p = sub.add_parser(
        "shard-bench",
        help="modeled scaling of the sharded scatter-gather router "
        "(in-memory)",
    )
    p.add_argument(
        "--files", type=int, default=8, help="source lake files to shard"
    )
    p.add_argument("--rows", type=int, default=64, help="rows per file")
    p.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8],
        help="shard counts to compare (1 is always included)",
    )
    p.add_argument(
        "--replicas", type=int, default=2,
        help="replicas per shard in the hedging phase",
    )
    p.add_argument(
        "--queries", type=int, default=24, help="measured queries per phase"
    )
    p.add_argument(
        "--slow-factor", type=float, default=8.0,
        help="latency multiplier of the injected slow node",
    )
    p.set_defaults(func=cmd_shard_bench)

    p = sub.add_parser(
        "ingest-bench",
        help="modeled freshness of the real-time ingest tier (in-memory)",
    )
    p.add_argument(
        "--batches", type=int, default=12, help="ingest batches to write"
    )
    p.add_argument("--rows", type=int, default=24, help="rows per batch")
    p.add_argument(
        "--drain-every", type=int, default=4,
        help="batches between background drains",
    )
    p.add_argument(
        "--interval-s", type=float, default=5.0,
        help="modeled seconds between batches",
    )
    p.add_argument(
        "--probes", type=int, default=4,
        help="fresh probes per batch (each checks a just-acked row)",
    )
    p.add_argument(
        "--max-lag-s", type=float, default=45.0,
        help="freshness-lag p99 budget the gate enforces",
    )
    p.set_defaults(func=cmd_ingest_bench)

    p = sub.add_parser(
        "crack-bench",
        help="cracked vs eager vs lazy on a Zipf workload (in-memory)",
    )
    p.add_argument(
        "--files", type=int, default=8, help="lake files (Zipf ranks)"
    )
    p.add_argument("--rows", type=int, default=200, help="rows per file")
    p.add_argument(
        "--ticks", type=int, default=8, help="controller ticks to run"
    )
    p.add_argument(
        "--queries", type=int, default=10, help="queries per tick"
    )
    p.add_argument(
        "--zipf-s", type=float, default=1.1,
        help="Zipf skew of the query trace over files",
    )
    p.add_argument(
        "--hotness-floor", type=float, default=6.0,
        help="decayed heat a file needs before the controller indexes it",
    )
    p.add_argument(
        "--p50-budget", type=float, default=1.3,
        help="max cracked/eager hot-query p50 ratio the gate allows",
    )
    p.add_argument("--seed", type=int, default=23, help="workload seed")
    p.set_defaults(func=cmd_crack_bench)

    p = sub.add_parser(
        "dashboard",
        help="render the telemetry dashboard HTML from a snapshot",
    )
    _telemetry_flag(p, required=True)
    p.add_argument("--out", required=True, help="output HTML path")
    p.add_argument("--title", default="Rottnest deployment dashboard")
    p.add_argument(
        "--root",
        help="bucket directory holding durable telemetry (adds the "
        "retained-traces, heat-map, and cross-run trend panels)",
    )
    _obs_flag(p)
    _slo_flags(p)
    p.set_defaults(func=cmd_dashboard)

    p = sub.add_parser(
        "metrics",
        help="dump the process telemetry hub as Prometheus text "
        "(exit 3 when no samples)",
    )
    p.add_argument("--root", help="bucket directory (opens the lake first)")
    p.add_argument("--table", help="table root key")
    p.add_argument("--index-dir", help="Rottnest index root key")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "top",
        help="live-ops summary: SLO burn rates, counters, slowest "
        "retained traces (exit 3 when empty)",
    )
    _telemetry_flag(p, required=False)
    p.add_argument(
        "--root",
        help="bucket directory holding durable telemetry",
    )
    _obs_flag(p)
    p.add_argument("--limit", type=int, default=10, help="traces to show")
    _slo_flags(p)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "traces",
        help="render one retained flight trace (span tree + cost bill)",
    )
    p.add_argument("trace_id", help="trace id or unique prefix")
    p.add_argument("--root", required=True, help="bucket directory")
    _obs_flag(p)
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser(
        "slo-check",
        help="evaluate SLO burn rates against a telemetry snapshot "
        "(exit 2 on breach, 3 on empty telemetry)",
    )
    _telemetry_flag(p, required=True)
    _slo_flags(p)
    p.set_defaults(func=cmd_slo_check)

    p = sub.add_parser("info", help="table + index summary")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("fsck", help="audit index integrity invariants")
    common(p, index_dir_required=True)
    p.add_argument(
        "--fast", action="store_true",
        help="existence checks only (skip page-table verification)",
    )
    p.set_defaults(func=cmd_fsck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # The one exit contract: a verb returns 0 or its own check's 2;
        # nothing to work on exits 3, any other library error 1.
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EmptyInput) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
