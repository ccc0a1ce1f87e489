"""Partitioned timeline: structured filters + a maintenance daemon.

The paper's normalized-query argument (§VI): when queries carry a
structured filter (here, a month), Rottnest indexes partitions
separately and a scoped search touches only the relevant slice — cost
scales with the fraction of data addressed, not the whole lake. The
script also runs the :class:`MaintenanceDaemon`, showing the zero-ops
deployment story: appends land, a cron-style tick keeps everything
indexed, compacted, and garbage-collected.

Run: ``python examples/partitioned_timeline.py``
"""

from repro import (
    ColumnType,
    Field,
    InMemoryObjectStore,
    LakeTable,
    RangeQuery,
    RottnestClient,
    Schema,
    TableConfig,
    UuidQuery,
)
from repro.core.daemon import MaintenanceDaemon, MaintenancePolicy
from repro.workloads.uuids import UuidWorkload


def main() -> None:
    store = InMemoryObjectStore()
    schema = Schema.of(
        Field("ts", ColumnType.INT64),
        Field("trace_id", ColumnType.BINARY),
        Field("span", ColumnType.STRING),
    )
    lake = LakeTable.create(
        store, "lake/traces", schema,
        TableConfig(row_group_rows=1000, page_target_bytes=8 * 1024),
    )
    client = RottnestClient(store, "indices/traces", lake)
    daemon = MaintenanceDaemon(
        client,
        [("trace_id", "uuid_trie"), ("ts", "minmax")],
        policy=MaintenancePolicy(compact_min_small_files=3,
                                 vacuum_interval_s=0.0),
    )
    ids = UuidWorkload(seed=0)

    # Six months of ingestion; the daemon ticks after each batch.
    months = [f"2026-{m:02d}" for m in range(1, 7)]
    ts = 0
    for month in months:
        batch_ids = ids.batch(2000)
        lake.append(
            {
                "ts": list(range(ts, ts + 2000)),
                "trace_id": batch_ids,
                "span": [f"{month} span {i}" for i in range(2000)],
            },
            partition=month,
        )
        ts += 2000
        store.clock.advance(30 * 24 * 3600)
        report = daemon.tick()
        print(
            f"{month}: indexed {len(report.indexed)}, "
            f"compacted {len(report.compacted)}, "
            f"vacuumed {len(report.vacuum.deleted_records) if report.vacuum else 0}"
        )

    # Structured filter: a trace lookup scoped to one month.
    target = ids.present_queries(1)[0]
    unscoped = client.search("trace_id", UuidQuery(target), k=5)
    month = LakeTable.partition_of(unscoped.matches[0].file)
    plan_all = client.explain("trace_id", UuidQuery(target))
    plan_one = client.explain(
        "trace_id", UuidQuery(target), partition=month
    )
    print()
    print("unscoped plan:")
    print(plan_all.describe())
    print(f"scoped to {month}:")
    print(plan_one.describe())

    # Range scan on the sorted timestamp column via zone maps.
    res = client.search("ts", RangeQuery(4100, 4120), k=100)
    print(
        f"\nrange ts in [4100, 4120]: {len(res.matches)} rows, "
        f"{res.stats.pages_probed} page(s) probed "
        f"out of a {lake.snapshot().num_rows}-row lake"
    )


if __name__ == "__main__":
    main()
