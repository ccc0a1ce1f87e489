"""Protocol overhead audit: object-store requests per API call.

The paper's pitch is that the protocol is *lightweight*: indexing adds
one PUT + one metadata commit on top of reading the new data; search
adds a handful of GETs; vacuum is the only LIST-heavy call and is
explicitly expected to be infrequent (§IV-C). This bench counts actual
requests per call so the claim is auditable, and prices the protocol's
S3 request costs to confirm they are "eclipsed by compute resource
costs" (§VI footnote on ``ic_r``).
"""


from repro.core.client import RottnestClient
from repro.core.maintenance import compact_indices, vacuum_indices
from repro.core.queries import UuidQuery
from repro.formats.schema import ColumnType, Field, Schema
from repro.lake.table import LakeTable, TableConfig, seeded_entropy
from repro.storage.costs import CostModel
from repro.storage.object_store import InMemoryObjectStore
from repro.util.clock import SimClock
from repro.workloads.uuids import UuidWorkload

from benchmarks.common import write_result


def test_protocol_request_budget(benchmark):
    store = InMemoryObjectStore(clock=SimClock())
    schema = Schema.of(Field("uuid", ColumnType.BINARY))
    lake = LakeTable.create(
        store, "lake/p", schema,
        TableConfig(row_group_rows=4000, page_target_bytes=32 * 1024),
        entropy=seeded_entropy(0),
    )
    gen = UuidWorkload(seed=0, nbytes=128)
    client = RottnestClient(store, "idx/p", lake)
    costs = CostModel()

    budgets = {}

    def measure(label, fn):
        before = store.stats.snapshot()
        result = fn()
        delta = store.stats.delta(before)
        budgets[label] = delta
        return result

    measure("append 5k rows", lambda: lake.append({"uuid": gen.batch(5000)}))
    measure("index (first)", lambda: client.index("uuid", "uuid_trie"))
    lake.append({"uuid": gen.batch(5000)})
    measure("index (incremental)", lambda: client.index("uuid", "uuid_trie"))
    key = gen.present_queries(1)[0]
    measure("search (hit)", lambda: client.search("uuid", UuidQuery(key), k=5))
    measure(
        "search (miss)",
        lambda: client.search("uuid", UuidQuery(gen.absent_queries(1)[0]), k=5),
    )
    measure("compact", lambda: compact_indices(client, "uuid", "uuid_trie"))
    measure(
        "vacuum",
        lambda: vacuum_indices(client, snapshot_id=lake.latest_version()),
    )
    benchmark(lambda: client.search("uuid", UuidQuery(key), k=5))

    lines = [
        "=== Protocol request budget (per API call) ===",
        f"{'call':>20} | {'GET':>5} | {'PUT':>4} | {'LIST':>4} | "
        f"{'DEL':>4} | {'HEAD':>4} | {'$ requests':>10}",
    ]
    for label, d in budgets.items():
        dollars = costs.request_cost(
            gets=d.gets, puts=d.puts, lists=d.lists, heads=d.heads
        )
        lines.append(
            f"{label:>20} | {d.gets:>5} | {d.puts:>4} | {d.lists:>4} | "
            f"{d.deletes:>4} | {d.heads:>4} | ${dollars:.2e}"
        )
    text = "\n".join(lines)
    print(text)
    write_result("protocol_overhead.txt", text)

    # The lightweight-protocol claims, as assertions:
    # indexing writes exactly the index file + one metadata commit
    # (checkpoint commits excluded at this cadence).
    assert budgets["index (incremental)"].puts <= 3
    # search is a handful of requests, no LISTs beyond log discovery.
    assert budgets["search (hit)"].gets <= 25
    assert budgets["search (hit)"].deletes == 0
    # vacuum is the only deliberately LIST-heavy call.
    assert budgets["vacuum"].lists >= 1
    # Request dollars are negligible vs compute (§VI): << $0.01/query.
    hit = budgets["search (hit)"]
    assert costs.request_cost(
        gets=hit.gets, lists=hit.lists, heads=hit.heads
    ) < 1e-4
