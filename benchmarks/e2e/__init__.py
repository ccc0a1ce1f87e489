"""The two-clock, per-layer end-to-end benchmark (see README.md).

Four workloads — ``cold_search``, ``hot_serve``, ``build_maintain``,
``ingest_mixed`` — drive the public API of ``repro`` on an in-memory
object store. Every number is taken on two clocks (wall = the program's
CPU, modeled = ``LatencyModel`` over the recorded request trace), every
answer is checked against an oracle computed from the generated data,
and a traced pass breaks the wall clock down per layer from outside.

``run.py`` is the one-workload entry the driver calls (the contract in
``BENCHMARK.json``); ``python -m benchmarks.e2e`` runs all four.
"""
