"""End-to-end and per-layer benchmark of the RLZ archive and its server.

Run ``python3 perfbench/run.py --workload <ingest|get-uniform|serve-mixed>
--seed N --seconds S --trace <0|1>`` from the repository root.  The last
line of standard output is one JSON object with the run's metrics; the
lines above it are the human-readable report.  ``BENCHMARK.json`` at the
repository root lists the workloads and metrics.
"""
