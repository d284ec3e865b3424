"""Benchmark entry point.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root.  Prints the report, then, as the last line
of standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  Exits 1
when any output was wrong, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("ingest", "get-uniform", "serve-mixed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # A terminated run still stops its server: SystemExit unwinds every
    # ``with ServerProcess(...)`` on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    # numpy asks for transparent huge pages on large arrays, and the
    # kernel's khugepaged may then back untouched parts of them, depending
    # on when its scan passes: one seed's ingest build peaked at ~214 or
    # ~230 MB from run to run.  Set before numpy is imported, here or in a
    # child process.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from perfbench.report import Report, provenance
    from perfbench.workloads import WORKLOADS as RUNNERS, Run

    report = Report()
    header = provenance(ROOT, SRC, args.workload, args.seed, args.seconds, bool(args.trace))
    for key, value in header.items():
        report.note(f"info  {key:42} {value}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(ROOT, SRC, work, args.seed, args.seconds, bool(args.trace), report)
    try:
        RUNNERS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report.note(f"info  {'operations':42} {report.attempted} attempted, {report.failed} failed, "
                f"{report.mismatches} wrong")
    if run.tracer is not None:
        spans = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        run.tracer.write(spans, dict(header, valid=report.valid))
        report.note(f"info  {'spans':42} {len(run.tracer.spans)} written to {spans.relative_to(ROOT)}")
    section = "per_layer" if args.trace else "end_to_end"
    names = [(metric["name"], metric["unit"]) for metric in spec[section]]
    result = report.result(names, per_layer=bool(args.trace))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
