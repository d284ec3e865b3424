"""What one run measured: metrics, operation counts and provenance."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: JSON has no infinity; a percentile that lands on a failed operation
#: (latency FAILED) is reported as this many of its unit.
UNREPORTABLE = 1e9


class Report:
    """Collects a run's metrics and prints the human-readable report.

    End-to-end and per-layer metrics are kept apart; either may hold more
    than ``BENCHMARK.json`` lists (those extras appear only in the printed
    report).  ``attempted``/``failed`` count operations: requests, scans
    and build comparisons.  ``mismatches`` counts wrong bytes, which make
    the run incorrect.
    """

    def __init__(self) -> None:
        self.end_to_end: Dict[str, Tuple[float, str]] = {}
        self.per_layer: Dict[str, Tuple[float, str]] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0
        self.valid = True

    def note(self, text: str) -> None:
        print(text, flush=True)

    def _put(self, table: Dict, kind: str, name: str, value: float, unit: str, detail: str) -> None:
        table[name] = (float(value), unit)
        shown = f"{value:.6g}" if math.isfinite(value) else "inf"
        self.note(f"{kind:5} {name:42} {shown:>12} {unit:7} {detail}".rstrip())

    def metric(self, name: str, value: float, unit: str, detail: str = "") -> None:
        """Record an end-to-end metric."""
        self._put(self.end_to_end, "e2e", name, value, unit, detail)

    def layer(self, name: str, value: float, unit: str, detail: str = "") -> None:
        """Record a per-layer metric."""
        self._put(self.per_layer, "layer", name, value, unit, detail)

    def count(self, attempted: int, failed: int = 0, mismatches: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed
        self.mismatches += mismatches

    def invalidate(self, reason: str) -> None:
        self.valid = False
        self.note(f"RUN INVALID: {reason}")

    def result(self, names: List[Tuple[str, str]], per_layer: bool) -> Dict:
        """The final JSON object over the metrics ``names`` (name, unit)."""
        table = self.per_layer if per_layer else self.end_to_end
        missing = [name for name, _unit in names if name not in table]
        if missing:
            raise KeyError(f"metrics listed in BENCHMARK.json were not measured: {missing}")
        metrics = {}
        for name, unit in names:
            value, measured_unit = table[name]
            if measured_unit != unit:
                raise ValueError(f"{name}: measured in {measured_unit}, listed in {unit}")
            metrics[name] = {
                "value": value if math.isfinite(value) else UNREPORTABLE,
                "unit": unit,
            }
        return {
            "correct": self.mismatches == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }


def _git_revision(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tree_digest(src: Path) -> str:
    """SHA-1 over every Python file under ``src``: the revision when git is absent."""
    digest = hashlib.sha1()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, src: Path, workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    """Everything a result needs to be compared with another run."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_revision": _git_revision(root),
        "src_sha1": _tree_digest(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of ``pid`` (default: this process), MB."""
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM missing from /proc status")
