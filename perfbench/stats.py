"""Pure arithmetic of the benchmark: percentiles, schedules, the rate ladder.

Nothing here touches the archive or the network, so every rule the
benchmark reports by is unit-tested on its own (``perfbench/tests``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

#: Latency recorded for an operation that failed, was refused, expired or
#: returned wrong bytes: it misses every latency limit.
FAILED = math.inf


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 < q <= 1``) of ascending values, nearest rank."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank ``q``."""
    return count - max(1, math.ceil(q * count))


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which ``q`` has ``beyond`` samples past it."""
    count = beyond + 1
    while samples_beyond(count, q) < beyond:
        count += 1
    return count


@dataclass(frozen=True)
class Percentile:
    """A reported percentile: its value and the sample count behind it."""

    q: float
    value: float
    count: int


def percentile(values: Sequence[float], q: float, beyond: int = MIN_BEYOND) -> Percentile:
    """Nearest-rank percentile that refuses to report from too few samples.

    ``values`` may contain :data:`FAILED` entries; they sort last, so a
    failure can only push a percentile up.  Raises ``ValueError`` when
    fewer than ``beyond`` samples would lie beyond the percentile.
    """
    count = len(values)
    if samples_beyond(count, q) < beyond:
        raise ValueError(
            f"p{q * 100:g} needs {min_samples(q, beyond)} samples "
            f"({beyond} beyond it); got {count}"
        )
    return Percentile(q, nearest_rank(sorted(values), q), count)


def poisson_arrivals(rng: random.Random, rate: float, count: int) -> List[float]:
    """``count`` Poisson arrival offsets (seconds from the phase start)."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    clock = 0.0
    arrivals = []
    for _ in range(count):
        clock += rng.expovariate(rate)
        arrivals.append(clock)
    return arrivals


def mixed_schedule(
    rng: random.Random,
    rate: float,
    kinds: Sequence[str],
    min_each: int,
    min_seconds: float,
) -> List[Tuple[float, str]]:
    """Poisson arrivals, each an equally likely one of ``kinds``.

    Arrivals continue until the phase has lasted ``min_seconds`` and every
    kind has at least ``min_each`` operations, so each kind's percentile
    has the samples it needs.
    """
    counts = {kind: 0 for kind in kinds}
    clock = 0.0
    schedule: List[Tuple[float, str]] = []
    while clock < min_seconds or min(counts.values()) < min_each:
        clock += rng.expovariate(rate)
        kind = kinds[rng.randrange(len(kinds))]
        counts[kind] += 1
        schedule.append((clock, kind))
    return schedule


@dataclass(frozen=True)
class LadderStep:
    """Outcome of one fixed offered rate of the ``max_rps`` ladder."""

    offered_rps: float
    achieved_rps: float
    p99_ms: float
    count: int
    failed: int
    scheduled_rps: Optional[float] = None

    def passes(self, limit_ms: float, min_share: float = 0.95) -> bool:
        """p99 within the limit, nothing failed, no growing backlog.

        The backlog test compares completions per second with the rate
        the step's own Poisson schedule offered (``scheduled_rps``), not
        the nominal rate: a short step's realised rate is a few percent
        off nominal by chance alone.
        """
        offered = self.offered_rps if self.scheduled_rps is None else self.scheduled_rps
        return (
            self.failed == 0
            and self.p99_ms <= limit_ms  # FAILED (inf) never meets a limit
            and self.achieved_rps >= min_share * offered
        )


def max_rps(steps: Sequence[LadderStep], limit_ms: float) -> Optional[LadderStep]:
    """The highest step of an ascending ladder below the first failing step.

    Steps above a failing one do not count even if they pass: past the
    knee a pass is luck, not capacity.  ``None`` when the first step fails.
    """
    best = None
    for step in steps:
        if not step.passes(limit_ms):
            break
        best = step
    return best


def achieved_rate(count: int, first_arrival: float, last_completion: float) -> float:
    """Completions per second over the span the phase actually took."""
    elapsed = last_completion - first_arrival
    return count / elapsed if elapsed > 0 else math.inf
