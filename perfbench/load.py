"""Open-loop load from one process over one multiplexed connection.

Every operation is launched at its scheduled arrival whether or not
earlier ones have completed, and its latency is measured from that
scheduled arrival, so a stall is charged to every request it delays.  A
failed, refused, expired or wrong-byte operation is recorded with latency
:data:`perfbench.stats.FAILED`, which misses every limit.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from .stats import FAILED


@dataclass
class Outcome:
    """What happened to one scheduled operation."""

    kind: str
    latency: float  # seconds from scheduled arrival; FAILED when not ok
    lag: float  # seconds the send ran behind its schedule
    ok: bool
    mismatch: bool = False


@dataclass
class Phase:
    """All outcomes of one open-loop phase, plus server-side samples."""

    outcomes: List[Outcome]
    first_arrival: float
    last_arrival: float
    last_completion: float
    waiting_max: int = 0

    def of(self, kind: str) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.kind == kind]

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def mismatches(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.mismatch)


def settle() -> None:
    """Collect, then freeze every object alive now out of the cyclic GC.

    Called before each timed section in this process.  The corpus, the
    reference index and the other inputs the benchmark holds would
    otherwise be traversed by every full collection the measured code
    triggers, making its timings depend on the benchmark's own heap.
    """
    gc.collect()
    gc.freeze()


Call = Callable[[int], Awaitable[object]]
Check = Callable[[int, object], bool]


async def _sample_waiting(
    stats: Callable[[], Awaitable[Dict[str, float]]],
    into: List[int],
    stop: asyncio.Event,
    errors: Tuple[type, ...],
) -> None:
    """Poll the server's gate depth every 250 ms until ``stop`` is set.

    Stopped by an event, not by cancellation: ``asyncio.wait_for`` inside
    the client can swallow a cancel that races with its reply, which
    would leave a ``while True`` poller running forever.
    """
    while True:
        try:
            await asyncio.wait_for(stop.wait(), 0.25)
            return
        except asyncio.TimeoutError:
            pass
        try:
            snapshot = await stats()
        except errors:
            continue
        into.append(
            int(
                max(
                    (
                        value
                        for key, value in snapshot.items()
                        if key.startswith("archive_") and key.endswith("_waiting")
                    ),
                    default=0,
                )
            )
        )


async def open_loop(
    schedule: Sequence[Tuple[float, str]],
    call: Call,
    check: Check,
    errors: Tuple[type, ...],
    stats: Optional[Callable[[], Awaitable[Dict[str, float]]]] = None,
    drain_timeout: float = 60.0,
) -> Phase:
    """Run ``schedule`` (``(offset_seconds, kind)`` pairs) open loop.

    ``call(i)`` performs operation ``i``; ``check(i, result)`` says whether
    its bytes are right.  ``errors`` are the exception types that count as
    a failed operation; anything else propagates.  ``stats`` (optional)
    is polled for the server gate depth while the phase runs.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(schedule)
    loop = asyncio.get_running_loop()

    async def fire(index: int, scheduled: float) -> None:
        kind = schedule[index][1]
        sent = time.perf_counter()
        try:
            result = await call(index)
        except errors:
            outcomes[index] = Outcome(kind, FAILED, sent - scheduled, False)
            return
        done = time.perf_counter()
        if check(index, result):
            outcomes[index] = Outcome(kind, done - scheduled, sent - scheduled, True)
        else:
            outcomes[index] = Outcome(kind, FAILED, sent - scheduled, False, mismatch=True)

    waiting: List[int] = []
    stop = asyncio.Event()
    sampler = loop.create_task(_sample_waiting(stats, waiting, stop, errors)) if stats else None
    tasks: List[asyncio.Task] = []
    start = time.perf_counter() + 0.005
    try:
        for index, (offset, _kind) in enumerate(schedule):
            scheduled = start + offset
            delay = scheduled - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(loop.create_task(fire(index, scheduled)))
        await asyncio.wait_for(asyncio.gather(*tasks), drain_timeout)
    finally:
        stop.set()
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if sampler is not None:
            await sampler
    end = time.perf_counter()
    finished = [outcome for outcome in outcomes if outcome is not None]
    if len(finished) != len(schedule):
        raise RuntimeError("open-loop phase ended with operations unaccounted for")
    return Phase(
        outcomes=finished,
        first_arrival=start + schedule[0][0],
        last_arrival=start + schedule[-1][0],
        last_completion=end,
        waiting_max=max(waiting, default=0),
    )

