"""The three workloads: ``ingest``, ``get-uniform`` and ``serve-mixed``.

Every input comes from the ``repro.corpus`` generators and the run's
seed.  Serving workloads put the archive behind ``repro serve`` in a child
process and drive it open loop from this process over one multiplexed
``AsyncRlzClient`` connection; nothing else runs here while they measure.
``--trace 1`` adds the traced phase (:mod:`perfbench.layers`) after the
untraced measurements.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from statistics import median
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import ArchiveConfig, DictionarySpec, EncodingSpec, RlzArchive, SearchSpec
from repro.corpus import generate_gov_collection, generate_wikipedia_collection
from repro.corpus.document import DocumentCollection
from repro.errors import ReproError
from repro.search import generate_queries
from repro.search.access_patterns import query_log_pattern
from repro.search.serving import PostingsStore, index_sidecar_path, write_postings
from repro.serve import AsyncRlzClient

from . import layers
from .layers import GET_MANY_SIZE, SEARCH_TOP_K, SNIPPET_CHARS, verify_search
from .load import Outcome, Phase, open_loop, settle
from .report import Report, peak_rss_mb
from .server import ServerProcess, separate_cpus
from .trace import Tracer
from .stats import (
    FAILED,
    LadderStep,
    achieved_rate,
    max_rps,
    min_samples,
    mixed_schedule,
    percentile,
    poisson_arrivals,
)

MB = 1e6
#: Exceptions that make an operation *failed* (refused, expired, dropped).
OPERATION_ERRORS = (ReproError, OSError, asyncio.TimeoutError)
#: Samples each reported p99 needs (10 beyond it).
P99_SAMPLES = min_samples(0.99)
#: A run whose generator sent its nominal-phase p99 later than this
#: (milliseconds behind schedule) is flagged invalid: the load it offered
#: was not the load it claims.  A fifth of the tightest latency limit.
LAG_BOUND_MS = 10.0


@dataclass
class Run:
    """One run's settings and shared state."""

    root: Path
    src: Path
    work: Path
    seed: int
    seconds: int
    trace: bool
    report: Report
    tracer: Optional[Tracer] = None

    def rng(self, purpose: str) -> random.Random:
        """A generator for one purpose, fixed by the seed alone."""
        return random.Random(f"{self.seed}:{purpose}")


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def gov_corpus(seed: int) -> DocumentCollection:
    return generate_gov_collection(num_documents=600, target_document_size=18 * 1024, seed=seed)


def wiki_corpus(seed: int) -> DocumentCollection:
    return generate_wikipedia_collection(
        num_documents=250, target_document_size=51 * 1024, seed=seed
    )


def archive_config(dictionary_bytes: int, search: bool = False) -> ArchiveConfig:
    return ArchiveConfig(
        dictionary=DictionarySpec(size=dictionary_bytes),
        encoding=EncodingSpec(scheme="ZZ"),
        search=SearchSpec(enabled=search),
    )


def timed_build(collection: DocumentCollection, config: ArchiveConfig, path: Path) -> float:
    """Seconds ``RlzArchive.build`` takes; every read of the archive is
    made by other processes (the server, the reader)."""
    settle()
    start = time.perf_counter()
    RlzArchive.build(collection, config, path).close()
    return time.perf_counter() - start


def report_build(run: Run, collection: DocumentCollection, path: Path, seconds: float) -> None:
    size = collection.total_size
    run.report.metric(
        "encode_mb_s", size / seconds / MB, "MB/s", f"{size} B in {seconds:.3f} s, serial"
    )
    stored = path.stat().st_size
    run.report.metric("stored_pct", 100.0 * stored / size, "%", f"{stored} of {size} B")


def scan_in_child(run: Run, path: Path, contents: Dict[int, bytes]) -> List[float]:
    """Scan the archive in a fresh reader process; returns the scan rates."""
    request = {
        "path": str(path),
        "digests": {str(doc_id): hashlib.sha1(c).hexdigest() for doc_id, c in contents.items()},
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.root), str(run.src)]))
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.reader"],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        env=env,
        cwd=run.root,
        timeout=150,
    )
    if done.returncode != 0:
        raise RuntimeError("reader process failed: " + done.stderr[-2000:])
    reply = json.loads(done.stdout)
    rates, wrong = reply["rates"], reply["wrong"]
    run.report.count(len(rates), wrong, wrong)
    return rates


def report_scan(run: Run, rates: List[float]) -> None:
    run.report.metric(
        "scan_mb_s",
        median(rates),
        "MB/s",
        f"median of {len(rates)} scans in a fresh reader process "
        f"({min(rates):.1f}..{max(rates):.1f})",
    )


def report_latency(run: Run, prefix: str, outcomes: Sequence[Outcome], rate: float) -> None:
    latencies = [outcome.latency for outcome in outcomes]
    for q, label in ((0.5, "p50"), (0.99, "p99")):
        point = percentile(latencies, q)
        run.report.metric(
            f"{prefix}_{label}_ms", point.value * 1000, "ms", f"n={point.count} at {rate:g}/s"
        )


def report_lag(run: Run, outcomes: Sequence[Outcome]) -> None:
    lag = percentile([outcome.lag for outcome in outcomes], 0.99)
    run.report.layer("bench.lag_p99_ms", lag.value * 1000, "ms", f"n={lag.count}")
    if lag.value * 1000 > LAG_BOUND_MS:
        run.report.invalidate(
            f"generator lag p99 {lag.value * 1000:.2f} ms > {LAG_BOUND_MS} ms bound"
        )


def report_errors(run: Run) -> None:
    attempted, failed = run.report.attempted, run.report.failed
    run.report.metric(
        "error_frac", failed / attempted, "ratio", f"{failed} of {attempted} operations"
    )


def ladder_step(phase: Phase, rate: float) -> LadderStep:
    latencies = [outcome.latency for outcome in phase.outcomes]
    return LadderStep(
        offered_rps=rate,
        achieved_rps=achieved_rate(len(latencies), phase.first_arrival, phase.last_completion),
        p99_ms=percentile(latencies, 0.99).value * 1000,
        count=len(latencies),
        failed=phase.failed,
        scheduled_rps=achieved_rate(len(latencies), phase.first_arrival, phase.last_arrival),
    )


def report_ladder(run: Run, steps: List[LadderStep], limit_ms: float) -> None:
    for step in steps:
        verdict = "pass" if step.passes(limit_ms) else "FAIL"
        run.report.note(
            f"      ladder {step.offered_rps:6g}/s: scheduled {step.scheduled_rps:8.1f}/s "
            f"achieved {step.achieved_rps:8.1f}/s "
            f"p99 {step.p99_ms:9.2f} ms n={step.count} failed={step.failed} {verdict}"
        )
    best = max_rps(steps, limit_ms)
    if best is None:
        run.report.metric("max_rps", 0.0, "req/s", f"no step met p99<={limit_ms:g} ms")
    else:
        run.report.metric(
            "max_rps",
            best.achieved_rps,
            "req/s",
            f"achieved at the {best.offered_rps:g}/s step (p99<={limit_ms:g} ms)",
        )


def stats_delta(before: Dict[str, float], after: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def report_server_counters(
    run: Run, before: Dict[str, float], after: Dict[str, float], waiting_max: Optional[int]
) -> None:
    """STATS deltas; the cache line only when the server has a cache, the
    gate depth only when it was sampled under load."""
    hits = stats_delta(before, after, "cache_hits")
    misses = stats_delta(before, after, "cache_misses")
    lookups = hits + misses
    if lookups:
        run.report.layer(
            "storage.cache.hit_frac",
            hits / lookups,
            "ratio",
            f"{int(hits)} of {int(lookups)} lookups",
        )
    if waiting_max is not None:
        run.report.layer(
            "serve.gate_waiting_max", waiting_max, "count", "STATS sampled every 250 ms"
        )
    for name, key in (
        ("serve.busy_rejections", "server_busy_rejections"),
        ("serve.deadline_rejections", "server_deadline_rejections"),
        ("serve.errors", "server_errors"),
    ):
        run.report.layer(name, stats_delta(before, after, key), "count", "STATS delta")


def make_client(server: ServerProcess) -> AsyncRlzClient:
    """One multiplexed connection that reports every refusal as a failure."""
    return AsyncRlzClient(server.host, server.port, retries=0, busy_retries=0, timeout=10.0)


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
INGEST_DICTIONARY = 1536 * 1024
#: One generation takes ~1.5 s, yet the same one has ranged from 1.2 to
#: 2.2 s back to back on a 2-core VM, and a median of 3 moved by 29 %
#: between two sets of ten runs; seven span ~10 s.
INGEST_SETUPS = 7


def _timed_wiki_corpus(seed: int) -> Tuple[DocumentCollection, float]:
    start = time.perf_counter()
    corpus = wiki_corpus(seed)
    return corpus, time.perf_counter() - start


def run_ingest(run: Run) -> None:
    report = run.report
    corpus, first = _timed_wiki_corpus(run.seed)
    contents = {document.doc_id: document.content for document in corpus}
    path = run.work / "ingest.rlz"
    config = archive_config(INGEST_DICTIONARY)
    build_seconds = timed_build(corpus, config, path)
    build_peak = peak_rss_mb()
    # The other generations come after the build: freed corpora left in
    # the heap raised the build's peak RSS by ~13 MB.
    setups = [first] + [_timed_wiki_corpus(run.seed)[1] for _ in range(INGEST_SETUPS - 1)]
    report.metric(
        "setup_s", median(setups), "s", f"median of {INGEST_SETUPS} corpus generations"
    )
    report_build(run, corpus, path, build_seconds)
    report.metric("peak_rss_mb", build_peak, "MB", "benchmark process (the builder)")
    report_scan(run, scan_in_child(run, path, contents))
    report_errors(run)

    if run.trace:
        asyncio.run(_trace_with_server(run, corpus, contents, config, path))


async def _trace_with_server(
    run: Run,
    corpus: DocumentCollection,
    contents: Dict[int, bytes],
    config: ArchiveConfig,
    path: Path,
) -> None:
    """Traced phase for a workload that serves nothing while it measures:
    a cacheless server is started for it alone."""
    with separate_cpus() as cpus, ServerProcess(
        run.src, path, run.work / "trace-server.log", 0, cpus
    ) as server:
        client = make_client(server)
        try:
            before = await client.stats()
            ids = sorted(contents)
            rng = run.rng("trace-requests")
            batches = [
                [ids[rng.randrange(len(ids))] for _ in range(GET_MANY_SIZE)] for _ in range(60)
            ]
            await layers.trace_phase(
                run, corpus, contents, config, path, client, batches, wire_search=False
            )
            after = await client.stats()
            report_server_counters(run, before, after, None)
        finally:
            await client.close()


# ----------------------------------------------------------------------
# get-uniform
# ----------------------------------------------------------------------
GOV_DICTIONARY = 512 * 1024
GET_UNIFORM_CACHE = 32
GET_UNIFORM_RATE = 400.0
GET_UNIFORM_LADDER = (600.0, 800.0, 1000.0, 1200.0)
GET_UNIFORM_LIMIT_MS = 50.0


def run_get_uniform(run: Run) -> None:
    report = run.report
    start = time.perf_counter()
    corpus = gov_corpus(run.seed)
    contents = {document.doc_id: document.content for document in corpus}
    path = run.work / "get-uniform.rlz"
    config = archive_config(GOV_DICTIONARY)
    build_seconds = timed_build(corpus, config, path)
    with separate_cpus() as cpus, ServerProcess(
        run.src, path, run.work / "server.log", GET_UNIFORM_CACHE, cpus
    ) as server:
        asyncio.run(_serve_get_uniform(run, server, corpus, contents, config, path, start))
    report_build(run, corpus, path, build_seconds)
    report_errors(run)


def _uniform_schedule(rng: random.Random, rate: float, count: int, ids: List[int]):
    arrivals = poisson_arrivals(rng, rate, count)
    return [(offset, "get") for offset in arrivals], [
        ids[rng.randrange(len(ids))] for _ in arrivals
    ]


async def _serve_get_uniform(
    run: Run,
    server: ServerProcess,
    corpus: DocumentCollection,
    contents: Dict[int, bytes],
    config: ArchiveConfig,
    path: Path,
    started: float,
) -> None:
    report = run.report
    client = make_client(server)
    try:
        ids = sorted(contents)
        for doc_id in ids[:: max(1, len(ids) // 100)]:
            if await client.get(doc_id) != contents[doc_id]:
                raise RuntimeError(f"warm-up read of document {doc_id} returned wrong bytes")
        report.metric(
            "setup_s",
            time.perf_counter() - started,
            "s",
            "corpus + build + server start + warm-up, once",
        )
        before = await client.stats()
        rng = run.rng("get-uniform")

        async def phase_at(rate: float, count: int) -> Phase:
            schedule, targets = _uniform_schedule(rng, rate, count, ids)
            settle()
            return await open_loop(
                schedule,
                lambda index: client.get(targets[index]),
                lambda index, document: document == contents[targets[index]],
                OPERATION_ERRORS,
                stats=client.stats,
            )

        nominal = await phase_at(
            GET_UNIFORM_RATE, max(P99_SAMPLES, math.ceil(GET_UNIFORM_RATE * run.seconds))
        )
        report.count(len(nominal.outcomes), nominal.failed, nominal.mismatches)
        report_latency(run, "get", nominal.outcomes, GET_UNIFORM_RATE)
        report_lag(run, nominal.outcomes)
        steps = [ladder_step(nominal, GET_UNIFORM_RATE)]
        waiting_max = nominal.waiting_max
        for rate in GET_UNIFORM_LADDER:
            if not steps[-1].passes(GET_UNIFORM_LIMIT_MS):
                break
            await asyncio.sleep(0.5)
            phase = await phase_at(rate, max(P99_SAMPLES, math.ceil(rate * 1.5)))
            report.count(0, 0, phase.mismatches)
            waiting_max = max(waiting_max, phase.waiting_max)
            steps.append(ladder_step(phase, rate))
        report_ladder(run, steps, GET_UNIFORM_LIMIT_MS)
        after = await client.stats()
        report_server_counters(run, before, after, waiting_max)
        report.metric("peak_rss_mb", server.peak_rss_mb(), "MB", "server process VmHWM")
        if run.trace:
            trace_rng = run.rng("trace-requests")
            batches = [
                [ids[trace_rng.randrange(len(ids))] for _ in range(GET_MANY_SIZE)]
                for _ in range(60)
            ]
            await layers.trace_phase(
                run, corpus, contents, config, path, client, batches, wire_search=False
            )
    finally:
        await client.close()


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
SERVE_MIXED_RATE = 100.0
SERVE_MIXED_LADDER = (150.0, 200.0, 300.0)
SERVE_MIXED_LIMIT_MS = 100.0
MIXED_KINDS = ("search", "get_many")


def run_serve_mixed(run: Run) -> None:
    report = run.report
    start = time.perf_counter()
    corpus = gov_corpus(run.seed)
    contents = {document.doc_id: document.content for document in corpus}
    path = run.work / "serve-mixed.rlz"
    # encode_mb_s times RlzArchive.build with defaults (no search index),
    # as on the other workloads; the posting-list sidecar it would write
    # with SearchSpec(enabled=True) is written next, as part of set-up.
    build_seconds = timed_build(corpus, archive_config(GOV_DICTIONARY), path)
    config = archive_config(GOV_DICTIONARY, search=True)
    write_postings(
        ((document.doc_id, document.content) for document in corpus), index_sidecar_path(path)
    )

    # Schedules first: they fix how many query-log ids the run consumes.
    rng = run.rng("serve-mixed")
    nominal = mixed_schedule(rng, SERVE_MIXED_RATE, MIXED_KINDS, P99_SAMPLES, run.seconds)
    ladder = [
        (rate, mixed_schedule(rng, rate, MIXED_KINDS, P99_SAMPLES // 2 + 1, 0.0))
        for rate in SERVE_MIXED_LADDER
    ]
    get_manys = sum(
        kind == "get_many" for schedule in [nominal, *(s for _, s in ladder)] for _, kind in schedule
    )
    # The reference ranking: the build's posting-list sidecar, opened here
    # as a local PostingsStore.  It also ranks the query log.
    reference = PostingsStore.open(index_sidecar_path(path))
    log = query_log_pattern(
        corpus,
        num_requests=GET_MANY_SIZE * (get_manys + 64),
        num_queries=300,
        seed=run.seed,
        index=reference,
    )
    queries = generate_queries(corpus, num_queries=400, seed=run.seed + 1)
    distinct = len(set(log))
    with separate_cpus() as cpus, ServerProcess(
        run.src, path, run.work / "server.log", distinct, cpus
    ) as server:
        asyncio.run(
            _serve_mixed(
                run, server, corpus, contents, config, path, reference, log, queries,
                nominal, ladder, start,
            )
        )
    report.note(f"      cache capacity {distinct} = distinct ids in the request stream")
    report_build(run, corpus, path, build_seconds)
    report_errors(run)


class _MixedTraffic:
    """Maps schedule slots to SEARCH queries and query-log GET_MANY batches,
    and keeps each SEARCH reply by its slot, to be checked after its phase
    (ranking it again here would hold up the generator's sends)."""

    def __init__(self, client, contents, log, queries, rng) -> None:
        self.client = client
        self.contents = contents
        self.log = log
        self.queries = queries
        self.rng = rng
        self.cursor = 0
        self.searches: Dict[int, Tuple[str, list]] = {}

    def plan(self, schedule) -> List[Tuple[str, object]]:
        plan = []
        for _offset, kind in schedule:
            if kind == "search":
                plan.append((kind, self.queries[self.rng.randrange(len(self.queries))]))
            else:
                ids = self.log[self.cursor : self.cursor + GET_MANY_SIZE]
                self.cursor += GET_MANY_SIZE
                plan.append((kind, ids))
        return plan

    async def call(self, index: int, kind: str, argument):
        if kind == "search":
            hits = await self.client.search(
                argument, top_k=SEARCH_TOP_K, snippet_chars=SNIPPET_CHARS
            )
            self.searches[index] = (argument, hits)
            return hits
        return await self.client.get_many(argument)

    def check(self, kind: str, argument, result) -> bool:
        if kind == "search":
            return True  # checked after the phase: see _fail_wrong_searches
        return result == [self.contents[doc_id] for doc_id in argument]


def _fail_wrong_searches(
    phase: Phase,
    searches: Dict[int, Tuple[str, list]],
    reference: PostingsStore,
    contents: Dict[int, bytes],
    expected: Dict[str, list],
) -> int:
    """Check each SEARCH reply of ``phase`` against the reference index and
    turn every wrong one into a failed, mismatched outcome, as a wrong
    GET_MANY is while the phase runs.  Returns how many were wrong."""
    wrong = 0
    for index, (query, hits) in searches.items():
        if not verify_search(reference, contents, query, hits, expected):
            outcome = phase.outcomes[index]
            outcome.latency, outcome.ok, outcome.mismatch = FAILED, False, True
            wrong += 1
    return wrong


async def _serve_mixed(
    run, server, corpus, contents, config, path, reference, log, queries, nominal, ladder, started
) -> None:
    report = run.report
    client = make_client(server)
    try:
        traffic = _MixedTraffic(client, contents, log, queries, run.rng("serve-mixed-args"))
        distinct = sorted(set(log))
        for first in range(0, len(distinct), GET_MANY_SIZE):
            warm = distinct[first : first + GET_MANY_SIZE]
            if await client.get_many(warm) != [contents[doc_id] for doc_id in warm]:
                raise RuntimeError("warm-up GET_MANY returned wrong bytes")
        for query in queries[:20]:
            await client.search(query, top_k=SEARCH_TOP_K, snippet_chars=SNIPPET_CHARS)
        report.metric(
            "setup_s",
            time.perf_counter() - started,
            "s",
            "corpus + build + index + query log + server start + warm-up, once",
        )
        before = await client.stats()
        expected: Dict[str, list] = {}
        checked = wrong = 0

        async def phase_of(schedule) -> Phase:
            nonlocal checked, wrong
            plan = traffic.plan(schedule)
            traffic.searches = {}
            settle()
            phase = await open_loop(
                schedule,
                lambda index: traffic.call(index, *plan[index]),
                lambda index, result: traffic.check(plan[index][0], plan[index][1], result),
                OPERATION_ERRORS,
                stats=client.stats,
            )
            checked += len(traffic.searches)
            wrong += _fail_wrong_searches(phase, traffic.searches, reference, contents, expected)
            return phase

        phase = await phase_of(nominal)
        report.count(len(phase.outcomes), phase.failed, phase.mismatches)
        report_latency(run, "get", phase.of("get_many"), SERVE_MIXED_RATE / 2)
        report_latency(run, "search", phase.of("search"), SERVE_MIXED_RATE / 2)
        report_lag(run, phase.outcomes)
        steps = [ladder_step(phase, SERVE_MIXED_RATE)]
        waiting_max = phase.waiting_max
        for rate, schedule in ladder:
            if not steps[-1].passes(SERVE_MIXED_LIMIT_MS):
                break
            await asyncio.sleep(0.5)
            step_phase = await phase_of(schedule)
            report.count(0, 0, step_phase.mismatches)
            waiting_max = max(waiting_max, step_phase.waiting_max)
            steps.append(ladder_step(step_phase, rate))
        report_ladder(run, steps, SERVE_MIXED_LIMIT_MS)
        after = await client.stats()
        report_server_counters(run, before, after, waiting_max)
        report.metric("peak_rss_mb", server.peak_rss_mb(), "MB", "server process VmHWM")
        report.note(f"      {checked} SEARCH replies checked, {wrong} wrong")
        if run.trace:
            trace_rng = run.rng("trace-requests")
            start = trace_rng.randrange(len(log))
            batches = [
                (log + log)[start + GET_MANY_SIZE * i : start + GET_MANY_SIZE * (i + 1)]
                for i in range(60)
            ]
            await layers.trace_phase(
                run, corpus, contents, config, path, client, batches, wire_search=True,
                reference=reference, queries=queries,
            )
    finally:
        await client.close()


WORKLOADS = {
    "ingest": run_ingest,
    "get-uniform": run_get_uniform,
    "serve-mixed": run_serve_mixed,
}
