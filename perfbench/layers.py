"""The traced phase: spans around calls into each layer's public functions.

Three parts, all after the untraced measurements of a run:

* the archive build composed from its public parts (dictionary sample,
  suffix-array build, per-document factorize and encode, container
  write), one span per part; its container must be byte-identical to
  ``RlzArchive.build``'s;
* a seeded sample of requests, each replayed with one request id: a root
  span over the wire call, then the same request in this process through
  the async front, the store, and the store's parts (container read,
  pair-stream decode, factor decode) as child spans;
* idle-connection pings.

Each request is also replayed once untraced, alternating which goes
first, and the difference is ``bench.trace_overhead_pct``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import ArchiveConfig, AsyncRlzArchive, RlzArchive
from repro.core import PairEncoder, RlzFactorizer, build_dictionary
from repro.core.compressor import CompressedCollection, CompressedDocument
from repro.core.decoder import decode_many, decode_pairs
from repro.core.dictionary import DictionaryConfig
from repro.corpus.document import DocumentCollection
from repro.search import generate_queries
from repro.search.serving import PostingsStore, index_sidecar_path, write_postings
from repro.storage import RlzStore
from repro.storage.container import open_payload, read_container_header

from .load import settle
from .trace import Tracer, durations_by_layer, self_times_by_layer

SEARCH_TOP_K = 10
SNIPPET_CHARS = 160
GET_MANY_SIZE = 8
TRACE_GETS = 200
TRACE_SEARCHES = 100
TRACE_PINGS = 200


class NullTracer:
    """Same interface as :class:`Tracer`; records nothing."""

    def span(self, name, parent=None, request=None):
        return contextlib.nullcontext()


def verify_search(
    reference: PostingsStore,
    contents: Dict[int, bytes],
    query: str,
    hits,
    memo: Optional[Dict[str, list]] = None,
) -> bool:
    """Ranking equals the reference index's; each snippet is the document slice.

    ``memo`` keeps the reference ranking of queries already checked.
    """
    memo = {} if memo is None else memo
    if query not in memo:
        memo[query] = reference.search(query, top_k=SEARCH_TOP_K)
    expected = memo[query]
    if [(hit.doc_id, hit.score) for hit in hits] != [(e.doc_id, e.score) for e in expected]:
        return False
    for hit, ranked in zip(hits, expected):
        start = max(0, ranked.hit_offset - SNIPPET_CHARS // 2)
        if hit.snippet_start != start:
            return False
        if hit.snippet != contents[hit.doc_id][start : start + SNIPPET_CHARS]:
            return False
    return True


# ----------------------------------------------------------------------
# The build, composed from its public parts
# ----------------------------------------------------------------------
def composed_build(
    tracer: Tracer, collection: DocumentCollection, config: ArchiveConfig, path: Path
) -> Dict[str, float]:
    """``RlzArchive.build``'s container, written part by part under spans.

    Returns the factor counts and the suffix array's probe counters, which
    ``RlzArchive.build`` loses when it reopens the archive.
    """
    spec = config.dictionary
    with tracer.span("build") as root:
        with tracer.span("core.dictionary.sample", root):
            dictionary = build_dictionary(
                collection,
                DictionaryConfig(
                    size=spec.sized_for(collection.total_size),
                    sample_size=spec.sample_size,
                    policy=spec.policy,
                    prefix_fraction=spec.prefix_fraction,
                    seed=spec.seed,
                ),
                sa_algorithm=spec.sa_algorithm,
                accelerated=spec.accelerated,
                jump_start=spec.jump_start,
            )
        with tracer.span("suffix.build", root):
            dictionary.suffix_array.prepare()
        factorizer = RlzFactorizer(dictionary)
        encoder = PairEncoder(config.encoding.scheme)
        documents: List[CompressedDocument] = []
        factors = literals = encoded = 0
        for document in collection:
            with tracer.span("core.factorizer.factorize", root):
                positions, lengths = factorizer.factorize_streams(document.content)
            with tracer.span("core.encoder.encode", root):
                blob = encoder.encode_streams(positions, lengths)
            factors += len(lengths)
            literals += lengths.count(0)
            encoded += len(blob)
            documents.append(CompressedDocument(document.doc_id, blob, document.size))
        compressed = CompressedCollection(
            dictionary=dictionary,
            scheme_name=encoder.scheme_name,
            documents=documents,
            collection_name=collection.name,
        )
        with tracer.span("storage.container.write", root):
            RlzStore.write(compressed, path)
    probes = dictionary.suffix_array.probe_cache_info()
    return {
        "factors": factors,
        "literals": literals,
        "encoded": encoded,
        "input": collection.total_size,
        "probe_hits": probes["hits"],
        "probe_lookups": probes["hits"] + probes["misses"],
    }


# ----------------------------------------------------------------------
# Request replay
# ----------------------------------------------------------------------
class Replay:
    """One request at a time: over the wire, then through each layer here."""

    def __init__(
        self,
        path: Path,
        client,
        contents: Dict[int, bytes],
        index: PostingsStore,
        wire_search: bool,
    ) -> None:
        self.client = client
        self.contents = contents
        self.index = index
        self.wire_search = wire_search
        self.store = RlzStore.open(path)
        self.front = AsyncRlzArchive(RlzArchive.open(path))
        self.header = read_container_header(path)
        self.handle = open_payload(self.header)
        self.encoder = PairEncoder(self.store.scheme_name)
        self.dictionary = self.store.dictionary
        self.window_bytes = 0
        self.full_bytes = 0
        self.wrong = 0

    def _expect(self, condition: bool) -> None:
        self.wrong += int(not condition)

    def _read(self, tracer, parent, request, doc_id: int) -> bytes:
        with tracer.span("storage.container.read", parent, request):
            entry = self.header.document_map.lookup(doc_id)
            self.handle.seek(self.header.payload_offset + entry.offset)
            blob = self.handle.read(entry.length)
            self.header.check_extent(entry.offset, entry.length, blob)
        return blob

    async def get(self, tracer, request: int, doc_id: int) -> None:
        expected = self.contents[doc_id]
        with tracer.span("serve.get", None, request) as root:
            self._expect(await self.client.get(doc_id) == expected)
        with tracer.span("api.async_front.get", root, request) as front:
            self._expect(await self.front.get(doc_id) == expected)
        with tracer.span("storage.rlz_store.get", front, request) as store:
            self._expect(self.store.get(doc_id) == expected)
        blob = self._read(tracer, store, request, doc_id)
        with tracer.span("core.encoder.decode_streams", store, request):
            positions, lengths = self.encoder.decode_streams(blob)
        with tracer.span("core.decoder.decode_pairs", store, request):
            self._expect(decode_pairs(positions, lengths, self.dictionary) == expected)

    async def get_many(self, tracer, request: int, doc_ids: List[int]) -> None:
        expected = [self.contents[doc_id] for doc_id in doc_ids]
        with tracer.span("serve.get_many", None, request) as root:
            self._expect(await self.client.get_many(doc_ids) == expected)
        with tracer.span("api.async_front.get_many", root, request) as front:
            self._expect(await self.front.get_many(doc_ids) == expected)
        with tracer.span("storage.rlz_store.get_many", front, request) as store:
            self._expect(self.store.get_many(doc_ids) == expected)
        streams = []
        for doc_id in doc_ids:
            blob = self._read(tracer, store, request, doc_id)
            with tracer.span("core.encoder.decode_streams", store, request):
                streams.append(self.encoder.decode_streams(blob))
        with tracer.span("core.decoder.decode_many", store, request):
            self._expect(decode_many(streams, self.dictionary) == expected)

    def _rank_and_windows(self, tracer, parent, request: int, query: str) -> None:
        with tracer.span("search.serving.rank", parent, request):
            ranked = self.index.search(query, top_k=SEARCH_TOP_K)
        for hit in ranked:
            start = max(0, hit.hit_offset - SNIPPET_CHARS // 2)
            before = self.store.decoded_bytes
            with tracer.span("storage.rlz_store.get_window", parent, request):
                window = self.store.get_window(hit.doc_id, start, SNIPPET_CHARS)
            self.window_bytes += self.store.decoded_bytes - before
            self.full_bytes += len(self.contents[hit.doc_id])
            self._expect(window == self.contents[hit.doc_id][start : start + SNIPPET_CHARS])

    async def search(self, tracer, request: int, query: str) -> None:
        if self.wire_search:
            with tracer.span("serve.search", None, request) as root:
                hits = await self.client.search(
                    query, top_k=SEARCH_TOP_K, snippet_chars=SNIPPET_CHARS
                )
            self._expect(verify_search(self.index, self.contents, query, hits))
            self._rank_and_windows(tracer, root, request, query)
        else:
            # No SEARCH path on this workload's server: rank in this process.
            with tracer.span("search.local", None, request) as root:
                self._rank_and_windows(tracer, root, request, query)

    async def close(self) -> None:
        self.handle.close()
        self.store.close()
        await self.front.close()


async def _paired(
    replay_call, tracer: Tracer, totals: List[float], request: int, index: int, argument
) -> None:
    """Replay once traced and once untraced, alternating which goes first."""
    passes = (NullTracer(), tracer) if index % 2 == 0 else (tracer, NullTracer())
    for active in passes:
        start = time.perf_counter()
        await replay_call(active, request, argument)
        totals[active is tracer] += time.perf_counter() - start


async def trace_phase(
    run,
    corpus: DocumentCollection,
    contents: Dict[int, bytes],
    config: ArchiveConfig,
    path: Path,
    client,
    batches: List[List[int]],
    wire_search: bool,
    reference: Optional[PostingsStore] = None,
    queries: Optional[List[str]] = None,
) -> None:
    """Run the traced phase and record every per-layer metric on ``run``."""
    report = run.report
    tracer = Tracer()
    run.tracer = tracer

    composed = run.work / "composed.rlz"
    settle()
    counts = composed_build(tracer, corpus, config, composed)
    identical = composed.read_bytes() == path.read_bytes()
    report.count(1, int(not identical), int(not identical))
    report.note(f"      composed build container byte-identical to RlzArchive.build: {identical}")

    if wire_search:
        postings = PostingsStore.open(index_sidecar_path(path))
    else:
        sidecar = run.work / "trace.rpix"
        write_postings(((d.doc_id, d.content) for d in corpus), sidecar)
        postings = PostingsStore.open(sidecar)
    if queries is None:
        queries = generate_queries(corpus, num_queries=TRACE_SEARCHES, seed=run.seed + 2)

    rng = run.rng("trace-sample")
    ids = sorted(contents)
    replay = Replay(path, client, contents, postings, wire_search)
    totals = [0.0, 0.0]  # untraced, traced
    request = 0
    settle()
    try:
        for index in range(TRACE_GETS):
            doc_id = ids[rng.randrange(len(ids))]
            await _paired(replay.get, tracer, totals, request, index, doc_id)
            request += 1
        for index, batch in enumerate(batches):
            await _paired(replay.get_many, tracer, totals, request, index, batch)
            request += 1
        for index in range(TRACE_SEARCHES):
            query = queries[rng.randrange(len(queries))]
            await _paired(replay.search, tracer, totals, request, index, query)
            request += 1
        for _ in range(TRACE_PINGS):
            with tracer.span("serve.ping", None, request):
                await client.ping()
            request += 1
    finally:
        await replay.close()
    report.count(request - TRACE_PINGS, replay.wrong, replay.wrong)

    durations = durations_by_layer(tracer.spans)
    own = self_times_by_layer(tracer.spans)

    def one(name: str) -> float:
        return durations[name][0]

    def median_us(table: Dict[str, List[float]], name: str) -> float:
        return statistics.median(table[name]) * 1e6

    report.layer("core.dictionary.sample_s", one("core.dictionary.sample"), "s")
    report.layer("suffix.build_s", one("suffix.build"), "s", "SuffixArray build + prepare()")
    report.layer(
        "core.factorizer.busy_s", sum(durations["core.factorizer.factorize"]), "s",
        f"{len(durations['core.factorizer.factorize'])} documents",
    )
    report.layer(
        "core.factorizer.mean_factor_len", counts["input"] / counts["factors"], "bytes",
        f"{counts['input']} B / {counts['factors']} factors",
    )
    report.layer(
        "core.factorizer.literal_frac", counts["literals"] / counts["factors"], "ratio",
        f"{counts['literals']} literals",
    )
    lookups = counts["probe_lookups"]
    report.layer(
        "suffix.probe_cache_hit_frac", counts["probe_hits"] / lookups if lookups else 0.0,
        "ratio", f"base {lookups} probes",
    )
    report.layer("core.encoder.encode_s", sum(durations["core.encoder.encode"]), "s")
    report.layer(
        "core.encoder.bytes_per_factor", counts["encoded"] / counts["factors"], "bytes",
        f"{counts['encoded']} B encoded",
    )
    report.layer("storage.container.write_s", one("storage.container.write"), "s")
    for name, span in (
        ("storage.container.read_us", "storage.container.read"),
        ("core.encoder.decode_streams_us", "core.encoder.decode_streams"),
        ("core.decoder.decode_pairs_us", "core.decoder.decode_pairs"),
        ("core.decoder.decode_many_us", "core.decoder.decode_many"),
        ("storage.rlz_store.get_us", "storage.rlz_store.get"),
        ("serve.ping_rtt_us", "serve.ping"),
        ("serve.get_wire_us", "serve.get"),
        ("search.serving.rank_us", "search.serving.rank"),
        ("storage.rlz_store.window_us", "storage.rlz_store.get_window"),
    ):
        report.layer(name, median_us(durations, span), "us", f"median of {len(durations[span])}")
    report.layer(
        "api.async_front.get_us", median_us(own, "api.async_front.get"), "us",
        "median self time: front minus RlzStore.get",
    )
    report.layer(
        "storage.rlz_store.window_bytes_ratio",
        replay.full_bytes / replay.window_bytes if replay.window_bytes else 0.0,
        "ratio",
        f"{replay.full_bytes} B full / {replay.window_bytes} B windowed",
    )
    untraced, traced = totals
    report.layer(
        "bench.trace_overhead_pct", 100.0 * (traced - untraced) / untraced, "%",
        f"replay {traced:.3f} s traced vs {untraced:.3f} s untraced",
    )
    report.note("      self time per layer (median us, count):")
    for name in sorted(own):
        report.note(f"        {name:34} {median_us(own, name):12.1f} {len(own[name]):6d}")
