"""The benchmark's own rules, checked at a tiny size."""

from __future__ import annotations

import math
import random

import pytest

from perfbench.stats import (
    FAILED,
    LadderStep,
    max_rps,
    min_samples,
    mixed_schedule,
    nearest_rank,
    percentile,
    poisson_arrivals,
    samples_beyond,
)
from perfbench.trace import Span, Tracer, self_times, self_times_by_layer


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_picks_an_observed_sample():
    values = list(range(1, 101))
    assert nearest_rank(values, 0.5) == 50
    assert nearest_rank(values, 0.99) == 99
    assert nearest_rank(values, 1.0) == 100
    assert nearest_rank([7.0], 0.99) == 7.0


def test_p99_needs_ten_samples_beyond_it():
    assert min_samples(0.99) == 1000
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    values = [float(i) for i in range(1000)]
    point = percentile(values, 0.99)
    assert point.value == 989.0 and point.count == 1000
    with pytest.raises(ValueError, match="needs 1000 samples"):
        percentile(values[:-1], 0.99)


def test_median_needs_ten_beyond_too():
    assert min_samples(0.5) == 20
    percentile([1.0] * 20, 0.5)
    with pytest.raises(ValueError):
        percentile([1.0] * 19, 0.5)


# ----------------------------------------------------------------------
# Failures miss every limit
# ----------------------------------------------------------------------
def test_failures_sort_past_every_latency():
    values = [0.001] * 985 + [FAILED] * 15
    assert math.isinf(percentile(values, 0.99).value)
    assert percentile(values, 0.5).value == 0.001


def test_one_failure_fails_a_ladder_step_whatever_its_p99():
    fast = LadderStep(offered_rps=400, achieved_rps=400, p99_ms=1.0, count=1000, failed=1)
    assert not fast.passes(limit_ms=50)
    assert LadderStep(400, 400, 1.0, 1000, 0).passes(limit_ms=50)
    assert not LadderStep(400, 400, FAILED, 1000, 0).passes(limit_ms=50)


# ----------------------------------------------------------------------
# Schedules depend on the seed alone
# ----------------------------------------------------------------------
def test_schedule_is_fixed_by_the_seed():
    first = poisson_arrivals(random.Random("7:get"), 400.0, 500)
    again = poisson_arrivals(random.Random("7:get"), 400.0, 500)
    other = poisson_arrivals(random.Random("8:get"), 400.0, 500)
    assert first == again
    assert first != other
    assert all(b > a for a, b in zip(first, first[1:]))
    assert 500 / first[-1] == pytest.approx(400.0, rel=0.15)


def test_mixed_schedule_is_seeded_and_long_enough():
    kinds = ("search", "get_many")
    first = mixed_schedule(random.Random("3:mix"), 100.0, kinds, 50, 2.0)
    assert first == mixed_schedule(random.Random("3:mix"), 100.0, kinds, 50, 2.0)
    assert first[-1][0] >= 2.0
    assert min(sum(kind == k for _, kind in first) for k in kinds) >= 50


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "build", 0.0, 10.0, None, None),
        Span(1, "sample", 1.0, 3.0, 0, None),
        Span(2, "factorize", 4.0, 8.0, 0, None),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 4.0}


def test_self_time_of_a_replayed_request():
    # Wire call 0-5; the front (5-8) and its store call (8-10) replayed after.
    spans = [
        Span(0, "serve.get", 0.0, 5.0, None, 1),
        Span(1, "api.async_front.get", 5.0, 8.0, 0, 1),
        Span(2, "storage.rlz_store.get", 8.0, 10.0, 1, 1),
        Span(3, "core.decoder.decode_pairs", 10.0, 11.5, 2, 1),
    ]
    layers = self_times_by_layer(spans)
    assert layers["serve.get"] == [2.0]  # the wire share
    assert layers["api.async_front.get"] == [1.0]  # the executor hop
    assert layers["storage.rlz_store.get"] == [0.5]
    assert layers["core.decoder.decode_pairs"] == [1.5]


def test_tracer_records_parents_and_request_ids(tmp_path):
    tracer = Tracer()
    with tracer.span("root", request=9) as root:
        with tracer.span("child", root, 9):
            pass
    assert [(s.name, s.parent, s.request) for s in tracer.spans] == [
        ("root", None, 9),
        ("child", 0, 9),
    ]
    assert all(s.end >= s.start for s in tracer.spans)
    out = tmp_path / "spans.jsonl"
    tracer.write(out, {"seed": 1})
    assert len(out.read_text().splitlines()) == 3


# ----------------------------------------------------------------------
# The max_rps ladder
# ----------------------------------------------------------------------
def _step(rate, p99=10.0, achieved=None, failed=0):
    return LadderStep(rate, rate if achieved is None else achieved, p99, 1000, failed)


def test_max_rps_is_the_last_step_before_the_first_failure():
    steps = [_step(400), _step(600), _step(800, p99=80.0), _step(1000)]
    assert max_rps(steps, limit_ms=50).offered_rps == 600


def test_max_rps_refuses_a_growing_backlog():
    # p99 within the limit but only 90% of the offered rate completed.
    steps = [_step(400), _step(600, achieved=540.0)]
    assert max_rps(steps, limit_ms=50).offered_rps == 400
    assert _step(600, achieved=571.0).passes(50)
    # Judged against the rate the step's schedule actually offered.
    assert not LadderStep(600, 560.0, 10.0, 1000, 0, scheduled_rps=620.0).passes(50)
    assert LadderStep(600, 560.0, 10.0, 1000, 0, scheduled_rps=580.0).passes(50)


def test_max_rps_none_when_the_first_step_fails():
    assert max_rps([_step(400, failed=2), _step(600)], limit_ms=50) is None


# ----------------------------------------------------------------------
# The composed build writes RlzArchive.build's container
# ----------------------------------------------------------------------
def test_composed_build_is_byte_identical(tmp_path):
    from perfbench.layers import composed_build
    from perfbench.workloads import archive_config
    from repro.api import RlzArchive
    from repro.corpus import generate_gov_collection

    corpus = generate_gov_collection(num_documents=12, target_document_size=3 * 1024, seed=4)
    config = archive_config(16 * 1024)
    RlzArchive.build(corpus, config, tmp_path / "built.rlz").close()
    tracer = Tracer()
    counts = composed_build(tracer, corpus, config, tmp_path / "composed.rlz")
    assert (tmp_path / "composed.rlz").read_bytes() == (tmp_path / "built.rlz").read_bytes()
    assert counts["factors"] > 0 and counts["input"] == corpus.total_size
    names = {span.name for span in tracer.spans}
    assert {"core.dictionary.sample", "suffix.build", "storage.container.write"} <= names


# ----------------------------------------------------------------------
# A wrong SEARCH reply is a failed operation
# ----------------------------------------------------------------------
def test_a_wrong_search_reply_fails_its_operation(tmp_path):
    from types import SimpleNamespace

    from perfbench.layers import SEARCH_TOP_K, SNIPPET_CHARS
    from perfbench.load import Outcome, Phase
    from perfbench.workloads import _fail_wrong_searches
    from repro.corpus import generate_gov_collection
    from repro.search import generate_queries
    from repro.search.serving import PostingsStore, write_postings

    corpus = generate_gov_collection(num_documents=12, target_document_size=3 * 1024, seed=4)
    contents = {document.doc_id: document.content for document in corpus}
    write_postings(((d.doc_id, d.content) for d in corpus), tmp_path / "index.rpix")
    reference = PostingsStore.open(tmp_path / "index.rpix")
    query = generate_queries(corpus, num_queries=1, seed=5)[0]

    def reply():
        hits = []
        for ranked in reference.search(query, top_k=SEARCH_TOP_K):
            start = max(0, ranked.hit_offset - SNIPPET_CHARS // 2)
            snippet = contents[ranked.doc_id][start : start + SNIPPET_CHARS]
            hits.append(SimpleNamespace(
                doc_id=ranked.doc_id, score=ranked.score, snippet_start=start, snippet=snippet
            ))
        return hits

    right, wrong = reply(), reply()
    assert right
    wrong[0].snippet = bytes([wrong[0].snippet[0] ^ 1]) + wrong[0].snippet[1:]
    phase = Phase([Outcome("search", 0.004, 0.0, True) for _ in range(3)], 0.0, 1.0, 1.0)
    searches = {0: (query, right), 2: (query, wrong)}
    assert _fail_wrong_searches(phase, searches, reference, contents, {}) == 1
    assert [outcome.ok for outcome in phase.outcomes] == [True, True, False]
    assert phase.outcomes[2].latency == FAILED
    assert phase.failed == 1 and phase.mismatches == 1
