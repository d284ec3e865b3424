"""Byte-identity battery for the batch lockstep kernel.

``SuffixArray.factorize_batch`` parses many documents together in numpy
(:mod:`repro.suffix.batch`).  Its output must equal, document by document,
both the production per-document engine (``factorize_stream``) and the
paper's per-character refinement (``longest_match`` on a non-accelerated
index, i.e. ``_longest_match_refine``).  Most tests shrink the kernel's
segments and drop the size gate so small inputs exercise many lanes,
segment boundaries and repairs.
"""

from __future__ import annotations

import multiprocessing
import random
import sys
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PairEncoder, ParallelCompressor, RlzDictionary
from repro.suffix import SuffixArray
from repro.suffix.batch import LockstepParser


def refine_streams(text: bytes, document: bytes):
    """The faithful parse: per-character refinement at every cursor."""
    faithful = SuffixArray(text, accelerated=False)
    positions, lengths = [], []
    cursor = 0
    while cursor < len(document):
        position, length = faithful.longest_match(document, cursor)
        if length == 0:
            positions.append(document[cursor])
            lengths.append(0)
            cursor += 1
        else:
            positions.append(position)
            lengths.append(length)
            cursor += length
    return positions, lengths


def assert_batch_identical(text: bytes, documents, check_refine: bool = True):
    index = SuffixArray(text)
    batch = index.factorize_batch(documents)
    reference = SuffixArray(text)
    assert batch == [reference.factorize_stream(document) for document in documents]
    if check_refine:
        assert batch == [refine_streams(text, document) for document in documents]
    return batch


@contextmanager
def kernel_for_any_input(segment: int):
    """Drop the size gate and cut segments of ``segment`` bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SuffixArray, "_BATCH_MIN_BYTES", 0)
        patch.setattr(LockstepParser, "SEGMENT", segment)
        yield


@pytest.fixture
def small_kernel():
    with kernel_for_any_input(16):
        yield


@pytest.fixture
def repair_log(monkeypatch):
    """Lane counts of every kernel pass, speculative and repair."""
    log = {"speculative": 0, "repair": 0, "repair_factors": 0}
    original = LockstepParser._run

    def run(self, query, starts, ends, limits, stops):
        result = original(self, query, starts, ends, limits, stops)
        if stops is None:
            log["speculative"] += len(starts)
        else:
            log["repair"] += len(starts)
            log["repair_factors"] += len(result[0])
        return result

    monkeypatch.setattr(LockstepParser, "_run", run)
    return log


def mutated(rng: random.Random, source: bytes, size: int, alphabet: bytes) -> bytes:
    """``size`` bytes copied from ``source`` with occasional substitutions."""
    if not source:
        return bytes(rng.choice(alphabet) for _ in range(size))
    start = rng.randrange(len(source))
    out = bytearray((source[start:] + source) * (size // max(1, len(source)) + 1))[:size]
    for index in range(len(out)):
        if rng.random() < 0.04:
            out[index] = rng.choice(alphabet)
    return bytes(out)


# ----------------------------------------------------------------------
# Hypothesis: random and zero-heavy inputs
# ----------------------------------------------------------------------
zero_heavy = st.binary(max_size=300).map(lambda data: bytes(b % 3 for b in data))
small_alphabet = st.binary(max_size=300).map(lambda data: bytes(97 + b % 4 for b in data))
any_bytes = st.binary(max_size=300)


@given(
    text=st.one_of(zero_heavy, small_alphabet, any_bytes).filter(bool),
    documents=st.lists(st.one_of(zero_heavy, small_alphabet, any_bytes), max_size=6),
    segment=st.sampled_from([8, 16, 40, 1024]),
)
@settings(max_examples=120, deadline=None)
def test_random_inputs_match_both_references(text, documents, segment):
    with kernel_for_any_input(segment):
        assert_batch_identical(text, documents)


@given(data=st.data(), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_documents_copied_from_the_dictionary_match(data, seed):
    """Long matches: documents are mutated copies of the dictionary."""
    segment = data.draw(st.sampled_from([8, 24, 64]))
    rng = random.Random(seed)
    alphabet = data.draw(st.sampled_from([b"ab", b"ab\x00", b"abcdefgh", bytes(range(256))]))
    text = bytes(rng.choice(alphabet) for _ in range(rng.randint(1, 400)))
    documents = [
        mutated(rng, text, rng.randint(0, 500), alphabet) for _ in range(rng.randint(1, 5))
    ]
    with kernel_for_any_input(segment):
        assert_batch_identical(text, documents)


# ----------------------------------------------------------------------
# Hand-picked shapes
# ----------------------------------------------------------------------
def test_empty_and_one_byte_documents(small_kernel):
    text = b"abracadabra, abracadabra"
    documents = [b"", b"a", b"", b"z", b"\x00", b"", b"abra"]
    assert assert_batch_identical(text, documents)[0] == ([], [])


def test_only_empty_documents(small_kernel):
    assert SuffixArray(b"abc").factorize_batch([b"", b""]) == [([], []), ([], [])]
    assert SuffixArray(b"abc").factorize_batch([]) == []


def test_documents_shorter_than_one_segment(monkeypatch):
    monkeypatch.setattr(SuffixArray, "_BATCH_MIN_BYTES", 0)
    rng = random.Random(5)
    text = bytes(rng.choice(b"abcd ") for _ in range(2000))
    documents = [mutated(rng, text, rng.randint(1, 900), b"abcd ") for _ in range(12)]
    assert all(len(document) < LockstepParser.SEGMENT for document in documents)
    assert_batch_identical(text, documents)


def test_matches_straddle_segment_ends(small_kernel):
    """Copies far longer than a segment: segment ends fall inside factors,
    so speculative lanes start mid-factor."""
    rng = random.Random(7)
    text = bytes(rng.randrange(256) for _ in range(3000))
    documents = [text[100:1900], text[5:700] + b"\xff\xfe" + text[2000:2900]]
    batch = assert_batch_identical(text, documents)
    assert max(batch[0][1]) > 10 * LockstepParser.SEGMENT


def test_lane_that_overshoots_the_true_chain_is_repaired(small_kernel, repair_log):
    """Parsing from mid-factor can reach further than the true factor: the
    dictionary holds ``X + Z`` and ``X[20:] + Y``, the document ``X + Y``.
    The true parse is ``X | Y``; a lane started at byte 32 of ``X`` matches
    ``X[32:] + Y`` and skips byte 40, which only a repair lane computes."""
    rng = random.Random(9)
    piece = lambda size: bytes(rng.randrange(1, 256) for _ in range(size))
    x, y, z = piece(40), piece(40), piece(40)
    text = piece(300) + x + z + piece(300) + x[20:] + y + piece(300)
    document = x + y + piece(50)
    batch = assert_batch_identical(text, [document])
    assert batch[0][1][:2] == [40, 40]
    assert repair_log["repair"] > 0


def test_periodic_text_repairs_run_to_the_end_of_the_document(small_kernel, repair_log):
    """A periodic document over a periodic dictionary: chains started at
    different phases never meet, so repairs run to the document end."""
    text = b"abcdefg" * 30
    document = b"abcdefg" * 400
    batch = assert_batch_identical(text, [document, document[3:]])
    assert repair_log["repair"] > 0
    assert repair_log["repair_factors"] >= len(batch[0][1]) // 2


def test_zero_windows_fall_back_to_refinement(small_kernel):
    rng = random.Random(11)
    text = bytes(rng.choice(b"\x00\x00a\x01") for _ in range(600)) + b"\x00" * 40
    documents = [mutated(rng, text, 700, b"\x00a\x01\x02") for _ in range(3)]
    documents.append(b"\x00" * 200 + text[:50])
    assert_batch_identical(text, documents)


def test_match_running_into_the_dictionary_end_stops_there(small_kernel):
    """A copy of the dictionary's last bytes followed by zeros: the zero
    padding past the dictionary must not extend the match."""
    rng = random.Random(13)
    tail = bytes(rng.randrange(1, 256) for _ in range(40))
    text = bytes(rng.randrange(1, 256) for _ in range(500)) + tail
    documents = [tail + bytes(30), tail[5:] + bytes(70) + tail]
    batch = assert_batch_identical(text, documents)
    assert batch[0][1][0] == 40


def test_all_ones_windows(small_kernel):
    """Runs of 0xff: the equal run of an all-ones 8-byte key ends at the
    interval's end (its successor key would overflow)."""
    rng = random.Random(17)
    text = b"".join(
        b"\xff" * rng.randint(1, 90) + bytes([rng.randrange(1, 255)]) for _ in range(40)
    )
    documents = [b"\xff" * size + b"\x07" for size in (40, 45, 77, 95, 200)]
    documents.append(b"".join(b"\xff" * rng.randint(30, 120) + b"a" for _ in range(6)))
    assert_batch_identical(text, documents)


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_web_collection(seed):
    """Boilerplate-heavy documents: long factors inside wide intervals whose
    first and last suffixes diverge at different depths."""
    from repro.corpus import generate_gov_collection

    collection = generate_gov_collection(
        num_documents=40, target_document_size=4096, seed=seed
    )
    documents = [document.content for document in collection]
    dictionary = RlzDictionary(b"".join(documents[::4])[: 48 * 1024])
    with kernel_for_any_input(256):
        assert_batch_identical(dictionary.data, documents, check_refine=False)


def test_zero_byte_inside_a_deep_window(small_kernel):
    """A window cut short by a zero byte must still narrow the interval to
    every suffix sharing its prefix, whatever follows the prefix."""
    rng = random.Random(19)
    prefix = bytes(rng.randrange(1, 256) for _ in range(40))
    filler = lambda: bytes(rng.randrange(1, 256) for _ in range(50))
    text = (
        filler() + prefix + b"b" + filler()
        + prefix + b"xy\x00\x00\x00\x00\x00\x01abcdef" + filler()
        + prefix + b"xy\x00\x00\x00\x00\x00\x02zzz" + filler()
        + prefix + b"xyw" + filler()
    )
    documents = [
        prefix + b"xy\x00\x00\x00\x00\x00\x01abcdeg",
        prefix + b"xy\x00\x00\x00\x00\x00\x02zzz!",
        prefix + b"xy\x00\x00\x00\x00\x00\x03",
        prefix + b"xyw\x00",
    ]
    batch = assert_batch_identical(text, documents)
    assert [streams[1][0] for streams in batch[:2]] == [40 + 13, 40 + 11]


def test_threads_share_one_index(small_kernel):
    """The kernel keeps each call's text in its own state: threads parsing
    different batches against one index get their own parses."""
    rng = random.Random(23)
    text = bytes(rng.choice(b"abcdefgh ") for _ in range(3000))
    batches = [
        [mutated(rng, text, rng.randint(100, 600), b"abcdefghij ") for _ in range(6)]
        for _ in range(4)
    ]
    index = SuffixArray(text)
    expected = [[index.factorize_stream(document) for document in batch] for batch in batches]
    results = [None] * len(batches)

    def work(slot):
        for _ in range(5):
            results[slot] = index.factorize_batch(batches[slot])
            if results[slot] != expected[slot]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert results == expected


def test_batches_split_by_size(small_kernel, monkeypatch):
    monkeypatch.setattr(LockstepParser, "BATCH_BYTES", 100)
    rng = random.Random(3)
    text = bytes(rng.choice(b"xyz ") for _ in range(500))
    documents = [mutated(rng, text, rng.randint(0, 180), b"xyzw ") for _ in range(15)]
    assert_batch_identical(text, documents)


def test_non_accelerated_index_parses_per_document():
    text = b"the quick brown fox " * 20
    documents = [b"the quick", b"brown fox jumps"] * 3
    index = SuffixArray(text, accelerated=False)
    assert index.factorize_batch(documents) == [
        refine_streams(text, document) for document in documents
    ]


def test_rejects_non_bytes_documents():
    with pytest.raises(TypeError):
        SuffixArray(b"abc").factorize_batch(["text"])


def test_gate_keeps_small_calls_on_the_per_document_engine(monkeypatch):
    calls = []
    monkeypatch.setattr(
        LockstepParser, "factorize", lambda self, documents: calls.append(documents)
    )
    index = SuffixArray(b"abcdef" * 10)
    index.factorize_batch([b"abc" * 10])
    assert calls == []


@pytest.mark.parametrize("size", [(1 << 20) - 4096, (1 << 20) + 4096])
def test_dictionaries_on_both_sides_of_the_small_text_gate(size):
    """Above ``_SMALL_TEXT_MAX`` the per-document engine is the vectorized
    one, below it the scalar loop; the kernel must equal either."""
    rng = random.Random(size)
    words = [
        bytes(rng.choice(b"abcdefghij") for _ in range(rng.randint(2, 7))) for _ in range(400)
    ]
    stream = b" ".join(rng.choice(words) for _ in range(size // 4))
    text = stream[:size]
    assert (len(text) > SuffixArray._SMALL_TEXT_MAX) == (size > 1 << 20)
    documents = [
        mutated(rng, text, rng.randint(2000, 30000), b"abcdefghij ") for _ in range(12)
    ]
    assert sum(map(len, documents)) >= SuffixArray._BATCH_MIN_BYTES
    assert_batch_identical(text, documents, check_refine=False)


# ----------------------------------------------------------------------
# The encode pipeline
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(21)
    words = [
        bytes(rng.choice(b"etaoinshrdlu") for _ in range(rng.randint(2, 9))) for _ in range(300)
    ]
    base = b" ".join(rng.choice(words) for _ in range(20000))
    dictionary = RlzDictionary(base[:40000])
    documents = [
        mutated(rng, base, rng.randint(4000, 12000), b"etaoinshrdlu .") for _ in range(48)
    ]
    return dictionary, documents


def per_document_blobs(dictionary, documents):
    encoder = PairEncoder("ZZ")
    return [
        encoder.encode_streams(*dictionary.suffix_array.factorize_stream(document))
        for document in documents
    ]


def test_serial_pipeline_runs_the_kernel_and_matches(corpus, monkeypatch):
    dictionary, documents = corpus
    calls = []
    original = LockstepParser.factorize

    def spy(self, batch):
        calls.append(len(batch))
        return original(self, batch)

    monkeypatch.setattr(LockstepParser, "factorize", spy)
    blobs = ParallelCompressor(dictionary).encode_documents(documents)
    assert calls == [len(documents)]
    assert blobs == per_document_blobs(dictionary, documents)


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_two_workers_equal_serial_blobs(corpus, start_method):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{start_method} start method not available")
    dictionary, documents = corpus
    # Each 24-document chunk is large enough for the workers' kernel.
    assert min(sum(map(len, documents[i : i + 24])) for i in (0, 24)) >= (
        SuffixArray._BATCH_MIN_BYTES
    )
    serial = ParallelCompressor(dictionary).encode_documents(documents)
    pooled = ParallelCompressor(
        dictionary, workers=2, chunk_size=24, start_method=start_method
    ).encode_documents(documents)
    assert pooled == serial
