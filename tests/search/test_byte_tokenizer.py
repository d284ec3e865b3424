"""The byte-level scanner against a ``str`` reference builder.

The production tokenizer (:func:`repro.search.tokenizer.scan_terms`) works
on raw UTF-8 bytes.  The reference below is the earlier ``str`` pipeline —
regex tag stripping to a fixpoint, ``str.lower``, a term regex, and hit
offsets re-encoded to bytes — kept here as the identity oracle only.

The two definitions differ on exactly two code points, the only ones whose
``str.lower()`` yields an ASCII term character: ``İ`` (U+0130) and the
Kelvin sign (U+212A).  The byte scanner treats both as separators.  On
every text without them, the sidecar bytes must be identical.

What must hold:

* identical sidecar bytes to the oracle on generated gov and wiki
  collections and on arbitrary text without U+0130 / U+212A;
* every recorded hit offset points at the term in the *raw* bytes, also
  for invalid UTF-8 (the oracle counted it in the replacement text);
* the index side and the query side tokenize alike, so
  :class:`PostingsStore` and :class:`InvertedIndex` rank identically.
"""

from __future__ import annotations

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.corpus import generate_gov_collection, generate_wikipedia_collection
from repro.search import (
    STOPWORDS,
    InvertedIndex,
    PostingsStore,
    build_postings,
    strip_markup,
    tokenize_text,
    tokenize_with_offsets,
)

# ----------------------------------------------------------------------
# The reference: the str pipeline the byte scanner replaced
# ----------------------------------------------------------------------
_TAG = re.compile(r"<[^<>]*>")
_UNTERMINATED_TAG = re.compile(r"<[/!a-zA-Z][^<>]*\Z")
_TERM = re.compile(r"[a-z0-9]+")


def _blank(match):
    return " " * len(match.group(0))


def oracle_strip_markup(text):
    previous = None
    while previous != text:
        previous = text
        text = _TAG.sub(_blank, text)
    return _UNTERMINATED_TAG.sub(_blank, text)


def oracle_tokenize_with_offsets(text):
    """``(term, character offset)`` pairs, stopwords removed.

    ``str.lower`` keeps offsets only for text without U+0130, which is
    outside the oracle's domain.
    """
    lowered = oracle_strip_markup(text).lower()
    return [
        (match.group(), match.start())
        for match in _TERM.finditer(lowered)
        if match.group() not in STOPWORDS
    ]


def oracle_build_postings(documents):
    postings, doc_lengths = {}, {}
    for doc_id, content in documents:
        if isinstance(content, bytes):
            content = content.decode("utf-8", errors="replace")
        pairs = oracle_tokenize_with_offsets(content)
        doc_lengths[doc_id] = len(pairs)
        frequencies = {}
        for term, offset in pairs:
            tf, first = frequencies.get(term, (0, offset))
            frequencies[term] = (tf + 1, first)
        for term, (tf, offset) in frequencies.items():
            byte_offset = len(content[:offset].encode("utf-8"))
            postings.setdefault(term, []).append((doc_id, tf, byte_offset))
    for term_postings in postings.values():
        term_postings.sort()
    return PostingsStore(postings, doc_lengths)


def _sidecar_bytes(store, path):
    return store.write(path).read_bytes()


# ----------------------------------------------------------------------
# Strategies: text soup with markup fragments and the awkward code points
# ----------------------------------------------------------------------
FOLDING = "\u0130\u212a"  # İ and the Kelvin sign: str.lower() gives "i\u0307" / "k"
FRAGMENTS = [
    "<", ">", "<a ", "</p>", "<b>", "<!--", "-->", "< ", " >", "<<", ">>",
    'href="x.html"', "The ", "AND ", "Budget", "report2011 ", "—", "é", "ß",
    " ", "\n", "5 < 6", "x", "Q9",
]


def texts(extra=()):
    pieces = st.one_of(
        st.sampled_from(FRAGMENTS + list(extra)),
        st.text(alphabet=st.characters(exclude_characters=FOLDING, exclude_categories=("Cs",)), max_size=6),
    )
    return st.lists(pieces, max_size=24).map("".join)


def raw_bytes():
    pieces = st.one_of(
        st.sampled_from([fragment.encode() for fragment in FRAGMENTS + list(FOLDING)]),
        st.binary(max_size=6),
    )
    return st.lists(pieces, max_size=24).map(b"".join)


# ----------------------------------------------------------------------
# Identity with the reference
# ----------------------------------------------------------------------
def test_sidecar_identical_to_oracle_on_generated_collections(tmp_path):
    collections = {
        "gov": generate_gov_collection(num_documents=30, target_document_size=8 * 1024, seed=4),
        "wiki": generate_wikipedia_collection(
            num_documents=12, target_document_size=16 * 1024, seed=4
        ),
    }
    for name, collection in collections.items():
        documents = [(document.doc_id, document.content) for document in collection]
        new = _sidecar_bytes(build_postings(documents), tmp_path / f"{name}.idx")
        old = _sidecar_bytes(oracle_build_postings(documents), tmp_path / f"{name}-oracle.idx")
        assert new == old, name


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(texts(), min_size=1, max_size=4))
def test_sidecar_identical_to_oracle_on_arbitrary_text(tmp_path_factory, documents):
    directory = tmp_path_factory.getbasetemp()
    numbered = list(enumerate(documents))
    assert _sidecar_bytes(build_postings(numbered), directory / "new.idx") == _sidecar_bytes(
        oracle_build_postings(numbered), directory / "old.idx"
    )


@settings(max_examples=200, deadline=None)
@given(texts(extra=FOLDING))
def test_strip_markup_equals_oracle(text):
    # Markup rules do not depend on case folding, so this holds on every text.
    assert strip_markup(text) == oracle_strip_markup(text)


@settings(max_examples=200, deadline=None)
@given(texts())
def test_offsets_equal_oracle(text):
    assert tokenize_with_offsets(text) == oracle_tokenize_with_offsets(text)


# ----------------------------------------------------------------------
# Hit offsets are raw byte offsets, invalid UTF-8 included
# ----------------------------------------------------------------------
def test_invalid_utf8_hit_offset_is_the_raw_byte_offset():
    store = build_postings([(1, b"\xff\xff hello")])
    assert list(store.postings("hello")) == [(1, 1, 3)]


@settings(max_examples=200, deadline=None)
@given(raw_bytes())
def test_every_hit_offset_points_at_its_term_in_the_raw_bytes(content):
    store = build_postings([(1, content)])
    terms = set(tokenize_text(content))
    assert store.num_terms == len(terms)
    for term in terms:
        ((doc_id, tf, offset),) = store.postings(term)
        assert content[offset : offset + len(term)].lower() == term.encode()
    # Invalid bytes are separators, as U+FFFD is in the decoded text.
    if not any(character.encode() in content for character in FOLDING):
        decoded = content.decode("utf-8", errors="replace")
        assert tokenize_text(content) == [
            term for term, _ in oracle_tokenize_with_offsets(decoded)
        ]


# ----------------------------------------------------------------------
# One tokenizer: index side and query side agree
# ----------------------------------------------------------------------
def test_folding_code_points_are_separators_on_both_sides():
    assert tokenize_text("İstanbul") == ["stanbul"]
    assert tokenize_with_offsets("İstanbul") == [("stanbul", 1)]
    assert tokenize_text("5\u212aelvin") == ["5", "elvin"]
    assert tokenize_text("İstanbul".encode()) == ["stanbul"]
    assert build_postings([(1, "İstanbul")]).postings("stanbul") == [(1, 1, 2)]


@settings(max_examples=200, deadline=None)
@given(texts(extra=FOLDING))
def test_tokenize_text_and_offsets_agree(text):
    assert [term for term, _ in tokenize_with_offsets(text)] == tokenize_text(text)
    for term, offset in tokenize_with_offsets(text):
        assert text[offset : offset + len(term)].lower() == term


@settings(max_examples=150, deadline=None)
@given(st.lists(texts(extra=FOLDING), min_size=1, max_size=5), texts(extra=FOLDING))
def test_postings_store_ranks_exactly_like_inverted_index(documents, query):
    index = InvertedIndex()
    for doc_id, text in enumerate(documents):
        index.add_document(doc_id, text)
    store = build_postings(enumerate(documents))
    assert store.total_doc_length / store.num_documents == index.average_document_length
    for term in index.vocabulary():
        assert [(doc_id, tf) for doc_id, tf, _ in store.postings(term)] == [
            (posting.doc_id, posting.term_frequency) for posting in index.postings(term)
        ]
    hits = store.search(query, top_k=10)
    expected = index.search(query, top_k=10)
    assert [(hit.doc_id, hit.score) for hit in hits] == [
        (result.doc_id, result.score) for result in expected
    ]
