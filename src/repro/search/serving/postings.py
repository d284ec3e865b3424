"""The on-disk inverted index served next to a compressed archive.

A :class:`PostingsStore` is one sidecar file (``<container>.idx``) written
at build time and loaded read-only at serving time:

    +-----------------------------------------------------------------+
    | magic "RPIX0001"                                                |
    | u64 doc_count · u64 total_doc_length · u64 term_count           |
    | u64 postings_len · u32 postings_crc                             |
    | u64 doclens_len  · u32 doclens_crc                              |
    | u32 header_crc  (over everything above)                         |
    +-----------------------------------------------------------------+
    | postings section: per term, sorted by term —                    |
    |   uvarint len(term) · term ASCII · uvarint df ·                 |
    |   df × (uvarint doc-id delta · uvarint tf · uvarint hit offset) |
    +-----------------------------------------------------------------+
    | doc-length section: per document, sorted by doc id —            |
    |   uvarint count · count × (uvarint doc-id delta · uvarint len)  |
    +-----------------------------------------------------------------+

Posting lists store doc-id *deltas* (ascending ids, first delta is the id
itself) so they varint-compress well; each posting also records the byte
offset of the term's first occurrence in the raw document, which is what
lets the server decode only a window around a hit
(:meth:`repro.storage.RlzStore.get_window`) instead of the whole document
when building query-biased snippets.

Integrity and atomicity mirror the RPRC2 container: every section carries
a CRC32 checked at open (a flipped bit raises
:class:`~repro.errors.CorruptArchiveError`, never a silently wrong
ranking), and writes go to a same-directory temporary that is fsync'd and
``os.replace``\\ d into place, so a crashed build leaves no torn index.
A file whose checksums hold but whose contents break the format — a
non-ASCII, unsorted or repeated term, an empty posting list, a doc id
repeated within a list or missing from the doc-length table — raises
:class:`~repro.errors.StorageError` at open, not an error mid-search.

Scoring is doc-at-a-time Okapi BM25 over the shard-local lists, using
either the store's own statistics (a single unpartitioned archive) or
caller-provided :class:`GlobalStats` (a sharded fleet, after the stats
exchange) — the maths is shared with
:class:`repro.search.InvertedIndex`, so the two rankings agree exactly.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ...errors import CorruptArchiveError, SearchError, StorageError
from ..inverted_index import bm25_idf
from ..tokenizer import STOPWORDS, scan_terms, tokenize_text

__all__ = [
    "GlobalStats",
    "PostingsStore",
    "ScoredDoc",
    "build_postings",
    "index_sidecar_path",
    "write_postings",
]

_MAGIC = b"RPIX0001"
_COUNTS = struct.Struct("<QQQ")
_SECTION = struct.Struct("<QI")
_U32 = struct.Struct("<I")


def index_sidecar_path(container_path: Union[str, Path]) -> Path:
    """Where the search index for a container lives: ``<container>.idx``."""
    container_path = Path(container_path)
    return container_path.with_name(container_path.name + ".idx")


@dataclass(frozen=True)
class GlobalStats:
    """Collection-wide statistics a sharded SEARCH is scored against.

    ``num_documents`` and ``total_doc_length`` cover the *whole*
    collection; ``document_frequencies`` maps each query term to its
    collection-wide df.  Plugging these into the shard-local scorer makes
    per-shard BM25 scores identical to what one big index over every
    document would compute — which is what lets a fan-out merge produce a
    globally correct ranking.
    """

    num_documents: int
    total_doc_length: int
    document_frequencies: Dict[str, int]


@dataclass(frozen=True)
class ScoredDoc:
    """One ranked hit from a :class:`PostingsStore` scoring pass.

    ``hit_offset`` is the smallest first-occurrence byte offset among the
    query terms that matched this document — the anchor a query-biased
    snippet window is centred on.
    """

    doc_id: int
    score: float
    hit_offset: int


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------
def _write_uvarint(buffer: bytearray, value: int) -> None:
    while value >= 0x80:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def _read_uvarint(blob: bytes, offset: int) -> Tuple[int, int]:
    value = 0
    shift = 0
    while True:
        if offset >= len(blob):
            raise StorageError("postings index truncated inside a varint")
        byte = blob[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 63:
            raise StorageError("postings index varint overflows 64 bits")


# ----------------------------------------------------------------------
# Building and writing
# ----------------------------------------------------------------------
def build_postings(
    documents: Iterable[Tuple[int, Union[str, bytes]]],
) -> "PostingsStore":
    """Tokenise ``documents`` (``(doc_id, text)`` pairs) into an in-memory
    :class:`PostingsStore` ready to be written or queried.

    Text may be UTF-8 ``bytes`` (scanned as is, invalid sequences
    included) or ``str`` (scanned as its UTF-8 encoding).  Hit offsets are
    *byte* offsets into the raw document, so the serving side can hand
    them straight to :meth:`~repro.storage.RlzStore.get_window`.
    """
    postings: Dict[str, List[Tuple[int, int, int]]] = {}
    doc_lengths: Dict[int, int] = {}
    for doc_id, content in documents:
        doc_id = int(doc_id)
        if doc_id < 0:
            raise SearchError(f"cannot index negative doc id {doc_id}")
        if doc_id in doc_lengths:
            raise SearchError(f"document {doc_id} is already indexed")
        terms, starts = scan_terms(content)
        frequencies = Counter(terms)
        first_offsets = dict(zip(reversed(terms), reversed(starts)))
        length = len(terms)
        for stopword in STOPWORDS:
            length -= frequencies.pop(stopword, 0)
        doc_lengths[doc_id] = length
        for term, tf in frequencies.items():
            postings.setdefault(term, []).append((doc_id, tf, first_offsets[term]))
    for term_postings in postings.values():
        term_postings.sort()
    return PostingsStore(postings, doc_lengths)


def write_postings(
    documents: Iterable[Tuple[int, Union[str, bytes]]],
    path: Union[str, Path],
) -> Path:
    """Build an index over ``documents`` and persist it at ``path``."""
    return build_postings(documents).write(path)


class PostingsStore:
    """An inverted index with persistent form and BM25 scoring.

    Construct through :func:`build_postings` (from documents) or
    :meth:`open` (from a sidecar file); the constructor itself takes the
    already-assembled postings and doc-length maps.
    """

    def __init__(
        self,
        postings: Dict[str, List[Tuple[int, int, int]]],
        doc_lengths: Dict[int, int],
    ) -> None:
        self._postings = postings
        self._doc_lengths = doc_lengths
        self._total_doc_length = sum(doc_lengths.values())

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    @property
    def num_terms(self) -> int:
        """Number of distinct terms."""
        return len(self._postings)

    @property
    def total_doc_length(self) -> int:
        """Sum of document lengths in terms (the avgdl numerator)."""
        return self._total_doc_length

    def document_frequency(self, term: str) -> int:
        """Number of indexed documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def postings(self, term: str) -> Sequence[Tuple[int, int, int]]:
        """The ``(doc_id, tf, first_hit_offset)`` list for ``term``."""
        return self._postings.get(term, ())

    def doc_length(self, doc_id: int) -> int:
        """Length in terms of one indexed document."""
        return self._doc_lengths[doc_id]

    def term_stats(self, query: str) -> Tuple[int, int, Dict[str, int]]:
        """The stats-exchange leg of a sharded search.

        Returns this shard's ``(num_documents, total_doc_length,
        {term: df})`` for the query's terms; a cluster client sums these
        across shards into the :class:`GlobalStats` the scoring leg uses.
        """
        frequencies = {
            term: self.document_frequency(term)
            for term in set(tokenize_text(query))
        }
        return self.num_documents, self._total_doc_length, frequencies

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        top_k: int = 20,
        k1: float = 1.2,
        b: float = 0.75,
        global_stats: Optional[GlobalStats] = None,
    ) -> List[ScoredDoc]:
        """Doc-at-a-time BM25 over the shard-local postings lists.

        Without ``global_stats`` the store's own counters drive idf and
        avgdl (correct for an unpartitioned archive); with them, scores
        match a single index over the whole collection exactly.  Ties
        break by ascending doc id, the same rule as
        :func:`repro.search.rank_scores`.
        """
        if top_k <= 0:
            raise SearchError("top_k must be positive")
        terms = tokenize_text(query)
        if not terms:
            return []
        if global_stats is None:
            num_documents = self.num_documents
            total_length = self._total_doc_length
            frequency_of = self.document_frequency
        else:
            num_documents = global_stats.num_documents
            total_length = global_stats.total_doc_length
            frequency_of = lambda term: global_stats.document_frequencies.get(term, 0)
        average_length = (total_length / num_documents if num_documents else 0.0) or 1.0

        # One cursor per query term occurrence (duplicated terms score
        # twice, as they do in InvertedIndex.search); the merge visits
        # candidate documents in ascending doc-id order and, within one
        # document, accumulates term contributions in query order — the
        # identical floating-point summation order to the term-at-a-time
        # in-memory index, which is what keeps scores bit-equal.
        cursors: List[list] = []  # [idf, postings, next-position], mutable
        for term in terms:
            idf = bm25_idf(num_documents, frequency_of(term))
            if idf == 0.0:
                continue
            term_postings = self.postings(term)
            if term_postings:
                cursors.append([idf, term_postings, 0])
        results: List[ScoredDoc] = []
        while True:
            current = None
            for idf, term_postings, position in cursors:
                if position < len(term_postings):
                    doc_id = term_postings[position][0]
                    if current is None or doc_id < current:
                        current = doc_id
            if current is None:
                break
            score = 0.0
            hit_offset = None
            length_norm = 1.0 - b + b * (self._doc_lengths[current] / average_length)
            for cursor in cursors:
                idf, term_postings, position = cursor
                if position >= len(term_postings):
                    continue
                doc_id, tf, offset = term_postings[position]
                if doc_id != current:
                    continue
                tf_component = tf * (k1 + 1.0) / (tf + k1 * length_norm)
                score += idf * tf_component
                if hit_offset is None or offset < hit_offset:
                    hit_offset = offset
                cursor[2] = position + 1
            results.append(ScoredDoc(current, score, hit_offset or 0))
        results.sort(key=lambda hit: (-hit.score, hit.doc_id))
        return results[:top_k]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def write(self, path: Union[str, Path]) -> Path:
        """Persist the index at ``path`` (atomic tmp+fsync+replace)."""
        path = Path(path)
        postings_blob = bytearray()
        for term in sorted(self._postings):
            encoded = term.encode("ascii")
            _write_uvarint(postings_blob, len(encoded))
            postings_blob += encoded
            term_postings = self._postings[term]
            _write_uvarint(postings_blob, len(term_postings))
            previous = 0
            for doc_id, tf, offset in term_postings:
                _write_uvarint(postings_blob, doc_id - previous)
                _write_uvarint(postings_blob, tf)
                _write_uvarint(postings_blob, offset)
                previous = doc_id
        doclens_blob = bytearray()
        _write_uvarint(doclens_blob, len(self._doc_lengths))
        previous = 0
        for doc_id in sorted(self._doc_lengths):
            _write_uvarint(doclens_blob, doc_id - previous)
            _write_uvarint(doclens_blob, self._doc_lengths[doc_id])
            previous = doc_id

        header = bytearray(_MAGIC)
        header += _COUNTS.pack(
            len(self._doc_lengths), self._total_doc_length, len(self._postings)
        )
        header += _SECTION.pack(len(postings_blob), zlib.crc32(postings_blob))
        header += _SECTION.pack(len(doclens_blob), zlib.crc32(doclens_blob))
        header += _U32.pack(zlib.crc32(header))

        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as handle:
                handle.write(header)
                handle.write(postings_blob)
                handle.write(doclens_blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise
        return path

    @classmethod
    def open(cls, path: Union[str, Path]) -> "PostingsStore":
        """Load a sidecar index, verifying every section checksum."""
        path = Path(path)
        blob = path.read_bytes()
        head_size = len(_MAGIC) + _COUNTS.size + 2 * _SECTION.size + _U32.size
        if len(blob) < head_size:
            raise StorageError(f"{path} is too short to be a postings index")
        if blob[: len(_MAGIC)] != _MAGIC:
            raise StorageError(f"{path} is not a postings index (bad magic)")
        header = blob[: head_size - _U32.size]
        (header_crc,) = _U32.unpack_from(blob, head_size - _U32.size)
        if zlib.crc32(header) != header_crc:
            raise CorruptArchiveError(
                f"postings index {path}: header failed its CRC32 check"
            )
        offset = len(_MAGIC)
        doc_count, total_doc_length, term_count = _COUNTS.unpack_from(blob, offset)
        offset += _COUNTS.size
        postings_len, postings_crc = _SECTION.unpack_from(blob, offset)
        offset += _SECTION.size
        doclens_len, doclens_crc = _SECTION.unpack_from(blob, offset)
        if len(blob) != head_size + postings_len + doclens_len:
            raise StorageError(
                f"postings index {path}: recorded sections need "
                f"{head_size + postings_len + doclens_len} bytes, "
                f"file has {len(blob)}"
            )
        postings_blob = blob[head_size : head_size + postings_len]
        doclens_blob = blob[head_size + postings_len :]
        if zlib.crc32(postings_blob) != postings_crc:
            raise CorruptArchiveError(
                f"postings index {path}: postings section failed its CRC32 check"
            )
        if zlib.crc32(doclens_blob) != doclens_crc:
            raise CorruptArchiveError(
                f"postings index {path}: doc-length section failed its CRC32 check"
            )

        def malformed(reason: str) -> StorageError:
            return StorageError(f"postings index {path}: {reason}")

        doc_lengths: Dict[int, int] = {}
        position = 0
        count, position = _read_uvarint(doclens_blob, position)
        doc_id = 0
        for index in range(count):
            delta, position = _read_uvarint(doclens_blob, position)
            if index and not delta:
                raise malformed(f"doc-length table repeats document {doc_id}")
            doc_id += delta
            length, position = _read_uvarint(doclens_blob, position)
            doc_lengths[doc_id] = length
        if position != len(doclens_blob):
            raise malformed("trailing doc-length bytes")
        if len(doc_lengths) != doc_count:
            raise malformed(
                f"doc-length table holds {len(doc_lengths)} documents, "
                f"header says {doc_count}"
            )

        postings: Dict[str, List[Tuple[int, int, int]]] = {}
        position = 0
        previous_term = None
        for _ in range(term_count):
            length, position = _read_uvarint(postings_blob, position)
            if position + length > len(postings_blob):
                raise malformed("truncated term")
            term_bytes = postings_blob[position : position + length]
            position += length
            if not term_bytes.isascii():
                raise malformed(f"term {term_bytes!r} is not ASCII")
            if previous_term is not None and term_bytes <= previous_term:
                raise malformed(f"term {term_bytes!r} is out of order or repeated")
            previous_term = term_bytes
            df, position = _read_uvarint(postings_blob, position)
            if not df:
                raise malformed(f"term {term_bytes!r} has an empty posting list")
            term_postings: List[Tuple[int, int, int]] = []
            doc_id = 0
            for index in range(df):
                delta, position = _read_uvarint(postings_blob, position)
                if index and not delta:
                    raise malformed(f"term {term_bytes!r} repeats document {doc_id}")
                doc_id += delta
                if doc_id not in doc_lengths:
                    raise malformed(
                        f"term {term_bytes!r} posts document {doc_id}, "
                        "which the doc-length table lacks"
                    )
                tf, position = _read_uvarint(postings_blob, position)
                hit, position = _read_uvarint(postings_blob, position)
                term_postings.append((doc_id, tf, hit))
            postings[term_bytes.decode("ascii")] = term_postings
        if position != len(postings_blob):
            raise malformed("trailing postings bytes")

        store = cls(postings, doc_lengths)
        if store.total_doc_length != total_doc_length:
            raise malformed(
                f"doc lengths sum to {store.total_doc_length}, "
                f"header says {total_doc_length}"
            )
        return store
