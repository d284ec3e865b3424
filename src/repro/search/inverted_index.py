"""In-memory inverted index with BM25 ranking.

This is the substrate standing in for the Zettair search engine the paper
uses to generate its query-log document requests: collections are indexed,
queries are run, and the ranked document IDs drive the retrieval benchmark.
The index is a classic term -> postings-list structure with document
frequencies and within-document term frequencies, scored with Okapi BM25.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from ..corpus.document import DocumentCollection
from ..errors import SearchError
from .tokenizer import tokenize_text

__all__ = ["Posting", "InvertedIndex", "SearchResult", "bm25_idf", "rank_scores"]


def bm25_idf(num_documents: int, document_frequency: int) -> float:
    """The BM25 inverse document frequency for one term.

    Shared by the in-memory index and the serving-side
    :class:`repro.search.serving.PostingsStore` scorer: when a sharded
    fleet plugs *global* statistics into this same expression, per-shard
    scores are bit-identical to a single-index run.
    """
    if document_frequency == 0:
        return 0.0
    return math.log(
        1.0 + (num_documents - document_frequency + 0.5) / (document_frequency + 0.5)
    )


def rank_scores(scores: Dict[int, float], top_k: int) -> List[SearchResult]:
    """Order accumulated BM25 scores into the final top-``top_k`` ranking.

    The sort key is ``(-score, doc_id)``: equal-score documents rank by
    ascending doc id, deterministically, regardless of accumulation order.
    Every ranked read path (``search``, ``search_many``, the serving-side
    scorer) funnels through this one function so tie-breaking can never
    drift between them.
    """
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [SearchResult(doc_id=doc_id, score=score) for doc_id, score in ranked[:top_k]]


@dataclass(frozen=True)
class Posting:
    """One (document, term frequency) pair in a postings list."""

    doc_id: int
    term_frequency: int


@dataclass(frozen=True)
class SearchResult:
    """A ranked search hit."""

    doc_id: int
    score: float


class InvertedIndex:
    """Term -> postings inverted index with BM25 scoring.

    Parameters
    ----------
    k1, b:
        Standard BM25 parameters; defaults (1.2, 0.75) are the common
        textbook values.
    """

    def __init__(self, k1: float = 1.2, b: float = 0.75) -> None:
        self._postings: Dict[str, List[Posting]] = {}
        self._doc_lengths: Dict[int, int] = {}
        self._k1 = k1
        self._b = b

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def add_document(self, doc_id: int, text: Union[str, bytes]) -> None:
        """Tokenise and index one document (``str`` or UTF-8 ``bytes``)."""
        if doc_id in self._doc_lengths:
            raise SearchError(f"document {doc_id} is already indexed")
        terms = tokenize_text(text)
        self._doc_lengths[doc_id] = len(terms)
        frequencies: Dict[str, int] = {}
        for term in terms:
            frequencies[term] = frequencies.get(term, 0) + 1
        for term, frequency in frequencies.items():
            self._postings.setdefault(term, []).append(Posting(doc_id, frequency))

    @classmethod
    def build(cls, collection: DocumentCollection, k1: float = 1.2, b: float = 0.75) -> "InvertedIndex":
        """Index every document of ``collection``."""
        index = cls(k1=k1, b=b)
        for document in collection:
            index.add_document(document.doc_id, document.content)
        return index

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of indexed documents."""
        return len(self._doc_lengths)

    @property
    def num_terms(self) -> int:
        """Number of distinct terms in the index."""
        return len(self._postings)

    @property
    def average_document_length(self) -> float:
        """Mean document length in terms."""
        if not self._doc_lengths:
            return 0.0
        return sum(self._doc_lengths.values()) / len(self._doc_lengths)

    def document_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def postings(self, term: str) -> Sequence[Posting]:
        """The postings list for ``term`` (empty if unindexed)."""
        return self._postings.get(term, ())

    def vocabulary(self) -> List[str]:
        """All indexed terms (sorted)."""
        return sorted(self._postings)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _idf(self, term: str) -> float:
        return bm25_idf(self.num_documents, self.document_frequency(term))

    def search(self, query: str, top_k: int = 20) -> List[SearchResult]:
        """Rank documents for ``query`` with BM25; return the top ``top_k``."""
        if top_k <= 0:
            raise SearchError("top_k must be positive")
        terms = tokenize_text(query)
        if not terms:
            return []
        average_length = self.average_document_length or 1.0
        scores: Dict[int, float] = {}
        for term in terms:
            idf = self._idf(term)
            if idf == 0.0:
                continue
            for posting in self.postings(term):
                length_norm = 1.0 - self._b + self._b * (
                    self._doc_lengths[posting.doc_id] / average_length
                )
                tf_component = (
                    posting.term_frequency * (self._k1 + 1.0)
                    / (posting.term_frequency + self._k1 * length_norm)
                )
                scores[posting.doc_id] = scores.get(posting.doc_id, 0.0) + idf * tf_component
        return rank_scores(scores, top_k)

    def search_many(self, queries: Iterable[str], top_k: int = 20) -> List[List[SearchResult]]:
        """Run a batch of queries."""
        return [self.search(query, top_k=top_k) for query in queries]
