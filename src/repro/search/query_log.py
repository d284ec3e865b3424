"""Query-log generation (the Million Query Track substitute).

The paper drives its "query log" access pattern with 40,000 topics from the
TREC 2009 Million Query Track, run through Zettair: for each query the top
20 document IDs are appended to a request list capped at 100,000 entries.
The track's topics are not redistributable here, so queries are synthesised
from the collection's own vocabulary with a Zipf-like popularity skew, which
produces the property the experiment actually depends on: a long request
list of document IDs with skewed popularity and no spatial locality.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from ..corpus.document import DocumentCollection
from ..errors import SearchError
from .inverted_index import InvertedIndex
from .tokenizer import tokenize_text

__all__ = ["generate_queries", "QueryLogBuilder"]


def generate_queries(
    collection: DocumentCollection,
    num_queries: int = 1000,
    terms_per_query: tuple[int, int] = (1, 4),
    seed: int = 0,
) -> List[str]:
    """Synthesise web-style queries from the collection's own text.

    Each query draws 1-4 terms from randomly chosen documents (favouring
    body text over markup because tokenisation strips tags), which mirrors
    how real query logs are dominated by terms that actually occur in the
    collection.
    """
    if len(collection) == 0:
        raise SearchError("cannot generate queries for an empty collection")
    if num_queries <= 0:
        raise SearchError("num_queries must be positive")
    rng = random.Random(seed)
    queries: List[str] = []
    documents = list(collection)
    while len(queries) < num_queries:
        document = rng.choice(documents)
        terms = tokenize_text(document.content)
        if not terms:
            continue
        count = rng.randint(*terms_per_query)
        query_terms = [rng.choice(terms) for _ in range(count)]
        queries.append(" ".join(query_terms))
    return queries


class QueryLogBuilder:
    """Build the paper's query-log document request list.

    The protocol follows Section 4: run each query, take the top
    ``results_per_query`` document IDs, concatenate them in query order and
    cap the list at ``max_requests`` entries.
    """

    def __init__(
        self,
        index: InvertedIndex,
        results_per_query: int = 20,
        max_requests: int = 100_000,
    ) -> None:
        if results_per_query <= 0:
            raise SearchError("results_per_query must be positive")
        if max_requests <= 0:
            raise SearchError("max_requests must be positive")
        self._index = index
        self._results_per_query = results_per_query
        self._max_requests = max_requests

    @property
    def index(self) -> InvertedIndex:
        """The search index queried to build the log."""
        return self._index

    def build(self, queries: Sequence[str]) -> List[int]:
        """Run ``queries`` and return the concatenated, capped request list."""
        requests: List[int] = []
        for query in queries:
            for result in self._index.search(query, top_k=self._results_per_query):
                requests.append(result.doc_id)
                if len(requests) >= self._max_requests:
                    return requests
        return requests
