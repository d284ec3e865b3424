"""Tokenisation for the search-engine substrate.

The search engine exists to reproduce the paper's *query-log access pattern*
(documents requested in the order a ranked retrieval system would fetch
them), so the tokenizer is a standard lightweight web-text tokenizer: HTML
tags are stripped, text is lower-cased, and alphanumeric runs become terms.
A small stopword list keeps the index size and scoring behaviour sensible.

Terms are defined on raw UTF-8 bytes, and one scanner
(:func:`scan_terms`) serves the index side and the query side alike:

* a **term** is a maximal run of ASCII ``[a-z0-9]`` bytes after ASCII
  lower-casing (``A-Z`` -> ``a-z``), outside markup.  Every other byte —
  punctuation, whitespace and every byte of a non-ASCII character — ends a
  term.  Non-ASCII characters never fold into ASCII: ``İ`` (U+0130) and the
  Kelvin sign (U+212A) are separators, not ``i`` and ``k``;
* **markup** is stripped with the rules a real-web archive needs: nested
  tags (``<a <b>>``) are stripped innermost first, a tag left unterminated
  by a truncated document (``... <a href=``) is stripped to end-of-text
  when ``<`` is followed by a name, ``/`` or ``!`` character, and a bare
  ``<`` used as text (``5 < 6``) is kept.

Because ``<`` and ``>`` are not term bytes, no term run can straddle a tag
edge, so markup never needs rewriting character by character: tag coverage
follows from the ``<``/``>`` positions alone.  Each ``>`` closes the nearest
open ``<`` before it (a clamped-depth running sum), and the stretch after
an open ``<`` lies inside a tag exactly when the depth later falls below
its level (a suffix minimum).  Covered bytes are blanked and the remaining
runs are split out in C, and each term's byte offset in the raw document
comes with it.
"""

from __future__ import annotations

from typing import List, Tuple, Union

import numpy as np

__all__ = [
    "scan_terms",
    "tokenize_text",
    "tokenize_with_offsets",
    "strip_markup",
    "STOPWORDS",
]

#: Minimal English stopword list (high-frequency terms that add noise to
#: BM25 scoring and bloat postings lists).
STOPWORDS = frozenset(
    """a an and are as at be by for from has he in is it its of on that the to
    was were will with this these those or not but they you your our their""".split()
)

_SPACE = 0x20
_OPEN = ord("<")
_CLOSE = ord(">")
#: Characters that make a trailing unterminated ``<`` a tag opening.
_TAG_NAME_START = frozenset(b"/!abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


def _fold_table() -> bytes:
    table = bytearray(b" " * 256)
    for byte in b"abcdefghijklmnopqrstuvwxyz0123456789":
        table[byte] = byte
    for byte in b"ABCDEFGHIJKLMNOPQRSTUVWXYZ":
        table[byte] = byte + 32
    return bytes(table)


#: Term bytes lower-cased, every other byte mapped to a space.
_FOLD = _fold_table()


def _markup_mask(codes: np.ndarray) -> np.ndarray:
    """Which positions of ``codes`` (bytes or code points) lie inside markup.

    Matched tags are covered from ``<`` to ``>`` inclusive, innermost
    first; a trailing unmatched ``<`` followed by a tag-name character is
    covered to the end.  Everything else, an unmatched bare ``<`` or ``>``
    included, is visible text.
    """
    is_open = codes == _OPEN
    is_close = codes == _CLOSE
    positions = np.flatnonzero(is_open | is_close)
    opens = is_open[positions]
    climb = np.zeros(len(positions) + 1, dtype=np.int64)
    np.cumsum(np.where(opens, 1, -1), out=climb[1:])
    # depth[g]: open tags around gap g (the text after the g-th bracket); a
    # ``>`` with nothing open is text, hence the clamp at zero.
    depth = climb - np.minimum.accumulate(climb)
    floor = np.minimum.accumulate(depth[::-1])[::-1]
    covered = np.zeros(len(positions) + 1, dtype=bool)
    covered[:-1] = floor[1:] < depth[:-1]
    # A ``<`` starts the gap after it, a ``>`` ends the gap before it.
    bounds = np.concatenate(([0], positions + ~opens, [len(codes)]))
    mask = np.repeat(covered, np.diff(bounds))
    if depth[-1] > 0:
        last = positions[np.flatnonzero(opens & ~covered[1:])[-1]]
        if last + 1 < len(codes) and int(codes[last + 1]) in _TAG_NAME_START:
            mask[last:] = True
    return mask


def _utf8(text: Union[str, bytes]) -> bytes:
    if isinstance(text, str):
        return text.encode("utf-8", "surrogatepass")
    return bytes(text)


def scan_terms(text: Union[str, bytes]) -> Tuple[List[str], List[int]]:
    """Split UTF-8 bytes (or a ``str``, as its UTF-8 encoding) into terms.

    Returns ``(terms, starts)``: every term in document order, stopwords
    included, and the offset of its first byte in the UTF-8 bytes.
    """
    data = _utf8(text)
    folded = bytearray(data.translate(_FOLD))
    view = np.frombuffer(folded, dtype=np.uint8)
    if b"<" in data:
        view[_markup_mask(np.frombuffer(data, dtype=np.uint8))] = _SPACE
    terms = folded.decode("ascii").split()
    starts = np.flatnonzero(np.diff(view != _SPACE, prepend=False))[::2]
    return terms, starts.tolist()


def strip_markup(text: str) -> str:
    """Remove HTML/XML tags, leaving the visible text.

    Each tag is replaced by spaces of the same length, so the result has
    exactly the length of the input and every surviving character keeps
    its original offset.
    """
    if "<" not in text:
        return text
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").copy()
    codes[_markup_mask(codes)] = _SPACE
    return codes.tobytes().decode("utf-32-le", "surrogatepass")


def tokenize_text(text: Union[str, bytes], remove_stopwords: bool = True) -> List[str]:
    """Tokenise ``text`` (``str``, or UTF-8 ``bytes``) into lower-case terms."""
    terms, _ = scan_terms(text)
    if remove_stopwords:
        return [term for term in terms if term not in STOPWORDS]
    return terms


def tokenize_with_offsets(
    text: str, remove_stopwords: bool = True
) -> List[Tuple[str, int]]:
    """Tokenise ``text`` into ``(term, character_offset)`` pairs.

    Offsets index into ``text`` itself, so the term is
    ``text[offset:offset + len(term)]`` up to case.
    """
    data = _utf8(text)
    terms, starts = scan_terms(data)
    if len(data) != len(text) and starts:
        lead_bytes = (np.frombuffer(data, dtype=np.uint8) & 0xC0) != 0x80
        starts = (np.cumsum(lead_bytes) - 1)[starts].tolist()
    return [
        (term, start)
        for term, start in zip(terms, starts)
        if not (remove_stopwords and term in STOPWORDS)
    ]
