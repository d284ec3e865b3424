"""Suffix array construction by prefix doubling, vectorised with numpy.

The Manber-Myers prefix-doubling algorithm sorts suffixes by their first
``2^k`` characters in round ``k``; each round is a re-ranking that numpy
performs with one ``argsort`` over a whole array.  The total cost is
O(n log n) with very small Python-level overhead, which makes it the
default construction for the multi-megabyte RLZ dictionaries used in this
reproduction (the pure-Python SA-IS implementation in
:mod:`repro.suffix.sais` is linear-time but dominated by interpreter
overhead).

Byte texts start from the ranks of their big-endian 8-byte keys, so the
first round already sorts by 16 characters (the 1-, 2- and 4-character
rounds are skipped).  Ranks are ``int32`` and each round sorts one
combined ``int64`` key, ``rank[i] * (n + 1) + rank[i + k] + 1``, instead of
a two-key ``lexsort``; temporaries are dropped as soon as a round is done
with them.

The output is identical to :func:`repro.suffix.sais.sais`; the two are
cross-verified by the test suite on random and adversarial inputs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["suffix_array_doubling"]

_KEY_WIDTH = 8


def suffix_array_doubling(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Return the suffix array of ``data`` as an ``int64`` numpy array.

    Parameters
    ----------
    data:
        Text to index.  ``bytes``/``bytearray`` are interpreted as unsigned
        byte sequences; a numpy integer array is used as-is (values must be
        non-negative).

    Returns
    -------
    numpy.ndarray
        Array of suffix start positions in lexicographic order of the
        corresponding suffixes (no sentinel entry).
    """
    if isinstance(data, (bytes, bytearray)):
        symbols = np.frombuffer(bytes(data), dtype=np.uint8)
    else:
        symbols = np.asarray(data, dtype=np.int64)
        if symbols.size and symbols.min() < 0:
            raise ValueError("suffix_array_doubling requires non-negative symbols")

    n = symbols.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    if n >= 1 << 31:
        raise ValueError("suffix_array_doubling supports texts below 2 GiB")

    if symbols.dtype == np.uint8 or int(symbols.max()) < 256:
        order, rank = _key_ranks(symbols.astype(np.uint8, copy=False))
        k = _KEY_WIDTH
    else:
        order = np.argsort(symbols, kind="stable")
        rank = np.unique(symbols, return_inverse=True)[1].astype(np.int32)
        k = 1

    boundary = np.empty(n, dtype=bool)
    boundary[0] = False
    while int(rank[order[-1]]) != n - 1 and k < n:
        # One combined key per suffix: the rank of its first k characters,
        # then the rank of the next k (+1, so 0 marks "past the end", which
        # sorts before every real rank).
        combined = rank.astype(np.int64)
        combined *= n + 1
        combined[: n - k] += rank[k:]
        combined[: n - k] += 1
        order = np.argsort(combined)
        sorted_keys = combined[order]
        del combined
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
        del sorted_keys
        rank[order] = np.cumsum(boundary, dtype=np.int32)
        k *= 2
    return order.astype(np.int64, copy=False)


def _key_ranks(text: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Order and dense ranks of every suffix by its first 8 bytes.

    Keys are big-endian and zero-padded past the end, so a suffix shorter
    than 8 bytes shares its key with every suffix it is a proper prefix of
    followed by zeros.  It still sorts first among them: a stable sort of
    the reversed key array puts later (shorter) suffixes ahead of earlier
    ones with the same key, and each short suffix gets a rank of its own.
    """
    n = text.size
    padded = np.zeros(n + _KEY_WIDTH - 1, dtype=np.uint8)
    padded[:n] = text
    keys = np.ndarray((n,), dtype=">u8", buffer=padded, strides=(1,)).astype(np.uint64)
    order = np.argsort(keys[::-1], kind="stable")
    np.subtract(n - 1, order, out=order)
    sorted_keys = keys[order]
    del keys
    boundary = np.empty(n, dtype=bool)
    boundary[0] = False
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    del sorted_keys
    # The suffix after a short one in this order is strictly greater.
    boundary[1:] |= order[:-1] > n - _KEY_WIDTH
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.cumsum(boundary, dtype=np.int32)
    return order, rank
