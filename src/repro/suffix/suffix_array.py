"""High-level suffix array facade used by the RLZ factorizer.

:class:`SuffixArray` wraps a byte string (typically the RLZ dictionary) and
its suffix array, and exposes the two operations the paper's algorithms in
Figure 1 rely on:

* :meth:`SuffixArray.refine` — the ``Refine`` function: given an interval
  ``[lb, rb]`` of suffixes whose first ``offset`` characters match the
  pattern so far, narrow it to the sub-interval whose next character equals
  a given byte.
* :meth:`SuffixArray.longest_match` — the inner loop of ``Factor``: the
  longest prefix of a query that occurs anywhere in the indexed text,
  returned as a (position, length) pair.

Two execution modes are provided:

* the *faithful* mode (``accelerated=False``) follows the paper's pseudo-code
  exactly: one binary-search refinement per matched character;
* the *accelerated* mode (default) produces the identical greedy parse but
  advances eight characters per step where possible, by binary searching
  over precomputed 64-bit suffix keys with ``numpy.searchsorted`` and
  falling back to per-character refinement for the final partial step.  The
  ablation benchmark verifies that both modes emit byte-identical factor
  streams and measures the speed difference.

The accelerated mode additionally maintains a *jump-start index* (enabled by
default, see the ``jump_start`` parameter) mapping the 8-byte key of every
suffix to its precomputed suffix-array interval.  The first step of every
``longest_match`` then starts inside the exact interval that a
``searchsorted`` over the full key array would reach, in O(1) instead of
O(log n).  A companion 4-byte index jump-starts short factors, and a
256-entry first-byte interval table plays the same role for the
per-character fallback.  All are derived from the level-0 keys in one
vectorized numpy pass and change no parse.

Two jump-index representations exist.  Small texts (at most
``_SMALL_TEXT_MAX`` bytes) default to Python hash dicts — the fastest probe,
but on the order of a hundred bytes per distinct key.  Larger texts default
to the :class:`repro.suffix.jump_index.CompactJumpIndex` — flat numpy arrays
probed through memoryviews at ~10 bytes per distinct key — so *multi-MB
dictionaries*, the regime the paper's RLZ design actually targets, get
jump-start acceleration instead of silently falling back to a binary search
over the full key array (the pre-PR-2 behaviour).  ``jump_start`` accepts
``"auto"`` (the size-based default just described), ``"dict"``,
``"compact"`` or ``"off"``; the parse is identical under every mode.

Whole collections are parsed by :meth:`SuffixArray.factorize_batch`, which
runs the lockstep numpy kernel of :mod:`repro.suffix.batch` over many
documents at once and needs none of the per-document search state above.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .batch import PADDING, LockstepParser
from .doubling import suffix_array_doubling
from .jump_index import CompactJumpIndex
from .sais import sais

__all__ = ["SuffixArray", "SuffixInterval"]

_KEY_WIDTH = 8  # bytes folded into one uint64 key per acceleration step


@dataclass(frozen=True)
class SuffixInterval:
    """An inclusive suffix-array interval ``[lb, rb]``.

    ``is_empty`` is true when the interval contains no suffixes
    (``lb > rb``), mirroring the paper's "no longer a valid interval" check.
    """

    lb: int
    rb: int

    @property
    def is_empty(self) -> bool:
        return self.lb > self.rb

    @property
    def size(self) -> int:
        return 0 if self.is_empty else self.rb - self.lb + 1


_EMPTY_INTERVAL = SuffixInterval(0, -1)


class SuffixArray:
    """Suffix array over a byte string with interval-refinement search.

    Parameters
    ----------
    text:
        The text to index (the RLZ dictionary in normal use).
    algorithm:
        ``"doubling"`` (default) uses the numpy prefix-doubling construction;
        ``"sais"`` uses the pure-Python linear-time SA-IS construction.
    accelerated:
        Enable the 8-byte-key acceleration of :meth:`longest_match`.  The
        parse produced is identical either way; disabling it gives the
        paper's literal per-character algorithm.
    jump_start:
        Configure the k-gram jump-start index (first 8-byte key of every
        suffix -> its suffix-array interval) that lets each
        ``longest_match`` skip the initial binary search over the full
        array.  ``True`` (default) selects ``"auto"``: a hash dict for
        texts up to ``_SMALL_TEXT_MAX`` bytes, the compact numpy index for
        anything larger.  ``"dict"`` and ``"compact"`` force one
        representation regardless of size (the dict probes faster but
        costs ~100 B per distinct key, so it is an opt-in for texts where
        that is affordable); ``False``/``"off"`` disables the index.  Only
        meaningful when ``accelerated`` is true; the parse is identical
        under every setting.
    """

    #: Interval sizes at or below this threshold are scanned candidate by
    #: candidate instead of refined further; with a handful of candidates the
    #: direct scan is both simpler and faster.  (Measured optimum with the
    #: first-byte prefilter in ``_scan_interval``; the chosen switch-over
    #: point never changes the parse, only which code path computes it.)
    _SCAN_THRESHOLD = 4

    #: Valid ``jump_start`` mode strings (``True`` -> "auto", ``False`` -> "off").
    _JUMP_MODES = ("auto", "dict", "compact", "off")

    def __init__(
        self,
        text: bytes,
        algorithm: str = "doubling",
        accelerated: bool = True,
        jump_start: Union[bool, str] = True,
    ) -> None:
        if not isinstance(text, (bytes, bytearray)):
            raise TypeError("SuffixArray requires a bytes-like text")
        self._text = bytes(text)
        self._n = len(self._text)
        if algorithm == "doubling":
            self._sa = suffix_array_doubling(self._text)
        elif algorithm == "sais":
            self._sa = np.asarray(sais(self._text), dtype=np.int64)
        else:
            raise ValueError(f"unknown suffix array algorithm: {algorithm!r}")
        self._algorithm = algorithm
        self._accelerated = bool(accelerated)
        self._jump_mode = self._normalize_jump_mode(jump_start)
        self._jump_start = self._jump_mode != "off"
        self._reset_acceleration_state()

    @classmethod
    def _normalize_jump_mode(cls, jump_start: Union[bool, str, None]) -> str:
        """Map the ``jump_start`` argument to one of ``_JUMP_MODES``."""
        if jump_start is True:
            return "auto"
        if jump_start is False or jump_start is None:
            return "off"
        mode = str(jump_start).lower()
        if mode not in cls._JUMP_MODES:
            valid = ", ".join(cls._JUMP_MODES)
            raise ValueError(f"unknown jump_start mode {jump_start!r}; valid: {valid}")
        return mode

    def _reset_acceleration_state(self) -> None:
        """Initialise the lazy acceleration state (built on first search)."""
        self._padded: Optional[np.ndarray] = None
        self._position_keys: Optional[np.ndarray] = None
        self._prefix_keys: Optional[np.ndarray] = None
        self._level_keys: Dict[int, np.ndarray] = {}
        self._jump_index = None
        self._jump4_index = None
        self._jump_index_kind: Optional[str] = None
        self._byte_intervals: Optional[list] = None
        self._sa_list: Optional[list] = None
        self._level_key_lists: Optional[list] = None
        # Scalar-array views backing the vectorized single-bisect match
        # engine (built lazily by _ensure_match_arrays).
        self._pk_scalar: Optional[array] = None
        self._sa_scalar: Optional[array] = None
        self._vectorize: Optional[bool] = None
        self._batch_parser: Optional[LockstepParser] = None

    @classmethod
    def from_precomputed(
        cls,
        text: bytes,
        suffix_array: np.ndarray,
        *,
        algorithm: str = "precomputed",
        accelerated: bool = True,
        jump_start: Union[bool, str] = True,
        position_keys: Optional[np.ndarray] = None,
        level0_keys: Optional[np.ndarray] = None,
    ) -> "SuffixArray":
        """Wrap an already-built suffix array without running construction.

        This is the attach path for shared-memory workers: the parent builds
        the suffix array (and optionally the per-position key array and the
        level-0 keys) once, publishes the raw arrays, and every worker wraps
        them here instead of re-running the O(n log n) construction.  The
        arrays are *borrowed*, not copied — they may be read-only views over
        a shared-memory buffer and must stay alive as long as this object.

        ``suffix_array`` is trusted to be the suffix array of ``text``;
        ``position_keys``/``level0_keys`` are trusted to be the arrays
        :meth:`shared_state` exports (lengths are validated, contents are
        not).  Remaining acceleration state (byte table, jump index, padded
        text) is derived lazily as usual — those passes are vectorized and
        cheap next to construction.
        """
        if not isinstance(text, (bytes, bytearray)):
            raise TypeError("SuffixArray requires a bytes-like text")
        self = cls.__new__(cls)
        self._text = bytes(text)
        self._n = len(self._text)
        sa = np.asarray(suffix_array, dtype=np.int64)
        if len(sa) != self._n:
            raise ValueError(
                f"suffix array has {len(sa)} entries for a text of {self._n} bytes"
            )
        self._sa = sa
        self._algorithm = algorithm
        self._accelerated = bool(accelerated)
        self._jump_mode = cls._normalize_jump_mode(jump_start)
        self._jump_start = self._jump_mode != "off"
        self._reset_acceleration_state()
        if position_keys is not None:
            position_keys = np.asarray(position_keys, dtype=np.uint64)
            expected = self._n + self._MAX_LEVELS * _KEY_WIDTH
            if len(position_keys) != expected:
                raise ValueError(
                    f"position_keys has {len(position_keys)} entries, expected {expected}"
                )
            self._position_keys = position_keys
        if level0_keys is not None:
            level0 = np.asarray(level0_keys, dtype=np.uint64)
            if len(level0) != self._n:
                raise ValueError(
                    f"level0_keys has {len(level0)} entries for {self._n} suffixes"
                )
            self._level_keys[0] = level0
        return self

    def shared_state(self) -> Dict[str, np.ndarray]:
        """The numpy arrays a worker needs to attach without rebuilding.

        Builds (when acceleration is enabled) *only* the exportable arrays —
        the per-position key array and the level-0 keys — and returns them
        with the suffix array, exactly the arrays :meth:`from_precomputed`
        accepts.  A parent that publishes for ``spawn`` workers but never
        factorizes itself therefore skips the Python list/dict machinery of
        the full small-text acceleration build (~100+ B per text byte); the
        full build, if it happens later, reuses these arrays.  The parallel
        pipeline copies the result into ``multiprocessing.shared_memory``
        segments.
        """
        if self._accelerated:
            self._ensure_shared_arrays()
        state: Dict[str, np.ndarray] = {"sa": self._sa}
        if self._position_keys is not None:
            state["position_keys"] = self._position_keys
        level0 = self._level_keys.get(0)
        if level0 is not None:
            state["level0_keys"] = level0
        return state

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def text(self) -> bytes:
        """The indexed text."""
        return self._text

    @property
    def algorithm(self) -> str:
        """Name of the construction algorithm that built this array."""
        return self._algorithm

    @property
    def accelerated(self) -> bool:
        """Whether the 8-byte-key acceleration is enabled."""
        return self._accelerated

    @property
    def jump_start(self) -> bool:
        """Whether the k-gram jump-start index is enabled."""
        return self._jump_start

    @property
    def jump_mode(self) -> str:
        """Configured jump-index mode: ``auto``, ``dict``, ``compact`` or ``off``."""
        return self._jump_mode

    @property
    def jump_index_kind(self) -> Optional[str]:
        """Representation actually built: ``"dict"``, ``"compact"`` or ``None``.

        ``None`` before the first accelerated search (the index is lazy) and
        when the index is disabled.  Benchmarks assert on this to prove the
        jump-start path is active — no silent fallback — for large
        dictionaries.
        """
        return self._jump_index_kind

    @property
    def array(self) -> np.ndarray:
        """The underlying suffix array as an int64 numpy array."""
        return self._sa

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> int:
        return int(self._sa[index])

    def suffix(self, rank: int, limit: Optional[int] = None) -> bytes:
        """Return the suffix with the given rank, optionally truncated."""
        start = int(self._sa[rank])
        if limit is None:
            return self._text[start:]
        return self._text[start : start + limit]

    # ------------------------------------------------------------------
    # Interval refinement (the paper's ``Refine``)
    # ------------------------------------------------------------------
    def full_interval(self) -> SuffixInterval:
        """The interval covering every suffix (the initial ``[1, len(d)]``)."""
        return SuffixInterval(0, self._n - 1) if self._n else _EMPTY_INTERVAL

    def refine(self, interval: SuffixInterval, offset: int, byte: int) -> SuffixInterval:
        """Narrow ``interval`` to suffixes whose ``offset``-th byte equals ``byte``.

        This is the ``Refine(lb, rb, j - i, x[j])`` operation from Figure 1
        of the paper: all suffixes in ``interval`` are assumed to share their
        first ``offset`` bytes with the pattern; the returned interval
        contains exactly those whose next byte equals ``byte``.  An empty
        interval is returned when no suffix matches.
        """
        if interval.is_empty:
            return _EMPTY_INTERVAL
        bounds = self._refine_bounds(interval.lb, interval.rb, offset, byte)
        if bounds is None:
            return _EMPTY_INTERVAL
        return SuffixInterval(bounds[0], bounds[1])

    def _refine_bounds(
        self, lb: int, rb: int, offset: int, byte: int
    ) -> Optional[Tuple[int, int]]:
        """:meth:`refine` on plain bounds; ``None`` marks an empty result."""
        new_lb = self._lower_bound(lb, rb, offset, byte)
        if new_lb > rb:
            return None
        pos = int(self._sa[new_lb]) + offset
        if pos >= self._n or self._text[pos] != byte:
            return None
        return new_lb, self._upper_bound(new_lb, rb, offset, byte)

    def _suffix_positions(self):
        """Suffix positions as a plain list when built, else the numpy array.

        The accelerated path materialises the suffix array as a Python list
        (:attr:`_sa_list`) because scalar indexing of a list is several times
        faster than scalar indexing of a numpy array, and the binary-search
        and candidate-scan loops are all scalar.
        """
        return self._sa_list if self._sa_list is not None else self._sa

    def _byte_at(self, rank: int, offset: int) -> int:
        """Byte at ``offset`` within the suffix of the given rank, or -1 past the end."""
        pos = int(self._sa[rank]) + offset
        if pos >= self._n:
            return -1
        return self._text[pos]

    def _lower_bound(self, lo: int, hi: int, offset: int, byte: int) -> int:
        """Smallest rank in ``[lo, hi]`` whose byte at ``offset`` is >= ``byte``."""
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._byte_at(mid, offset) < byte:
                lo = mid + 1
            else:
                hi = mid - 1
        return lo

    def _upper_bound(self, lo: int, hi: int, offset: int, byte: int) -> int:
        """Largest rank in ``[lo, hi]`` whose byte at ``offset`` is <= ``byte``."""
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._byte_at(mid, offset) <= byte:
                lo = mid + 1
            else:
                hi = mid - 1
        return hi

    # ------------------------------------------------------------------
    # Acceleration machinery (8-byte suffix keys)
    # ------------------------------------------------------------------
    #: Number of precomputed key levels.  Level ``k`` holds, for every suffix
    #: (in suffix-array order), the 64-bit key of bytes ``8k .. 8k + 7`` of
    #: that suffix; within any interval of suffixes sharing their first
    #: ``8k`` bytes these keys are sorted, so the next 8 characters can be
    #: matched with a single ``searchsorted`` over a slice view.
    _MAX_LEVELS = 4

    #: Intervals at most this large may be advanced by gathering ad-hoc keys
    #: at a non-precomputed offset; larger intervals fall back to per-byte
    #: refinement (which shrinks them quickly at logarithmic cost).
    _GATHER_MAX = 4096

    #: Texts at most this long get the Python-list key levels and suffix-array
    #: list (fastest scalar search, ~100-150 bytes of index per text byte),
    #: and — in ``auto`` jump mode — the hash-dict jump indexes.  Longer
    #: texts keep the numpy-only machinery, whose memory overhead stays a
    #: small constant per byte, with the compact numpy jump index replacing
    #: the dict.  (Before PR 2 this constant also hard-gated the jump-start
    #: index entirely, so multi-MB dictionaries lost it.)
    _SMALL_TEXT_MAX = 1 << 20

    def _ensure_padded(self) -> np.ndarray:
        """The text zero-padded past its end for out-of-range key gathers."""
        if self._padded is None:
            padded = np.zeros(self._n + PADDING, dtype=np.uint8)
            padded[: self._n] = np.frombuffer(self._text, dtype=np.uint8)
            self._padded = padded
        return self._padded

    def _ensure_shared_arrays(self) -> None:
        """Build just the per-position keys and level-0 keys.

        This is the exportable subset :meth:`shared_state` publishes — one
        vectorized shift-or pass plus one gather, no Python lists, dicts or
        byte tables.  Arrays injected by :meth:`from_precomputed` are kept
        as-is; :meth:`_ensure_keys` layers the rest of the acceleration
        state on top of whatever exists here.
        """
        if self._position_keys is None:
            # Key of every position 0 .. n + (_MAX_LEVELS - 1) * 8 in one
            # pass of eight shift-or operations over the padded text.
            padded = self._ensure_padded()
            span = self._n + self._MAX_LEVELS * _KEY_WIDTH
            position_keys = np.zeros(span, dtype=np.uint64)
            for j in range(_KEY_WIDTH):
                position_keys = (position_keys << np.uint64(8)) | padded[
                    j : j + span
                ].astype(np.uint64)
            self._position_keys = position_keys
        if 0 not in self._level_keys:
            self._level_keys[0] = self._position_keys[self._sa]

    def _ensure_keys(self) -> np.ndarray:
        """Precompute every key level, the jump-start index and the byte table.

        One vectorized pass computes the big-endian 8-byte key of *every*
        text position (zero-padded past the end); all ``_MAX_LEVELS`` key
        levels are then plain gathers out of that array, and the jump-start
        index falls out of the run boundaries of the (sorted) level-0 keys.
        Everything is built exactly once, on the first accelerated
        ``longest_match``.  Arrays injected by :meth:`from_precomputed`
        (shared-memory workers) are reused instead of recomputed.
        """
        if self._prefix_keys is not None:
            return self._prefix_keys
        n = self._n
        self._ensure_shared_arrays()
        position_keys = self._position_keys
        small = n <= self._SMALL_TEXT_MAX
        level0 = self._level_keys[0]
        self._level_keys = {0: level0}
        if small:
            # All levels eagerly: level k is a gather at offset 8k, plus a
            # Python-list view of the suffix array for the scalar hot loops.
            for level in range(1, self._MAX_LEVELS):
                self._level_keys[level] = position_keys[self._sa + level * _KEY_WIDTH]
            self._sa_list = self._sa.tolist()
        # Large text: keep only the numpy machinery, whose overhead is a
        # small constant per byte (level 0 above, further levels built
        # lazily by _get_level_keys on demand).
        self._prefix_keys = level0
        # First-byte interval table: refine(full, 0, b) for every byte value.
        if n:
            first_bytes = self._ensure_padded()[self._sa]
            values = np.arange(256)
            lows = np.searchsorted(first_bytes, values, side="left")
            highs = np.searchsorted(first_bytes, values, side="right")
            self._byte_intervals = [
                (int(low), int(high) - 1) if high > low else None
                for low, high in zip(lows, highs)
            ]
        else:
            self._byte_intervals = [None] * 256
        # Python-list views of the key levels: the bounded C-level ``bisect``
        # searches of the factorization loop index them without numpy slice
        # or scalar-conversion overhead.
        if n and small:
            self._level_key_lists = [
                self._level_keys[level].tolist() for level in range(self._MAX_LEVELS)
            ]
        # Jump-start indexes: the first 8-byte key of every suffix -> its
        # suffix-array interval, plus a 4-byte variant that jump-starts the
        # short factors the 8-byte index cannot serve.  ``auto`` picks the
        # representation by size: hash dicts probe fastest but cost ~100 B
        # per distinct key, so they serve small texts; the compact numpy
        # index (~10 B per distinct key) serves everything else — large
        # dictionaries get jump-start acceleration instead of a silent
        # fallback to the full-array binary search.
        if self._jump_mode != "off" and n:
            use_dict = self._jump_mode == "dict" or (
                self._jump_mode == "auto" and small
            )
            if use_dict:
                boundaries = np.flatnonzero(level0[1:] != level0[:-1]) + 1
                starts = np.concatenate(([0], boundaries))
                ends = np.concatenate((boundaries, [n]))
                self._jump_index = {
                    key: (lb, rb)
                    for key, lb, rb in zip(
                        level0[starts].tolist(), starts.tolist(), (ends - 1).tolist()
                    )
                }
                quads = level0 >> np.uint64(32)
                quad_boundaries = np.flatnonzero(quads[1:] != quads[:-1]) + 1
                quad_starts = np.concatenate(([0], quad_boundaries))
                quad_ends = np.concatenate((quad_boundaries, [n]))
                self._jump4_index = {
                    key: (lb, rb)
                    for key, lb, rb in zip(
                        quads[quad_starts].tolist(),
                        quad_starts.tolist(),
                        (quad_ends - 1).tolist(),
                    )
                }
                self._jump_index_kind = "dict"
            else:
                self._jump_index = CompactJumpIndex(level0)
                self._jump4_index = CompactJumpIndex(level0, shift=32)
                self._jump_index_kind = "compact"
        return self._prefix_keys

    def prepare(self) -> None:
        """Build all acceleration state now (e.g. before forking workers).

        The parallel encode pipeline calls this in the parent process so the
        key levels, the jump-start index, the suffix-array list and the
        batch kernel's keys are built once and shared copy-on-write with
        every forked worker.
        """
        if self._accelerated:
            self._ensure_keys()
            self._ensure_batch_parser()

    def acceleration_stats(self) -> Dict[str, object]:
        """Size accounting for the acceleration state (builds it first).

        Returns the jump-index kind and entry counts plus byte totals: exact
        ``nbytes`` for the numpy structures, an estimate for the dict-based
        index (measured ~100-150 B per distinct key, reported at 120).  The
        large-dictionary benchmark records these so the memory model in
        PERFORMANCE.md stays tied to measured numbers.
        """
        if self._accelerated:
            self._ensure_keys()
        jump_entries = 0
        jump_nbytes = 0
        for index in (self._jump_index, self._jump4_index):
            if index is None:
                continue
            jump_entries += len(index)
            if isinstance(index, CompactJumpIndex):
                jump_nbytes += index.nbytes
            else:
                jump_nbytes += len(index) * 120  # measured dict overhead/key
        numpy_nbytes = sum(
            int(array.nbytes)
            for array in (self._position_keys, self._padded)
            if array is not None
        ) + sum(int(keys.nbytes) for keys in self._level_keys.values())
        list_nbytes = 0
        if self._sa_list is not None:
            list_nbytes += len(self._sa_list) * 36  # list slot + small-int object
        if self._level_key_lists is not None:
            for keys in self._level_key_lists:
                list_nbytes += len(keys) * 40  # list slot + boxed uint64
        scalar_nbytes = 0
        for scalar in (self._pk_scalar, self._sa_scalar):
            if scalar is not None:
                scalar_nbytes += len(scalar) * scalar.itemsize
        return {
            "jump_index_kind": self._jump_index_kind,
            "jump_entries": jump_entries,
            "jump_nbytes": jump_nbytes,
            "numpy_nbytes": numpy_nbytes,
            "list_nbytes": list_nbytes,
            "scalar_nbytes": scalar_nbytes,
            "vectorize": self._vectorize_enabled() if self._accelerated else False,
            "text_bytes": self._n,
        }

    def probe_cache_info(self) -> Dict[str, int]:
        """Probe-layer counters of the compact jump index.

        All-zero when the dict-based index (small texts) or no jump index
        is active — those paths have no probe cache to account for.
        """
        if self._accelerated:
            self._ensure_keys()
        if isinstance(self._jump_index, CompactJumpIndex):
            return self._jump_index.probe_cache_info()
        return {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
            "batch_hits": 0,
            "batch_misses": 0,
        }

    def _get_level_keys(self, level: int) -> np.ndarray:
        """Keys of bytes ``8 * level .. 8 * level + 7`` of every suffix."""
        self._ensure_keys()
        keys = self._level_keys.get(level)
        if keys is None:
            keys = self._keys_at(self._sa, level * _KEY_WIDTH)
            self._level_keys[level] = keys
        return keys

    def _keys_at(self, positions: np.ndarray, offset: int) -> np.ndarray:
        """Big-endian uint64 keys of the 8 bytes at ``positions + offset``.

        Suffixes shorter than 8 bytes are zero-padded; because the padding
        byte (0) is smaller than any real byte that can follow, the keys of
        the suffixes in a shared-prefix interval remain sorted.

        Every position handed in by the accelerated search satisfies
        ``position + offset <= n`` (the suffixes share their first ``offset``
        bytes with the query), so the precomputed per-position keys cover the
        gather directly.
        """
        if self._position_keys is not None:
            base = positions + offset
            if base.size == 0 or int(base.max()) < len(self._position_keys):
                return self._position_keys[base]
        padded = self._padded
        base = positions + offset
        keys = np.zeros(len(positions), dtype=np.uint64)
        for j in range(_KEY_WIDTH):
            keys = (keys << np.uint64(8)) | padded[base + j].astype(np.uint64)
        return keys

    def _extend_match(self, text_pos: int, query: bytes, query_pos: int, limit: int) -> int:
        """Length of the common prefix of ``text[text_pos:]`` and ``query[query_pos:]``.

        Capped at ``limit``.  When the per-position keys are built, the
        comparison runs 8 bytes per step: the XOR of the two 64-bit keys
        locates the first differing byte directly (``limit`` already caps
        the result at the end of the text, so the zero padding folded into
        keys near the end can never overstate the match).  Otherwise falls
        back to geometrically growing slice comparisons with bisection.
        """
        text = self._text
        limit = min(limit, self._n - text_pos)
        matched = 0
        position_keys = self._position_keys
        if position_keys is not None:
            from_bytes = int.from_bytes
            while limit - matched >= _KEY_WIDTH:
                query_chunk = query[query_pos + matched : query_pos + matched + _KEY_WIDTH]
                if len(query_chunk) < _KEY_WIDTH:
                    break
                xor = from_bytes(query_chunk, "big") ^ int(
                    position_keys[text_pos + matched]
                )
                if xor == 0:
                    matched += _KEY_WIDTH
                    continue
                common = (64 - xor.bit_length()) >> 3
                remaining = limit - matched
                return matched + (common if common < remaining else remaining)
            while (
                matched < limit
                and text[text_pos + matched] == query[query_pos + matched]
            ):
                matched += 1
            return matched
        chunk = 16
        while matched < limit:
            step = min(chunk, limit - matched)
            if (
                text[text_pos + matched : text_pos + matched + step]
                == query[query_pos + matched : query_pos + matched + step]
            ):
                matched += step
                chunk *= 2
                continue
            # The mismatch lies inside this chunk: bisect it.
            while step > 1:
                half = step >> 1
                if (
                    text[text_pos + matched : text_pos + matched + half]
                    == query[query_pos + matched : query_pos + matched + half]
                ):
                    matched += half
                    step -= half
                else:
                    step = half
            break
        return matched

    def _scan_interval(
        self,
        lb: int,
        rb: int,
        query: bytes,
        start: int,
        matched: int,
        max_len: int,
    ) -> Tuple[int, int]:
        """Pick the longest match among the candidates of a small interval.

        All suffixes in ``[lb, rb]`` share their first ``matched`` bytes with
        ``query[start:]``; the scan extends each candidate and returns the
        best ``(position, length)``.
        """
        sa = self._suffix_positions()
        best_position = int(sa[lb])
        best_length = matched
        if matched >= max_len:
            return best_position, best_length
        text = self._text
        n = self._n
        extend = self._extend_match
        next_byte = query[start + matched]
        query_offset = start + matched
        budget = max_len - matched
        for rank in range(lb, rb + 1):
            position = int(sa[rank])
            # Candidates that already diverge on the next byte can never beat
            # ``best_length`` (they extend by zero); skipping them avoids the
            # comparisons of ``_extend_match`` for most of the interval.
            probe = position + matched
            if probe >= n or text[probe] != next_byte:
                continue
            length = matched + extend(probe, query, query_offset, budget)
            if length > best_length:
                best_length = length
                best_position = position
                if best_length == max_len:
                    break
        return best_position, best_length

    # ------------------------------------------------------------------
    # Longest-match search (the paper's ``Factor`` inner loop)
    # ------------------------------------------------------------------
    def longest_match(
        self, query: bytes, start: int = 0, limit: Optional[int] = None
    ) -> Tuple[int, int]:
        """Longest prefix of ``query[start:]`` that occurs in the indexed text.

        Parameters
        ----------
        query:
            The document being factorized.
        start:
            Position in ``query`` where matching begins (the factorizer's
            current cursor ``i``).
        limit:
            Optional hard cap on the match length (used to stop factors at
            document boundaries, as the paper's ``Factor`` does).

        Returns
        -------
        tuple[int, int]
            ``(position, length)`` where ``position`` is a starting offset in
            the indexed text and ``length`` the number of matching bytes.
            ``length`` is 0 when not even the first byte occurs in the text;
            ``position`` is then meaningless (callers emit a literal factor).
        """
        n_query = len(query)
        max_len = n_query - start
        if limit is not None:
            max_len = min(max_len, limit)
        if max_len <= 0 or self._n == 0:
            return (0, 0)
        if self._accelerated:
            if max_len >= _KEY_WIDTH and self._vectorize_enabled():
                # Share the single-bisect engine with match_stream /
                # factorize_stream: build the query keys for just the
                # window this call may touch, then resolve the factor in
                # one lcp-aware binary search.  Streaming callers should
                # prefer match_stream, which amortizes the key build over
                # the whole document.
                self._ensure_match_arrays()
                qk = self._query_keys(query, start, start + max_len)
                return self._match_factor(query, start, max_len, qk, start)
            return self._longest_match_accelerated(query, start, max_len)
        return self._longest_match_refine(query, start, max_len, 0, self._n - 1, 0)

    def _longest_match_refine(
        self,
        query: bytes,
        start: int,
        max_len: int,
        lb: int,
        rb: int,
        matched: int,
    ) -> Tuple[int, int]:
        """Per-character interval refinement — the paper's Factor loop.

        The bounds are carried as plain integers and the binary searches run
        over the list view of the suffix array (when built), so the loop
        allocates nothing per character.
        """
        sa = self._suffix_positions()
        text = self._text
        n = self._n
        scan_threshold = self._SCAN_THRESHOLD
        byte_intervals = self._byte_intervals
        while matched < max_len:
            if rb - lb + 1 <= scan_threshold:
                # Few candidates left: scanning them directly generalises the
                # ``lb = rb`` shortcut in the paper's Factor function.
                return self._scan_interval(lb, rb, query, start, matched, max_len)
            byte = query[start + matched]
            if matched == 0 and lb == 0 and rb == n - 1 and byte_intervals is not None:
                jump4 = self._jump4_index
                if jump4 is not None and max_len >= 4:
                    window4 = query[start : start + 4]
                    # Short-factor jump start: hash the first 4 bytes to the
                    # interval four refinements would reach.  The index is
                    # consulted only for a *full-width, zero-free* window: a
                    # sub-width window's big-endian value is indistinguishable
                    # from the zero-padded key of a suffix near the end of the
                    # text, and a zero byte in the window is ambiguous against
                    # that same padding.  (``max_len >= 4`` already implies
                    # four query bytes exist, but the length guard keeps the
                    # invariant local.)  The candidate verification below
                    # additionally rejects any padding artefact outright.
                    if len(window4) == 4 and b"\x00" not in window4:
                        hit4 = jump4.get(int.from_bytes(window4, "big"))
                        if hit4 is not None:
                            candidate = sa[hit4[0]]
                            if text[candidate : candidate + 4] == window4:
                                lb, rb = hit4
                                matched = 4
                                continue
                # Full interval at offset 0: the precomputed first-byte table
                # is exactly refine(full, 0, byte).
                hit = byte_intervals[byte]
                if hit is None:
                    break
                lb, rb = hit
                matched = 1
                continue
            # Inline lower bound over [lb, rb] at offset ``matched``.
            low, high = lb, rb
            while low <= high:
                mid = (low + high) >> 1
                pos = sa[mid] + matched
                if (text[pos] if pos < n else -1) < byte:
                    low = mid + 1
                else:
                    high = mid - 1
            if low > rb:
                break
            pos = sa[low] + matched
            if pos >= n or text[pos] != byte:
                break
            new_lb = low
            # Inline upper bound over [new_lb, rb].
            low, high = new_lb, rb
            while low <= high:
                mid = (low + high) >> 1
                pos = sa[mid] + matched
                if (text[pos] if pos < n else -1) <= byte:
                    low = mid + 1
                else:
                    high = mid - 1
            lb, rb = new_lb, high
            matched += 1
        if matched == 0:
            return (0, 0)
        return (int(sa[lb]), matched)

    def _longest_match_accelerated(
        self, query: bytes, start: int, max_len: int
    ) -> Tuple[int, int]:
        """8-byte-stride variant producing the same greedy longest match."""
        self._ensure_keys()
        sa = self._sa
        sa_list = self._suffix_positions()
        text = self._text
        jump_index = self._jump_index

        matched = 0
        lb, rb = 0, self._n - 1
        while max_len - matched >= _KEY_WIDTH:
            window = query[start + matched : start + matched + _KEY_WIDTH]
            if b"\x00" in window:
                # Zero bytes in the query could collide with the zero padding
                # used for suffixes shorter than the key span; the
                # per-character path has no such ambiguity, so use it for
                # this (rare) case.
                return self._longest_match_refine(query, start, max_len, lb, rb, matched)
            if matched == 0 and jump_index is not None:
                # Jump start: hash the first 8 bytes straight to the interval
                # that a searchsorted over the full key array would reach.
                hit = jump_index.get(int.from_bytes(window, "big"))
                if hit is None:
                    return self._longest_match_refine(query, start, max_len, lb, rb, 0)
                jump_lb, jump_rb = hit
                candidate = sa_list[jump_lb]
                # Same zero-padding guard as the searchsorted path below.
                if text[candidate : candidate + _KEY_WIDTH] != window:
                    return self._longest_match_refine(query, start, max_len, lb, rb, 0)
                lb, rb = jump_lb, jump_rb
                matched = _KEY_WIDTH
            else:
                level, within = divmod(matched, _KEY_WIDTH)
                interval_size = rb - lb + 1
                if within == 0 and level < self._MAX_LEVELS:
                    # Precomputed level: binary search a slice view, no copying.
                    keys = self._get_level_keys(level)[lb : rb + 1]
                elif interval_size <= self._GATHER_MAX:
                    # Ad-hoc offset: gather the 8-byte keys of the candidates.
                    keys = self._keys_at(sa[lb : rb + 1], matched)
                else:
                    # Large interval at an unaligned offset: one character of
                    # ordinary refinement shrinks it at logarithmic cost.
                    bounds = self._refine_bounds(lb, rb, matched, query[start + matched])
                    if bounds is None:
                        return (int(sa_list[lb]), matched) if matched else (0, 0)
                    lb, rb = bounds
                    matched += 1
                    continue

                query_key = np.uint64(int.from_bytes(window, "big"))
                left = int(keys.searchsorted(query_key, side="left"))
                right = int(keys.searchsorted(query_key, side="right")) - 1
                if left > right:
                    # The next 8 bytes do not match in full; finish with
                    # per-character refinement inside the current interval.
                    return self._longest_match_refine(
                        query, start, max_len, lb, rb, matched
                    )
                candidate = int(sa_list[lb + left])
                # Guard against zero-padding artefacts near the end of the
                # text: verify the 8 bytes really are present.
                if text[candidate + matched : candidate + matched + _KEY_WIDTH] != window:
                    return self._longest_match_refine(
                        query, start, max_len, lb, rb, matched
                    )
                lb, rb = lb + left, lb + right
                matched += _KEY_WIDTH
            if rb - lb + 1 <= self._SCAN_THRESHOLD:
                return self._scan_interval(lb, rb, query, start, matched, max_len)

        # Fewer than 8 bytes remain (or remained from the start): finish with
        # per-character refinement, which also handles matched == 0 correctly.
        return self._longest_match_refine(query, start, max_len, lb, rb, matched)

    # ------------------------------------------------------------------
    # Whole-document factorization (the encode hot loop)
    # ------------------------------------------------------------------
    def factorize_stream(self, query: bytes) -> Tuple[list, list]:
        """Greedy RLZ parse of ``query`` as (positions, lengths) streams.

        This is the encode fast path: the equivalent of calling
        :meth:`longest_match` at every cursor position, but with the whole
        per-factor state machine inlined so attribute lookups and call
        overhead are paid once per document instead of once per factor, and
        with the final sub-8-byte tail of each factor resolved by a binary
        descent over key *ranges* (all suffixes sharing ``t`` more bytes
        form a contiguous key range) instead of per-character refinement.

        The parse is byte-identical to the one :meth:`longest_match`
        produces — literal factors are emitted as ``(byte_value, 0)`` pairs,
        copy factors as ``(position, length)``.
        """
        if not isinstance(query, (bytes, bytearray)):
            raise TypeError("factorize_stream requires a bytes-like query")
        query = bytes(query)
        positions: list = []
        lengths: list = []
        query_length = len(query)
        if query_length == 0:
            return positions, lengths
        if not self._accelerated or self._n == 0:
            cursor = 0
            while cursor < query_length:
                position, length = self.longest_match(query, cursor)
                if length == 0:
                    positions.append(query[cursor])
                    lengths.append(0)
                    cursor += 1
                else:
                    positions.append(position)
                    lengths.append(length)
                    cursor += length
            return positions, lengths

        self._ensure_keys()
        if self._vectorize_enabled():
            # Vectorized path: per-document query keys built in one numpy
            # pass, one lcp-aware bisect per factor (match_stream).  The
            # scalar loop below remains the reference implementation and
            # the default for small texts, where the C-level bisect over
            # key lists is already faster than the engine's Python ints.
            append_position = positions.append
            append_length = lengths.append
            for position, length in self.match_stream(query):
                append_position(position)
                append_length(length)
            return positions, lengths
        from bisect import bisect_left, bisect_right

        text = self._text
        n = self._n
        sa = self._sa
        # Beyond the index-size gate sa_list is None; the numpy array works
        # in its place (resolved positions are int()-normalised below).
        sa_list = self._suffix_positions()
        jump_index = self._jump_index
        get_level_keys = self._get_level_keys
        key_lists = self._level_key_lists
        position_keys = self._position_keys
        scan_threshold = self._SCAN_THRESHOLD
        gather_max = self._GATHER_MAX
        max_levels = self._MAX_LEVELS
        uint64 = np.uint64
        from_bytes = int.from_bytes
        append_position = positions.append
        append_length = lengths.append

        cursor = 0
        while cursor < query_length:
            max_len = query_length - cursor
            lb, rb = 0, n - 1
            matched = 0
            factor_position = -1
            factor_length = -1

            # ---- match one factor ---------------------------------------
            # Each iteration either advances ``matched`` by 8 (a full key
            # match), advances by 1 (large unaligned interval), or resolves
            # the factor outright via the insertion-point / XOR trick: the
            # longest key prefix shared with a sorted key set is achieved at
            # a neighbour of the query key's insertion point, and the shared
            # byte count falls out of ``(64 - xor.bit_length()) >> 3``.
            while True:
                interval_size = rb - lb + 1
                if interval_size <= scan_threshold:
                    factor_position, factor_length = self._scan_interval(
                        lb, rb, query, cursor, matched, max_len
                    )
                    break
                remaining = max_len - matched
                if remaining == 0:
                    factor_position, factor_length = int(sa_list[lb]), matched
                    break
                window_start = cursor + matched
                full_step = remaining >= _KEY_WIDTH
                if full_step:
                    window = query[window_start : window_start + _KEY_WIDTH]
                    span = _KEY_WIDTH
                    query_key = from_bytes(window, "big")
                    # SWAR zero-byte test: a zero byte anywhere in the window
                    # is ambiguous against the zero padding, so such windows
                    # take the per-character path instead.
                    if (
                        (query_key - 0x0101010101010101)
                        & ~query_key
                        & 0x8080808080808080
                    ):
                        factor_position, factor_length = self._longest_match_refine(
                            query, cursor, max_len, lb, rb, matched
                        )
                        break
                else:
                    window = query[window_start : window_start + remaining]
                    span = remaining
                    if b"\x00" in window:
                        factor_position, factor_length = self._longest_match_refine(
                            query, cursor, max_len, lb, rb, matched
                        )
                        break
                    query_key = from_bytes(window, "big") << (8 * (_KEY_WIDTH - span))

                if matched == 0 and full_step and jump_index is not None:
                    hit = jump_index.get(query_key)
                    if hit is not None:
                        candidate = sa_list[hit[0]]
                        if text[candidate : candidate + _KEY_WIDTH] == window:
                            lb, rb = hit
                            matched = _KEY_WIDTH
                            continue
                    # The full 8 bytes occur nowhere: fall through to the
                    # insertion search below to find the shorter best match.

                level = matched >> 3
                aligned_level = not matched & 7 and level < max_levels
                if aligned_level and key_lists is not None:
                    # Bounded C-level bisect over the Python-int key list:
                    # no numpy slices, scalar conversions or dtype coercions
                    # anywhere on this path.  Indices are absolute ranks.
                    keys_list = key_lists[level]
                    bound = rb + 1
                    insert = bisect_left(keys_list, query_key, lb, bound)
                    shared = 0
                    if insert < bound:
                        xor = query_key ^ keys_list[insert]
                        shared = (
                            _KEY_WIDTH if xor == 0 else (64 - xor.bit_length()) >> 3
                        )
                    if insert > lb:
                        xor = query_key ^ keys_list[insert - 1]
                        left_shared = (
                            _KEY_WIDTH if xor == 0 else (64 - xor.bit_length()) >> 3
                        )
                        if left_shared > shared:
                            shared = left_shared
                    if full_step and shared == _KEY_WIDTH:
                        candidate = sa_list[insert]
                        if (
                            text[candidate + matched : candidate + matched + _KEY_WIDTH]
                            == window
                        ):
                            rb = bisect_right(keys_list, query_key, insert, bound) - 1
                            lb = insert
                            matched += _KEY_WIDTH
                            continue
                        factor_position, factor_length = self._longest_match_refine(
                            query, cursor, max_len, lb, rb, matched
                        )
                        break
                    tail = span - 1 if full_step else span
                    if shared > tail:
                        shared = tail
                    if shared == 0:
                        factor_position, factor_length = (
                            (sa_list[lb], matched) if matched else (0, 0)
                        )
                        break
                    shift = 8 * (_KEY_WIDTH - shared)
                    key_low = (query_key >> shift) << shift
                    upper = insert + 1 if insert <= rb else bound
                    left = bisect_left(keys_list, key_low, lb, upper)
                    candidate = sa_list[left]
                    if (
                        text[candidate + matched : candidate + matched + shared]
                        == window[:shared]
                    ):
                        factor_position = candidate
                        factor_length = matched + shared
                    else:
                        factor_position, factor_length = self._longest_match_refine(
                            query, cursor, max_len, lb, rb, matched
                        )
                    break

                if aligned_level:
                    keys = get_level_keys(level)[lb : rb + 1]
                elif interval_size <= gather_max:
                    keys = position_keys[sa[lb : rb + 1] + matched]
                else:
                    # Large interval at an unaligned offset: one character of
                    # ordinary refinement shrinks it at logarithmic cost.
                    bounds = self._refine_bounds(lb, rb, matched, window[0])
                    if bounds is None:
                        factor_position, factor_length = (
                            (int(sa_list[lb]), matched) if matched else (0, 0)
                        )
                        break
                    lb, rb = bounds
                    matched += 1
                    continue

                insert = int(keys.searchsorted(uint64(query_key), side="left"))
                shared = 0
                if insert < interval_size:
                    xor = query_key ^ int(keys[insert])
                    shared = _KEY_WIDTH if xor == 0 else (64 - xor.bit_length()) >> 3
                if insert > 0:
                    xor = query_key ^ int(keys[insert - 1])
                    left_shared = (
                        _KEY_WIDTH if xor == 0 else (64 - xor.bit_length()) >> 3
                    )
                    if left_shared > shared:
                        shared = left_shared

                if full_step and shared == _KEY_WIDTH:
                    # The whole window matches: narrow to its equality run
                    # (it starts at ``insert`` because the search was
                    # left-sided) and take the next stride.
                    candidate = int(sa_list[lb + insert])
                    if (
                        text[candidate + matched : candidate + matched + _KEY_WIDTH]
                        == window
                    ):
                        right_excl = int(
                            keys.searchsorted(uint64(query_key), side="right")
                        )
                        lb, rb = lb + insert, lb + right_excl - 1
                        matched += _KEY_WIDTH
                        continue
                    # Padding artefact (defensive): use the exact path.
                    factor_position, factor_length = self._longest_match_refine(
                        query, cursor, max_len, lb, rb, matched
                    )
                    break

                # The factor ends inside this window: ``shared`` more bytes
                # match (capped at span - 1 for a full window, since a whole-
                # window match was handled above; at span for a short tail,
                # where key padding may inflate the XOR agreement).
                tail = span - 1 if full_step else span
                if shared > tail:
                    shared = tail
                if shared == 0:
                    factor_position, factor_length = (
                        (int(sa_list[lb]), matched) if matched else (0, 0)
                    )
                    break
                # Leftmost suffix sharing those bytes: the lower edge of the
                # key range [window_shared 00.., window_shared ff..].
                shift = 8 * (_KEY_WIDTH - shared)
                key_low = (query_key >> shift) << shift
                left = int(keys.searchsorted(uint64(key_low), side="left"))
                candidate = int(sa_list[lb + left])
                if (
                    text[candidate + matched : candidate + matched + shared]
                    == window[:shared]
                ):
                    factor_position = candidate
                    factor_length = matched + shared
                else:
                    # Padding artefact (defensive): use the exact path.
                    factor_position, factor_length = self._longest_match_refine(
                        query, cursor, max_len, lb, rb, matched
                    )
                break

            # ---- emit one factor ----------------------------------------
            if factor_length == 0:
                append_position(query[cursor])
                append_length(0)
                cursor += 1
            else:
                append_position(factor_position)
                append_length(factor_length)
                cursor += factor_length
        return positions, lengths

    #: Total document bytes from which :meth:`factorize_batch` runs the
    #: lockstep kernel; smaller calls parse document by document.  Each
    #: kernel step costs a fixed numpy overhead, so small calls lose: the
    #: crossover measured 110-130 KB of text against both benchmark
    #: dictionaries (gov, 512 KiB; wiki, 1.5 MiB) on a 2-core x86 VM.
    _BATCH_MIN_BYTES = 128 << 10

    def factorize_batch(self, documents: Sequence[bytes]) -> List[Tuple[list, list]]:
        """:meth:`factorize_stream` of every document, parsed together.

        Returns exactly the ``(positions, lengths)`` streams
        ``factorize_stream`` returns for each document.  Accelerated
        indexes given at least ``_BATCH_MIN_BYTES`` of text run the
        lockstep kernel of :mod:`repro.suffix.batch`, which advances the
        parses of the whole batch together in numpy; everything else takes
        the per-document engines.
        """
        documents = list(documents)
        for document in documents:
            if not isinstance(document, (bytes, bytearray)):
                raise TypeError("factorize_batch requires bytes-like documents")
        total = sum(len(document) for document in documents)
        if not self._accelerated or self._n == 0 or total < self._BATCH_MIN_BYTES:
            return [self.factorize_stream(document) for document in documents]
        return self._ensure_batch_parser().factorize(
            [bytes(document) for document in documents]
        )

    def _ensure_batch_parser(self) -> LockstepParser:
        """The lockstep kernel over this index (built on first use)."""
        if self._batch_parser is None:
            self._batch_parser = LockstepParser(
                self._ensure_padded(), self._sa, self._longest_match_refine
            )
        return self._batch_parser

    # ------------------------------------------------------------------
    # Vectorized single-bisect match engine
    # ------------------------------------------------------------------
    #: Query offsets probed per ``CompactJumpIndex.get_batch`` call when
    #: the adaptive streamer is in the short-stride regime.
    _BATCH_PROBE_BLOCK = 2048

    #: EWMA factor stride at or below which batch probing wins.  A batched
    #: probe costs ~150 ns against ~1.5 us for a scalar memoryview probe,
    #: but batching probes *every* offset while a factor of length L skips
    #: L - 1 of them — so it only pays off in the short-factor regime.
    _BATCH_STRIDE_CUTOFF = 8.0

    @property
    def vectorize(self) -> Optional[bool]:
        """Vectorized-engine toggle: ``True``, ``False`` or ``None`` (auto)."""
        return self._vectorize

    @vectorize.setter
    def vectorize(self, value: Optional[bool]) -> None:
        self._vectorize = None if value is None else bool(value)

    def _vectorize_enabled(self) -> bool:
        """Resolve the engine toggle: attribute, then environment, then auto.

        Auto enables the engine exactly where it wins: large texts, whose
        acceleration state keeps only the numpy machinery
        (``_level_key_lists`` is None).  Small texts keep the scalar loop,
        whose bounded C-level bisects are already faster there.
        ``REPRO_VECTORIZE=1``/``0`` overrides auto (but not an explicit
        ``vectorize`` attribute) for A/B runs.
        """
        value = self._vectorize
        if value is not None:
            return value
        env = os.environ.get("REPRO_VECTORIZE", "").strip().lower()
        if env in ("1", "true", "on", "always"):
            return True
        if env in ("0", "false", "off", "never"):
            return False
        if not self._accelerated or self._n == 0:
            return False
        self._ensure_keys()
        return self._level_key_lists is None

    def _ensure_match_arrays(self) -> None:
        """Build the scalar-array state the match engine indexes.

        ``array('Q')``/``array('q')`` copies of the per-position keys and
        the suffix array: indexing them yields plain Python ints with none
        of the numpy scalar-boxing overhead the engine's inner loops would
        otherwise pay on every key read.
        """
        if self._pk_scalar is not None:
            return
        self._ensure_keys()
        self._pk_scalar = array("Q", self._position_keys.tobytes())
        sa = self._sa
        if sa.dtype != np.int64:
            sa = sa.astype(np.int64)
        self._sa_scalar = array("q", sa.tobytes())

    @staticmethod
    def _query_keys(query: bytes, start: int = 0, stop: Optional[int] = None) -> array:
        """Big-endian 8-byte keys of every position of ``query[start:stop]``.

        One vectorized shift-or pass over the zero-padded window, returned
        as an ``array('Q')`` indexed by ``position - start``.  The zero
        padding past ``stop`` mirrors the padding of the text-side keys;
        the engine's compare limits guarantee it never influences a result.
        """
        if stop is None:
            stop = len(query)
        span = stop - start
        padded = np.zeros(span + _KEY_WIDTH, dtype=np.uint8)
        if span:
            padded[:span] = np.frombuffer(
                query, dtype=np.uint8, count=span, offset=start
            )
        keys = np.zeros(span, dtype=np.uint64)
        for j in range(_KEY_WIDTH):
            keys = (keys << np.uint64(8)) | padded[j : j + span].astype(np.uint64)
        return array("Q", keys.tobytes())

    def match_stream(self, query: bytes) -> Iterator[Tuple[int, int]]:
        """Yield the greedy parse of ``query`` one factor at a time.

        Produces exactly the pairs :meth:`factorize_stream` emits —
        ``(position, length)`` copies and ``(byte_value, 0)`` literals —
        but as a generator, so streaming consumers (``iter_factors``)
        share the vectorized engine without materializing both streams.

        The per-document query keys are built once in a vectorized pass;
        each factor is then resolved by a single lcp-aware binary search
        over its jump-start interval (:meth:`_match_factor`).  When the
        jump index is compact and recent factors are short — the
        literal-heavy regime where probe cost dominates the parse —
        upcoming offsets are probed in vectorized ``get_batch`` blocks
        instead of one scalar probe per factor; the EWMA of recent factor
        strides switches the mode.
        """
        if not isinstance(query, (bytes, bytearray)):
            raise TypeError("match_stream requires a bytes-like query")
        query = bytes(query)
        query_length = len(query)
        if query_length == 0:
            return
        if not self._accelerated or self._n == 0 or not self._vectorize_enabled():
            # Scalar reference loop: also the fast path for small texts,
            # where the dict jump index beats the batched engine.
            cursor = 0
            while cursor < query_length:
                position, length = self.longest_match(query, cursor)
                if length == 0:
                    yield (query[cursor], 0)
                    cursor += 1
                else:
                    yield (position, length)
                    cursor += length
            return
        self._ensure_match_arrays()
        qk = self._query_keys(query)
        match_factor = self._match_factor
        jump_index = self._jump_index
        batch_get = (
            jump_index.get_batch
            if isinstance(jump_index, CompactJumpIndex)
            else None
        )
        qk_np: Optional[np.ndarray] = None
        batch_lbs: Optional[array] = None
        batch_rbs: Optional[array] = None
        batch_base = batch_stop = 0
        block = self._BATCH_PROBE_BLOCK
        cutoff = self._BATCH_STRIDE_CUTOFF
        stride_ewma = 4.0 * cutoff  # start in the scalar-probe regime
        # First offset without a full 8-byte window: never worth probing.
        last_probe = query_length - _KEY_WIDTH + 1
        cursor = 0
        while cursor < query_length:
            jump_hit = None
            jump_checked = False
            if batch_get is not None and cursor < last_probe:
                if batch_lbs is not None and batch_base <= cursor < batch_stop:
                    lb = batch_lbs[cursor - batch_base]
                    jump_checked = True
                    if lb >= 0:
                        jump_hit = (lb, batch_rbs[cursor - batch_base])
                elif stride_ewma <= cutoff:
                    stop = cursor + block
                    if stop > last_probe:
                        stop = last_probe
                    if qk_np is None:
                        qk_np = np.frombuffer(qk, dtype=np.uint64)
                    lbs, rbs = batch_get(qk_np[cursor:stop])
                    batch_lbs = array("q", lbs.tobytes())
                    batch_rbs = array("q", rbs.tobytes())
                    batch_base, batch_stop = cursor, stop
                    lb = batch_lbs[0]
                    jump_checked = True
                    if lb >= 0:
                        jump_hit = (lb, batch_rbs[0])
            position, length = match_factor(
                query, cursor, query_length - cursor, qk, 0, jump_hit, jump_checked
            )
            if length == 0:
                yield (query[cursor], 0)
                cursor += 1
                stride_ewma += 0.125 * (1.0 - stride_ewma)
            else:
                yield (position, length)
                cursor += length
                stride_ewma += 0.125 * (length - stride_ewma)

    def _match_factor(
        self,
        query: bytes,
        cursor: int,
        max_len: int,
        qk: array,
        qk_off: int,
        jump_hit: Optional[Tuple[int, int]] = None,
        jump_checked: bool = False,
    ) -> Tuple[int, int]:
        """Resolve one greedy factor with a single lcp-aware binary search.

        The jump-start interval ``[lb, rb]`` already holds every suffix
        sharing the first 8 query bytes, in sorted order — so the longest
        match is achieved at a neighbour of the query's insertion point,
        and the classic llcp/rlcp bookkeeping (each comparison resumes at
        the bytes the bisection has already certified) finds it in one
        O(log interval + factor length / 8) descent instead of one level
        per 8 bytes.  The leftmost rank achieving the maximum — the scalar
        paths' tie-break — is recovered by galloping left over the run of
        ranks with the same lcp.

        ``qk`` holds the query keys (``array('Q')``, indexed by
        ``position - qk_off``).  ``jump_checked``/``jump_hit`` let
        :meth:`match_stream` hand in a batched probe result; otherwise the
        index is probed here.  Cold cases — short tails, zero bytes in the
        window, jump misses — are delegated to the exact scalar paths, so
        the parse stays byte-identical by construction.
        """
        if max_len < _KEY_WIDTH:
            return self._longest_match_accelerated(query, cursor, max_len)
        qbase = cursor - qk_off
        qk0 = qk[qbase]
        if (qk0 - 0x0101010101010101) & ~qk0 & 0x8080808080808080:
            # A zero byte in the window is ambiguous against key padding;
            # the per-character path has no such ambiguity.
            return self._longest_match_accelerated(query, cursor, max_len)
        if not jump_checked:
            jump_index = self._jump_index
            if jump_index is None:
                return self._longest_match_accelerated(query, cursor, max_len)
            jump_hit = jump_index.get(qk0)
        n = self._n
        if jump_hit is None:
            # The full 8 bytes occur nowhere: per-character refinement over
            # the full interval finds the shorter best match (the same
            # branch the scalar paths take on a jump miss).
            return self._longest_match_refine(query, cursor, max_len, 0, n - 1, 0)
        pk = self._pk_scalar
        sa_arr = self._sa_scalar
        lb = jump_hit[0]
        if pk[sa_arr[lb]] != qk0:
            # Zero-padding artefact near the end of the text.
            return self._longest_match_refine(query, cursor, max_len, 0, n - 1, 0)
        rb = jump_hit[1]
        budget = max_len
        # ---- lcp-aware bisect for the query's insertion point ----------
        lo = lb
        hi = rb + 1
        llcp = rlcp = _KEY_WIDTH
        while lo < hi:
            mid = (lo + hi) >> 1
            f = llcp if llcp < rlcp else rlcp
            p = sa_arr[mid]
            limit = n - p
            if budget < limit:
                limit = budget
            cmp = 0
            while limit - f >= _KEY_WIDTH:
                a = qk[qbase + f]
                b = pk[p + f]
                if a == b:
                    f += _KEY_WIDTH
                    continue
                f += (64 - (a ^ b).bit_length()) >> 3
                cmp = 1 if b > a else -1
                break
            else:
                t = limit - f
                if t > 0:
                    sb = (8 - t) << 3
                    xq = qk[qbase + f] >> sb
                    xp = pk[p + f] >> sb
                    if xq != xp:
                        f += t - (((xq ^ xp).bit_length() + 7) >> 3)
                        cmp = 1 if xp > xq else -1
            if cmp == 0:
                # Ran to the limit: the shorter side sorts first.
                f = limit
                cmp = -1 if limit < budget else 1
            if cmp < 0:
                lo = mid + 1
                llcp = f
            else:
                hi = mid
                rlcp = f
        ip = lo
        # ---- exact lcp of the two neighbours (resumed, inline) ---------
        left_lcp = 0
        if ip > lb:
            p = sa_arr[ip - 1]
            f = llcp
            limit = n - p
            if budget < limit:
                limit = budget
            while limit - f >= _KEY_WIDTH:
                a = qk[qbase + f]
                b = pk[p + f]
                if a == b:
                    f += _KEY_WIDTH
                    continue
                f += (64 - (a ^ b).bit_length()) >> 3
                break
            else:
                t = limit - f
                if t > 0:
                    sb = (8 - t) << 3
                    x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                    if x:
                        f += t - ((x.bit_length() + 7) >> 3)
                    else:
                        f = limit
                else:
                    f = limit
            left_lcp = f
        right_lcp = 0
        if ip <= rb:
            p = sa_arr[ip]
            f = rlcp
            limit = n - p
            if budget < limit:
                limit = budget
            while limit - f >= _KEY_WIDTH:
                a = qk[qbase + f]
                b = pk[p + f]
                if a == b:
                    f += _KEY_WIDTH
                    continue
                f += (64 - (a ^ b).bit_length()) >> 3
                break
            else:
                t = limit - f
                if t > 0:
                    sb = (8 - t) << 3
                    x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                    if x:
                        f += t - ((x.bit_length() + 7) >> 3)
                    else:
                        f = limit
                else:
                    f = limit
            right_lcp = f
        # ---- leftmost rank achieving the maximum -----------------------
        if left_lcp >= right_lcp:
            length = left_lcp
            if length == _KEY_WIDTH:
                # Every rank in the interval shares exactly these 8 bytes:
                # the leftmost is lb itself.
                return (sa_arr[lb], _KEY_WIDTH)
            # Gallop left from ip - 1: the run of ranks with lcp >= length
            # ends at ip - 1 and is typically short.
            lo2 = ip - 1
            step = 1
            while True:
                probe = (ip - 1) - step
                if probe < lb:
                    low_bound = lb - 1
                    break
                p = sa_arr[probe]
                f = _KEY_WIDTH
                limit = n - p
                if length < limit:
                    limit = length
                while limit - f >= _KEY_WIDTH:
                    a = qk[qbase + f]
                    b = pk[p + f]
                    if a == b:
                        f += _KEY_WIDTH
                        continue
                    f += (64 - (a ^ b).bit_length()) >> 3
                    break
                else:
                    t = limit - f
                    if t > 0:
                        sb = (8 - t) << 3
                        x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                        if x:
                            f += t - ((x.bit_length() + 7) >> 3)
                        else:
                            f = limit
                    else:
                        f = limit
                if f >= length and limit == length:
                    lo2 = probe
                    step <<= 1
                else:
                    low_bound = probe
                    break
            # Bisect (low_bound, lo2] for the edge of the lcp-run; lo2 is
            # the leftmost rank already verified to achieve the maximum.
            while low_bound + 1 < lo2:
                mid = (low_bound + lo2 + 1) >> 1
                p = sa_arr[mid]
                f = _KEY_WIDTH
                limit = n - p
                if length < limit:
                    limit = length
                while limit - f >= _KEY_WIDTH:
                    a = qk[qbase + f]
                    b = pk[p + f]
                    if a == b:
                        f += _KEY_WIDTH
                        continue
                    f += (64 - (a ^ b).bit_length()) >> 3
                    break
                else:
                    t = limit - f
                    if t > 0:
                        sb = (8 - t) << 3
                        x = (qk[qbase + f] >> sb) ^ (pk[p + f] >> sb)
                        if x:
                            f += t - ((x.bit_length() + 7) >> 3)
                        else:
                            f = limit
                    else:
                        f = limit
                if f >= length and limit == length:
                    lo2 = mid
                else:
                    low_bound = mid
            return (sa_arr[lo2], length)
        length = right_lcp
        if length == _KEY_WIDTH:
            return (sa_arr[lb], _KEY_WIDTH)
        return (sa_arr[ip], length)

    # ------------------------------------------------------------------
    # Pattern queries (used by tests and the dictionary statistics)
    # ------------------------------------------------------------------
    def find_all(self, pattern: bytes) -> Iterator[int]:
        """Yield every starting position of ``pattern`` in the indexed text."""
        if not pattern:
            return
        interval = self.full_interval()
        for offset, byte in enumerate(pattern):
            interval = self.refine(interval, offset, byte)
            if interval.is_empty:
                return
        for rank in range(interval.lb, interval.rb + 1):
            yield int(self._sa[rank])

    def count(self, pattern: bytes) -> int:
        """Number of occurrences of ``pattern`` in the indexed text."""
        if not pattern:
            return 0
        interval = self.full_interval()
        for offset, byte in enumerate(pattern):
            interval = self.refine(interval, offset, byte)
            if interval.is_empty:
                return 0
        return interval.size

    # ------------------------------------------------------------------
    # LCP array (used by dictionary statistics and tests)
    # ------------------------------------------------------------------
    def lcp_array(self) -> np.ndarray:
        """Longest-common-prefix array via Kasai's algorithm.

        ``lcp[i]`` is the length of the longest common prefix of the suffixes
        of ranks ``i - 1`` and ``i`` (``lcp[0]`` is 0 by convention).
        """
        n = self._n
        lcp = np.zeros(n, dtype=np.int64)
        if n == 0:
            return lcp
        rank = np.empty(n, dtype=np.int64)
        rank[self._sa] = np.arange(n, dtype=np.int64)
        text = self._text
        h = 0
        for i in range(n):
            r = rank[i]
            if r > 0:
                j = int(self._sa[r - 1])
                while i + h < n and j + h < n and text[i + h] == text[j + h]:
                    h += 1
                lcp[r] = h
                if h > 0:
                    h -= 1
            else:
                h = 0
        return lcp
