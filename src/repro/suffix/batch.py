"""Batch lockstep factorization: many greedy parses advanced in one kernel.

:meth:`repro.suffix.SuffixArray.factorize_stream` parses one document
factor by factor in Python.  :class:`LockstepParser` parses a whole batch
of documents at once: the text is cut into segments of about
``SEGMENT`` bytes, each segment gets a *lane*, and every step of the
kernel advances every lane by one level of its current factor with a
handful of numpy calls over all lanes together.

**Speculative pass.**  A lane starts a greedy parse at its segment start
and emits factors until it crosses the segment end.  On each step:

* a lane at the start of a factor looks its first ``WIDTH`` (32) bytes up
  with one ``np.searchsorted`` over the rank-ordered level-0 keys, the
  first 32 bytes of every suffix as fixed-width byte strings;
* a lane inside an interval of suffixes that all share its first ``m``
  bytes compares the next 64 bytes against the interval's first and last
  suffix and advances by the shorter common prefix, which every suffix in
  between shares too; a single candidate is finished this way;
* where the interval's ends diverge, the lane bisects the interval, in
  lockstep with the other lanes, over 8-byte keys gathered from a strided
  big-endian ``>u8`` view of the zero-padded dictionary;
* when a window stops matching, the factor's partial length is the longer
  common prefix with the two insertion neighbours, and its position the
  leftmost rank sharing that prefix: the insertion point when the left
  neighbour falls short, else one more search on the masked key.

**Repair pass.**  A segment's last factor ends at its *exit*.  An exit that
is not already a speculative factor start gets a repair lane, which parses
on until it lands on such a start (or on another repair lane's start, or
at the end of its document).

**Assembly.**  Each document's parse is the chain of factors reached from
its first byte by pointer-jumping over the computed factors.

The output equals the per-document parse byte for byte, by construction:
the greedy factor at a position depends only on that position (the longest
match, leftmost suffix-array rank on ties), so any factor the kernel
computes at ``p`` is the factor every other engine computes at ``p``, and
the chain from a document's start visits exactly the greedy parse.
Zero bytes are ambiguous against the zero padding of keys near the
dictionary's end, so every window is cut at its first zero byte (and at
the document end): up to there the padded keys compare exactly, and a
window that matches up to its cut only narrows the interval, leaving the
zero byte to the exact 64-byte comparison.  A window that starts with a
zero byte is finished by the per-character
``SuffixArray._longest_match_refine``, as the single-document engines do.

Memory stays bounded by the batch: ``BATCH_BYTES`` of text per kernel
run, one flag byte per text byte for the repair stop set, and a few arrays
per lane and per factor.  Nothing per text byte is 8 bytes wide.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import FactorizationError

__all__ = ["LockstepParser"]

_KEY_WIDTH = 8
#: Bytes a single-candidate lane compares per step.
_ROW = 64
#: Zero padding past the end of both texts: a 64-byte row read at the end.
PADDING = _ROW + _KEY_WIDTH

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
#: ``_MASKS[s]`` keeps the first ``s`` bytes of a big-endian key.
_MASKS = np.array(
    [((1 << 64) - 1) ^ ((1 << (64 - 8 * s)) - 1) for s in range(_KEY_WIDTH + 1)],
    dtype=np.uint64,
)
#: ``8 - searchsorted(_BYTE_LIMITS, x, "right")`` counts leading zero bytes.
_BYTE_LIMITS = np.array([1 << (8 * b) for b in range(_KEY_WIDTH)], dtype=np.uint64)
_LOW_SEVEN = np.uint64(0x7F7F7F7F7F7F7F7F)

Streams = Tuple[List[int], List[int]]
#: ``refine(query, start, max_len, lb, rb, matched) -> (position, length)``
Refine = Callable[[bytes, int, int, int, int, int], Tuple[int, int]]


def _key_view(padded: np.ndarray) -> np.ndarray:
    """Big-endian uint64 key of every offset of ``padded``, without copying."""
    return np.ndarray(
        (len(padded) - _KEY_WIDTH + 1,), dtype=">u8", buffer=padded, strides=(1,)
    )


def _row_view(padded: np.ndarray, width: int = _ROW) -> np.ndarray:
    """The ``width`` bytes at every offset of ``padded``, without copying."""
    return np.lib.stride_tricks.sliding_window_view(padded, width)


def _common_prefix(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Common prefix length of each pair of equal-width byte rows."""
    differ = rows != others
    return np.where(differ.any(axis=1), differ.argmax(axis=1), rows.shape[1])


def _common_bytes(xor: np.ndarray) -> np.ndarray:
    """Leading zero bytes of each uint64 (8 for zero)."""
    return _KEY_WIDTH - np.searchsorted(_BYTE_LIMITS, xor, side="right")


def _longest_neighbour(right, left, limit):
    """Bytes a window shares with its best insertion neighbour, capped at
    its limit, and whether the left neighbour reaches that too.

    The longest common prefix with a sorted key set is reached at a
    neighbour of the insertion point.  When the left neighbour falls short,
    the insertion point itself is the leftmost rank with that prefix;
    otherwise a search on the masked key finds it.
    """
    left = np.minimum(left, limit)
    shared = np.minimum(np.maximum(right, left), limit)
    return shared, (left == shared) & (shared > 0)


class _Lanes:
    """Struct-of-arrays state of the active lanes, compacted as they retire."""

    __slots__ = ("ids", "cur", "end", "limit", "matched", "lo", "hi")

    def __init__(self, cur: np.ndarray, end: np.ndarray, limit: np.ndarray) -> None:
        count = len(cur)
        self.ids = np.arange(count)
        self.cur = cur.astype(np.int64)
        self.end = end.astype(np.int64)
        self.limit = limit.astype(np.int64)
        self.matched = np.zeros(count, dtype=np.int64)
        self.lo = np.zeros(count, dtype=np.int64)
        self.hi = np.zeros(count, dtype=np.int64)

    def keep(self, mask: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[mask])


class _Query:
    """One batch's text: the joined documents and views of its padded copy."""

    __slots__ = ("text", "padded", "keys", "rows", "wide")

    def __init__(self, documents: List[bytes], total: int, width: int) -> None:
        self.text = b"".join(documents)
        padded = np.zeros(total + PADDING, dtype=np.uint8)
        padded[:total] = np.frombuffer(self.text, dtype=np.uint8)
        self.padded = padded
        self.keys = _key_view(padded)
        self.rows = _row_view(padded)
        self.wide = _row_view(padded, width)


class LockstepParser:
    """Greedy RLZ parse of document batches against one suffix array.

    ``padded`` is the dictionary followed by at least ``PADDING`` zero
    bytes and ``sa`` its suffix array.  ``refine`` finishes a factor whose
    window starts with a zero byte; it is
    :meth:`repro.suffix.SuffixArray._longest_match_refine`.  The level-0
    keys built here take ``WIDTH`` bytes per dictionary byte.
    """

    #: Bytes of text per speculative lane.  Longer segments leave fewer
    #: factors to repair but need more kernel steps per batch.
    SEGMENT = 1024

    #: Bytes of text per kernel run: bounds the per-factor arrays.
    BATCH_BYTES = 4 << 20

    #: Bytes of the level-0 keys a factor start is looked up in.  Wider
    #: keys resolve more factors in one C-level search (measured: 16 bytes
    #: took ~1.5x as long as 32 on the gov benchmark corpus).
    WIDTH = 32

    def __init__(self, padded: np.ndarray, sa: np.ndarray, refine: Refine) -> None:
        self._n = len(sa)
        if len(padded) < self._n + PADDING:
            raise ValueError("dictionary needs PADDING zero bytes past its end")
        self._sa = sa
        self._dkeys = _key_view(padded)
        self._drows = _row_view(padded)
        # The first WIDTH bytes of every suffix in rank order, as fixed-width
        # byte strings: numpy compares them like memcmp, so they are sorted.
        self._wide_rows = _row_view(padded, self.WIDTH)[sa]
        self._wide = self._wide_rows.view(f"S{self.WIDTH}").ravel()
        self._refine = refine

    def factorize(self, documents: Sequence[bytes]) -> List[Streams]:
        """The (positions, lengths) streams of every document, in order."""
        results: List[Streams] = []
        batch: List[bytes] = []
        size = 0
        for document in documents:
            if batch and size + len(document) > self.BATCH_BYTES:
                results.extend(self._factorize_batch(batch))
                batch, size = [], 0
            batch.append(document)
            size += len(document)
        if batch:
            results.extend(self._factorize_batch(batch))
        return results

    # ------------------------------------------------------------------
    # One batch
    # ------------------------------------------------------------------
    def _factorize_batch(self, documents: List[bytes]) -> List[Streams]:
        sizes = np.array([len(document) for document in documents], dtype=np.int64)
        doc_end = np.cumsum(sizes)
        doc_start = doc_end - sizes
        total = int(doc_end[-1])
        if total == 0:
            return [([], []) for _ in documents]
        query = _Query(documents, total, self.WIDTH)

        # Speculative lanes: every document cut into near-equal segments,
        # each lane parsing up to the next lane's start.
        present = np.flatnonzero(sizes)
        segments = np.maximum(1, (sizes[present] + self.SEGMENT // 2) // self.SEGMENT)
        owner = np.repeat(present, segments)
        pieces = np.repeat(segments, segments)
        index = np.arange(len(owner)) - np.repeat(np.cumsum(segments) - segments, segments)
        starts = doc_start[owner] + sizes[owner] * index // pieces
        ends = doc_end[owner]
        last = np.append(owner[1:] != owner[:-1], True)
        limits = np.where(last, ends, np.append(starts[1:], total))
        *speculative, exits = self._run(query, starts, ends, limits, None)

        # Repair lanes from every exit that no speculative lane starts at.
        stops = np.zeros(total + 1, dtype=bool)
        stops[speculative[0]] = True
        exits = np.unique(exits[(exits < ends) & ~stops[exits]])
        factors = [speculative]
        if len(exits):
            stops[exits] = True
            repair_end = doc_end[np.searchsorted(doc_end, exits, side="right")]
            factors.append(self._run(query, exits, repair_end, repair_end, stops)[:3])
        del stops
        return self._assemble(factors, sizes, doc_start, doc_end)

    # ------------------------------------------------------------------
    # The lockstep kernel
    # ------------------------------------------------------------------
    def _run(
        self,
        query: _Query,
        starts: np.ndarray,
        ends: np.ndarray,
        limits: np.ndarray,
        stops: Optional[np.ndarray],
    ):
        """Parse from every start until the lane reaches its limit.

        A lane retires once its cursor reaches ``limits`` (or its document
        end), or, when ``stops`` is given, lands on a flagged position
        after its first factor.  Returns the emitted ``(start, position,
        length)`` arrays and each lane's final cursor.
        """
        lanes = _Lanes(starts, ends, limits)
        exits = np.empty(len(starts), dtype=np.int64)
        emitted: List[Tuple[np.ndarray, ...]] = []
        while len(lanes.cur):
            out_lane, out_pos, out_len = self._step(query, lanes)
            if not len(out_lane):
                continue
            emitted.append((lanes.cur[out_lane], out_pos, out_len))
            cursor = lanes.cur[out_lane] + np.maximum(out_len, 1)
            lanes.cur[out_lane] = cursor
            lanes.matched[out_lane] = 0
            done = (cursor >= lanes.limit[out_lane]) | (cursor >= lanes.end[out_lane])
            if stops is not None:
                done |= stops[cursor]
            if done.any():
                retired = out_lane[done]
                exits[lanes.ids[retired]] = lanes.cur[retired]
                alive = np.ones(len(lanes.cur), dtype=bool)
                alive[retired] = False
                lanes.keep(alive)
        if emitted:
            columns = [np.concatenate(column) for column in zip(*emitted)]
        else:
            columns = [np.empty(0, dtype=np.int64) for _ in range(3)]
        return (*columns, exits)

    def _step(self, query: _Query, lanes: _Lanes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Advance every lane one step; returns the factors finished as
        ``(lane, position, length)`` arrays."""
        started = lanes.matched > 0
        fresh = np.flatnonzero(~started)
        inside = np.flatnonzero(started)
        emits: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        if len(inside):
            narrow = self._skip(query, lanes, inside, emits)
            if len(narrow):
                self._level(query, lanes, narrow, emits)
        if len(fresh):
            self._start(query, lanes, fresh, emits)
        if len(emits) == 1:
            return emits[0]
        return tuple(np.concatenate(column) for column in zip(*emits))

    def _skip(self, query: _Query, lanes: _Lanes, group: np.ndarray, emits: list) -> np.ndarray:
        """Extend lanes inside an interval by up to 64 bytes.

        Every suffix between the interval's first and last rank shares at
        least the shorter of their common prefixes with the query, so the
        lane advances by that much at once.  A single candidate finishes its
        factor as soon as the comparison stops short; a wider interval that
        stops short is handed back for a bisect at the new offset.
        """
        matched = lanes.matched[group]
        cur = lanes.cur[group]
        lo, hi = lanes.lo[group], lanes.hi[group]
        first = self._sa[lo]
        remaining = lanes.end[group] - cur - matched
        reach = np.minimum(remaining, self._n - first - matched)
        rows = query.rows[cur + matched]
        reach = np.minimum(reach, _common_prefix(rows, self._drows[first + matched]))
        wide = np.flatnonzero(hi - lo > 1)
        if len(wide):
            last = self._sa[hi[wide] - 1]
            at = matched[wide]
            common = _common_prefix(rows[wide], self._drows[last + at])
            reach[wide] = np.minimum(reach[wide], np.minimum(self._n - last - at, common))
        matched += reach
        lanes.matched[group] = matched
        short = reach < _ROW
        single = hi - lo == 1
        finished = (matched == lanes.end[group] - cur) | (single & short)
        emits.append((group[finished], first[finished], matched[finished]))
        return group[short & ~finished]

    def _window(self, query: _Query, lanes: _Lanes, group: np.ndarray):
        """Key of each lane's next 8 bytes, cut to its *limit*: the bytes
        before the first zero byte and before the document end."""
        at = lanes.cur[group] + lanes.matched[group]
        raw = query.keys[at].astype(np.uint64)
        # Exact zero-byte flags: a byte's high bit is set iff the byte is 0.
        flags = ~(((raw & _LOW_SEVEN) + _LOW_SEVEN) | raw | _LOW_SEVEN)
        limit = np.minimum(_common_bytes(flags), lanes.end[group] - at)
        return raw & _MASKS[limit], limit

    def _start(self, query: _Query, lanes: _Lanes, group: np.ndarray, emits: list) -> None:
        """Look the first ``WIDTH`` bytes of a new factor up in one search.

        The window is cut to its *limit*, the bytes before the first zero
        byte and before the document end, so the zero-padded keys compare
        with it exactly.  A window that matches up to its limit leaves the
        lane inside the interval of suffixes sharing those bytes.
        """
        width = self.WIDTH
        n = self._n
        cur = lanes.cur[group]
        window = query.wide[cur]
        zeros = window == 0
        limit = np.where(zeros.any(axis=1), zeros.argmax(axis=1), width)
        limit = np.minimum(limit, lanes.end[group] - cur)
        stuck = limit == 0
        if stuck.any():
            emits.append(self._fallback(query, lanes, group[stuck]))
            keep = ~stuck
            group, cur, window, limit = group[keep], cur[keep], window[keep], limit[keep]
            if not len(group):
                return
        # Visiting the needles in sorted order keeps consecutive binary
        # searches on shared, cached paths; their first 8 bytes suffice.
        order = np.argsort(query.keys[cur].astype(np.uint64))
        group, cur, window, limit = group[order], cur[order], window[order], limit[order]
        cut = np.flatnonzero(limit < width)
        if len(cut):
            rows = window[cut]
            rows[np.arange(width) >= limit[cut, None]] = 0
            window[cut] = rows
        needles = window.view(self._wide.dtype).ravel()
        insert = np.searchsorted(self._wide, needles)
        right = np.where(
            insert < n, _common_prefix(window, self._wide_rows[np.minimum(insert, n - 1)]), 0
        )
        whole = right >= limit
        if whole.any():
            # The keys with the window's prefix end at the last key <= the
            # prefix followed by 0xff bytes.
            upper = window[whole]
            upper[np.arange(width) >= limit[whole][:, None]] = 0xFF
            advance = group[whole]
            lanes.lo[advance] = insert[whole]
            lanes.hi[advance] = np.searchsorted(
                self._wide, upper.view(self._wide.dtype).ravel(), side="right"
            )
            lanes.matched[advance] = limit[whole]
        ending = ~whole
        group, cur, window, limit = group[ending], cur[ending], window[ending], limit[ending]
        insert, right = insert[ending], right[ending]
        left = np.where(
            insert > 0, _common_prefix(window, self._wide_rows[np.maximum(insert - 1, 0)]), 0
        )
        shared, search = _longest_neighbour(right, left, limit)
        rank = insert
        if search.any():
            masked = window[search]
            masked[np.arange(width) >= shared[search][:, None]] = 0
            rank[search] = np.searchsorted(self._wide, masked.view(self._wide.dtype).ravel())
        positions = self._sa[np.minimum(rank, n - 1)]
        literal = shared == 0
        if literal.any():
            positions[literal] = query.padded[cur[literal]]
        emits.append((group, positions, shared))

    def _level(self, query: _Query, lanes: _Lanes, group: np.ndarray, emits: list) -> None:
        """Bisect an 8-byte window into lanes' multi-suffix intervals.

        As in :meth:`_start`, the window is cut to its limit; one that
        matches up to it narrows the interval to the suffixes sharing it.
        """
        key, limit = self._window(query, lanes, group)
        stuck = limit == 0
        if stuck.any():
            emits.append(self._fallback(query, lanes, group[stuck]))
            keep = ~stuck
            group, key, limit = group[keep], key[keep], limit[keep]
            if not len(group):
                return
        lo, hi = lanes.lo[group], lanes.hi[group]
        offset = lanes.matched[group]
        insert = self._bisect(lo, hi, key, offset)
        inside = insert < hi
        right_key = self._keys_at(np.minimum(insert, hi - 1), offset)
        right = np.where(inside, _common_bytes(key ^ right_key), 0)
        whole = right >= limit
        left_key = self._keys_at(np.maximum(insert - 1, lo), offset)
        left = np.where(insert > lo, _common_bytes(key ^ left_key), 0)
        shared, search = _longest_neighbour(right, left, limit)
        # One more bisect serves both outcomes: the end of the run sharing
        # the window for lanes that matched up to their limit (the first key
        # above the prefix followed by 0xff bytes; an all-0xff bound runs to
        # the interval's end), the leftmost rank sharing the partial prefix
        # for the rest.
        again = np.flatnonzero(whole | search)
        second = insert.copy()
        if len(again):
            grow = whole[again]
            upper = key[again] | ~_MASKS[limit[again]]
            target = np.where(grow, upper + np.uint64(1), key[again] & _MASKS[shared[again]])
            top = np.where(grow, hi[again], insert[again])
            bottom = np.where(grow, np.where(upper == _ONES, top, insert[again]), lo[again])
            second[again] = self._bisect(bottom, top, target, offset[again])
        if whole.any():
            advance = group[whole]
            lanes.lo[advance] = insert[whole]
            lanes.hi[advance] = second[whole]
            lanes.matched[advance] += limit[whole]
        ending = ~whole
        shared, second = shared[ending], second[ending]
        rank = np.where(shared > 0, second, lo[ending])
        emits.append((group[ending], self._sa[rank], offset[ending] + shared))

    def _fallback(self, query: _Query, lanes: _Lanes, group: np.ndarray):
        """Finish factors whose window starts with a zero byte by
        per-character refinement."""
        refine = self._refine
        text = query.text
        positions = np.empty(len(group), dtype=np.int64)
        lengths = np.empty(len(group), dtype=np.int64)
        for slot, lane in enumerate(group.tolist()):
            cursor = int(lanes.cur[lane])
            matched = int(lanes.matched[lane])
            if matched:
                lb, rb = int(lanes.lo[lane]), int(lanes.hi[lane]) - 1
            else:
                lb, rb = 0, self._n - 1
            position, length = refine(
                text, cursor, int(lanes.end[lane]) - cursor, lb, rb, matched
            )
            positions[slot] = position if length else text[cursor]
            lengths[slot] = length
        return group, positions, lengths

    # ------------------------------------------------------------------
    # Vectorised search helpers
    # ------------------------------------------------------------------
    def _keys_at(self, ranks: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Native uint64 key of the bytes ``offset`` into each ranked suffix."""
        return self._dkeys[self._sa[ranks] + offset].astype(np.uint64)

    def _bisect(self, lo, hi, target, offset) -> np.ndarray:
        """First rank in ``[lo, hi)`` whose key is ``>= target``, per lane."""
        result = lo.copy()
        active = np.flatnonzero(lo < hi)
        low, high = lo[active], hi[active]
        target, offset = target[active], offset[active]
        while len(active):
            mid = (low + high) >> 1
            below = self._keys_at(mid, offset) < target
            low = np.where(below, mid + 1, low)
            high = np.where(below, high, mid)
            open_ = low < high
            if open_.all():
                continue
            result[active] = low
            active, low, high = active[open_], low[open_], high[open_]
            target, offset = target[open_], offset[open_]
        return result

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _assemble(self, factors, sizes, doc_start, doc_end) -> List[Streams]:
        starts, positions, lengths = (np.concatenate(column) for column in zip(*factors))
        order = np.argsort(starts, kind="stable")
        starts, positions, lengths = starts[order], positions[order], lengths[order]
        del order
        count = len(starts)
        # A factor's successor is the factor starting where it ends (the
        # first of equal duplicates).  The last factor of a document points
        # at the next document's first factor, itself a chain start, and
        # the batch's last at ``count``, a sentinel that points at itself.
        following = starts + np.maximum(lengths, 1)
        jump = np.append(np.searchsorted(starts, following), count)
        present = np.flatnonzero(sizes)
        on_chain = np.zeros(count + 1, dtype=bool)
        on_chain[np.searchsorted(starts, doc_start[present])] = True
        # Forward doubling: after round r the flags hold the first 2^r
        # factors of every document's chain.
        reach = 1
        longest = int(sizes.max())
        while reach < longest:
            on_chain[jump[on_chain]] = True
            reach *= 2
            if reach < longest:
                jump = jump[jump]
        chosen = np.flatnonzero(on_chain[:count])
        starts, following = starts[chosen], following[chosen]
        bounds = np.searchsorted(starts, doc_start)
        bounds = np.append(bounds, len(starts))
        # Every document must be tiled exactly: first factor at its start,
        # each next factor where the previous ended, last ending at its end.
        tiled = np.ones(len(starts), dtype=bool)
        tiled[1:] = starts[1:] == following[:-1]
        tiled[bounds[present]] = starts[bounds[present]] == doc_start[present]
        closes = following[bounds[present + 1] - 1] == doc_end[present]
        if not (tiled.all() and closes.all()):
            raise FactorizationError("batch parse does not tile its documents")
        position_list = positions[chosen].tolist()
        length_list = lengths[chosen].tolist()
        return [
            (position_list[bounds[i] : bounds[i + 1]], length_list[bounds[i] : bounds[i + 1]])
            for i in range(len(sizes))
        ]
