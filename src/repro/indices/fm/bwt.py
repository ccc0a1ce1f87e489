"""Suffix array and Burrows-Wheeler transform primitives.

The substring index (§V-C2) is an FM-index over the concatenated page
texts. Construction uses prefix-doubling (O(n log^2 n)) on numpy arrays
— pure Python SA-IS would be far slower at the MB scales this repo runs.

* The first pass sorts every suffix by its leading symbols packed into
  one int64, over the text's own alphabet: 10 symbols on word text
  (46 distinct bytes, 6 bits each), 7 when all 256 bytes occur.
* Each doubling then re-sorts only the suffixes still in a group of
  two or more, a chunk of whole groups at a time, by ``(group, rank h
  symbols on)``. On word text (491,616 characters of
  ``TextWorkload(vocabulary_size=2000)``) 79% of the suffixes are
  unsettled after 10 symbols, 19.5% after 20 and nine groups after
  40, so three refining passes together re-sort about one text's
  worth of suffixes. Re-sorting every suffix per doubling took four
  full passes from 7 symbols.
* Peak memory is the first sort's, about 25 bytes per character on
  that text (the full re-sort peaked at 33): see :func:`suffix_array`.

Conventions:

* input text is ``bytes``; a unique sentinel smaller than every byte is
  appended internally (represented as -1 in int space),
* the suffix array has ``len(text) + 1`` entries; entry 0 is the
  sentinel suffix,
* the BWT is returned as a byte array of the same length with the
  sentinel's slot holding 0x00, plus the index of that slot;
  :func:`invert_bwt` takes that index back to recover the text.
"""

from __future__ import annotations

import numpy as np


#: Entries of unsettled groups one refining sort takes at once. A chunk
#: holds whole groups, so it runs past this by at most one group.
GROUP_CHUNK = 1 << 16


def suffix_array(text: bytes) -> np.ndarray:
    """Suffix array (including the sentinel suffix) of ``text``.

    Returns an int64 array ``sa`` of length ``len(text) + 1`` where
    ``sa[i]`` is the start of the i-th smallest suffix; ``sa[0] ==
    len(text)`` (the sentinel).

    One full sort by the packed first key, then prefix doubling over
    the *unsettled* suffixes only: those still in a group of two or
    more equal prefixes, re-sorted a chunk of whole groups at a time by
    ``(group, rank of the suffix h further on)``. A suffix's rank is
    the sorted position of its group's first row, so ranks refined
    earlier in a pass only sharpen the order a later chunk sorts by.
    The suffix array is unique, so this returns exactly what a full
    re-sort per doubling returns.

    Peak memory is about 25 bytes per character, in the first sort:
    the key, its order and the sorted keys (8 bytes each) and a flag
    byte. The doubling holds less: the array (8 bytes), an int32 rank,
    the unsettled groups (8 bytes a group) and one chunk's buffers
    (about 2.5 MB, which a text under ~200 K characters feels per
    character).
    """
    n = len(text) + 1
    itype = np.int32 if n < 2**31 else np.int64
    key, width = _packed_key(text)
    sa = np.argsort(key)
    boundary = np.empty(n + 1, dtype=bool)  # a group starts at this row
    boundary[0] = boundary[n] = True
    sorted_keys = key.take(sa)
    del key
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:n])
    del sorted_keys
    rows = np.arange(n, dtype=itype)
    rank = np.empty(n, dtype=itype)
    rank[sa] = _group_heads(rows, boundary)
    starts, sizes = _unsettled_groups(rows, boundary)
    del rows, boundary
    h = width
    while len(starts):
        starts, sizes = _refine(sa, rank, starts, sizes, h)
        h *= 2
    return sa


def _packed_key(text: bytes) -> tuple[np.ndarray, int]:
    """Each suffix's leading symbols packed into one int64, and how many.

    Symbols are the text's own bytes renumbered ``1..sigma`` in byte
    order (0 is the sentinel and the padding past it), so a symbol
    takes ``sigma.bit_length()`` bits and ``63 // bits`` fill a
    non-negative int64: 10 over word text's 46 bytes, 7 over all 256.
    """
    n = len(text) + 1
    chars = np.frombuffer(text, dtype=np.uint8)
    codes = np.cumsum(np.bincount(chars, minlength=256) > 0, dtype=np.uint16)
    bits = max(int(codes[-1]).bit_length(), 1)
    width = 63 // bits
    symbols = codes[chars]
    key = np.zeros(n, dtype=np.int64)
    for j in range(width):
        # Shift, then OR in the next symbol where there is one.
        key <<= bits
        key[: max(n - 1 - j, 0)] |= symbols[j:]
    return key, width


def _group_heads(rows: np.ndarray, boundary: np.ndarray) -> np.ndarray:
    """Per sorted row, the row its group starts at (``boundary`` flags
    each group's first row, plus one past the end)."""
    heads = rows * boundary[:-1]
    np.maximum.accumulate(heads, out=heads)
    return heads


def _unsettled_groups(
    rows: np.ndarray, boundary: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First row and size of every group of two or more rows."""
    first = np.flatnonzero(boundary)
    sizes = np.diff(first)
    several = sizes > 1
    return rows[first[:-1][several]], sizes[several].astype(rows.dtype)


def _refine(
    sa: np.ndarray,
    rank: np.ndarray,
    starts: np.ndarray,
    sizes: np.ndarray,
    h: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One doubling step over the unsettled groups: sort each by the
    rank ``h`` symbols on, update ``sa`` and ``rank`` in place, and
    return the groups still unsettled.

    A suffix in a group of two or more is longer than ``h`` (its first
    ``h`` symbols would hold the unique sentinel otherwise), so
    ``rank[suffix + h]`` is always in range.
    """
    n = len(sa)
    ends = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ends[1:])
    cuts = np.searchsorted(ends, np.arange(GROUP_CHUNK, ends[-1], GROUP_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts, [len(sizes)])))
    next_starts, next_sizes = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        group_starts, group_sizes = starts[lo:hi], sizes[lo:hi]
        rows = np.arange(ends[hi] - ends[lo], dtype=rank.dtype)
        rows += np.repeat(group_starts - (ends[lo:hi] - ends[lo]), group_sizes)
        suffixes = sa[rows]
        # (group, next rank) as one integer below n², which fits int64
        # for any text that fits in memory.
        key = np.repeat(group_starts.astype(np.int64) * n, group_sizes)
        key += rank[suffixes + h]
        order = np.argsort(key)
        key = key[order]
        suffixes = suffixes[order]
        sa[rows] = suffixes
        boundary = np.empty(len(rows) + 1, dtype=bool)
        boundary[0] = boundary[-1] = True
        np.not_equal(key[1:], key[:-1], out=boundary[1:-1])
        del key, order
        rank[suffixes] = _group_heads(rows, boundary)
        chunk_starts, chunk_sizes = _unsettled_groups(rows, boundary)
        next_starts.append(chunk_starts)
        next_sizes.append(chunk_sizes)
    return np.concatenate(next_starts), np.concatenate(next_sizes)


def bwt_from_sa(text: bytes, sa: np.ndarray) -> tuple[bytes, int]:
    """BWT of ``text`` given its suffix array.

    Returns ``(bwt, sentinel_index)``: ``bwt[i]`` is the character
    preceding suffix ``sa[i]`` (0x00 placeholder where the preceding
    character is the sentinel, at position ``sentinel_index``).
    """
    sentinel_index = int(np.flatnonzero(sa == 0)[0])
    if text:
        # sa - 1 is -1 only in the sentinel's slot, overwritten below.
        arr = np.frombuffer(text, dtype=np.uint8).take(sa - 1, mode="wrap")
    else:
        arr = np.zeros(len(sa), dtype=np.uint8)
    arr[sentinel_index] = 0
    return arr.tobytes(), sentinel_index


def lf_array(bwt: bytes, sentinel: int) -> np.ndarray:
    """Full LF mapping of a BWT: one stable argsort.

    ``lf[i]`` is the BWT row of the suffix starting one character before
    row ``i``'s suffix. The sentinel's row sorts first, so it maps onto
    row 0, the sentinel suffix; nothing walks LF from it.
    """
    key = np.frombuffer(bwt, dtype=np.uint8).astype(np.uint16)
    key += 1
    key[sentinel] = 0
    order = np.argsort(key, kind="stable")  # a radix sort on 16 bits
    dtype = np.int32 if len(key) < 2**31 else np.int64
    lf = np.empty(len(key), dtype=dtype)
    lf[order] = np.arange(len(key), dtype=dtype)
    return lf


def invert_bwt(
    bwt: bytes,
    sentinel: int,
    sample_rows: np.ndarray,
    sample_positions: np.ndarray,
) -> bytes:
    """The text behind a BWT whose sentinel is in row ``sentinel``.

    Seeded from the sampled suffix array: every sampled row, and the
    sentinel suffix (row 0, at the text's end), starts a backward LF
    walk that spells the characters before its position until it
    reaches the next seed. All walks advance together as one numpy
    frontier, so the loop runs as many times as the widest gap between
    samples (the sample rate), not once per character. The text's first
    position must be sampled: it is the sentinel row's sample, and
    nothing precedes it.
    """
    n = len(bwt)
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    sample_positions = np.asarray(sample_positions, dtype=np.int64)
    if not (sample_rows == sentinel).any():
        raise ValueError("the text's first position must be sampled")
    rows, first = np.unique(np.append(0, sample_rows), return_index=True)
    positions = np.append(n - 1, sample_positions)[first]
    seeded = np.zeros(n, dtype=bool)
    seeded[rows] = True
    walking = rows != sentinel
    rows, positions = rows[walking], positions[walking]
    chars = np.frombuffer(bwt, dtype=np.uint8)
    lf = lf_array(bwt, sentinel)
    text = np.empty(n - 1, dtype=np.uint8)
    spelled = 0
    while len(rows):
        positions -= 1
        text[positions] = chars[rows]
        spelled += len(rows)
        rows = lf[rows]
        walking = ~seeded[rows]
        rows, positions = rows[walking], positions[walking]
    if spelled != n - 1:
        raise ValueError(f"samples spell {spelled} of {n - 1} characters")
    return text.tobytes()
