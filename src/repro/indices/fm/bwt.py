"""Suffix array and Burrows-Wheeler transform primitives.

The substring index (§V-C2) is an FM-index over the concatenated page
texts. Construction uses prefix-doubling (O(n log^2 n)) on numpy arrays
— pure Python SA-IS would be far slower at the MB scales this repo runs.
The doubling starts at seven characters, not one: the first pass sorts
suffixes by seven symbols packed into one int64, and every later pass
sorts one combined ``rank * (n + 1) + next_rank`` key with a single
``np.argsort`` — four passes on word text where doubling from one
character took six two-key ``np.lexsort`` passes.

Conventions:

* input text is ``bytes``; a unique sentinel smaller than every byte is
  appended internally (represented as -1 in int space),
* the suffix array has ``len(text) + 1`` entries; entry 0 is the
  sentinel suffix,
* the BWT is returned as a byte array of the same length with the
  sentinel's slot holding 0x00, plus the index of that slot.

A *multi-string* BWT (what compaction wrote before merges became
inversion plus one rebuild) has one sentinel row per text; rows
``0..k-1`` are the texts' sentinel suffixes in collection order, and
:func:`invert_bwt` recovers the concatenated texts of either kind.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


#: Symbols packed into the first sort key: byte values become 1..256
#: (0 is the sentinel and the padding past it), so a symbol needs 9 bits
#: and 7 of them fill a non-negative int64.
PACKED_SYMBOLS = 7
SYMBOL_BITS = 9


def suffix_array(text: bytes) -> np.ndarray:
    """Suffix array (including the sentinel suffix) of ``text``.

    Returns an int64 array ``sa`` of length ``len(text) + 1`` where
    ``sa[i]`` is the start of the i-th smallest suffix; ``sa[0] ==
    len(text)`` (the sentinel).

    Peak memory is about 29 bytes per character: the key, the order
    and one scratch buffer (8 bytes each; the scratch holds the sorted
    keys, then the ranks), a flag byte and an int32 dense rank.
    """
    n = len(text) + 1
    chars = np.frombuffer(text, dtype=np.uint8)
    # First key: the suffix's leading PACKED_SYMBOLS symbols, packed in
    # place — shift, then OR in the next byte (+1) where there is one.
    key = np.zeros(n, dtype=np.int64)
    for j in range(PACKED_SYMBOLS):
        key <<= SYMBOL_BITS
        present = key[: max(n - 1 - j, 0)]
        present |= chars[j:]
        present += 1
    scratch = np.empty(n, dtype=np.int64)
    distinct = np.empty(n, dtype=bool)
    distinct[0] = False
    k = PACKED_SYMBOLS
    while True:
        order = np.argsort(key)
        # mode="clip" writes straight into ``out``; "raise" would buffer.
        np.take(key, order, out=scratch, mode="clip")
        np.not_equal(scratch[1:], scratch[:-1], out=distinct[1:])
        dense = np.cumsum(distinct, dtype=np.int32)
        if dense[-1] == n - 1:
            return order
        scratch[order] = dense  # the sorted keys are dead: now ranks
        del dense, order
        # Next key: (rank[i], rank[i + k]) as one integer, with 0 for a
        # second half past the end; n * (n + 1) fits int64 for any text
        # that fits in memory.
        np.multiply(scratch, n + 1, out=key)
        key[: n - k] += scratch[k:]
        key[: n - k] += 1
        k *= 2


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


def lf_array(bwt: bytes, sentinels: Sequence[int]) -> np.ndarray:
    """Full LF mapping of a (multi-string) BWT: one stable argsort.

    ``lf[i]`` is the BWT row of the suffix starting one character before
    row ``i``'s suffix. Sentinel rows sort first, in row order, so they
    map onto rows ``0..k-1`` — which text's sentinel suffix each one
    reaches is not recorded, and nothing walks LF from a sentinel row.
    """
    key = np.frombuffer(bwt, dtype=np.uint8).astype(np.uint16)
    key += 1
    key[list(sentinels)] = 0
    order = np.argsort(key, kind="stable")  # a radix sort on 16 bits
    dtype = np.int32 if len(key) < 2**31 else np.int64
    lf = np.empty(len(key), dtype=dtype)
    lf[order] = np.arange(len(key), dtype=dtype)
    return lf


def invert_bwt(
    bwt: bytes,
    sentinels: Sequence[int],
    sample_rows: np.ndarray,
    sample_positions: np.ndarray,
) -> bytes:
    """The concatenated texts behind a (multi-string) BWT.

    Seeded from the sampled suffix array: every sampled row, and each
    text's sentinel suffix (row ``t`` for text ``t``, at the text's
    end), starts a backward LF walk that spells the characters before
    its position until it reaches the next seed. All walks advance
    together as one numpy frontier, so the loop runs as many times as
    the widest gap between samples (the sample rate), not once per
    character. Every text's first position must be sampled, which is
    what locates the texts: a sentinel row's sample is where its text
    starts.
    """
    n, k = len(bwt), len(sentinels)
    if k == 0:
        raise ValueError("need at least one sentinel")
    sentinel_rows = np.asarray(sentinels, dtype=np.int64)
    sample_rows = np.asarray(sample_rows, dtype=np.int64)
    sample_positions = np.asarray(sample_positions, dtype=np.int64)
    starts = np.sort(sample_positions[np.isin(sample_rows, sentinel_rows)])
    if len(starts) != k:
        raise ValueError("every text's first position must be sampled")
    ends = np.append(starts[1:], n - k)
    rows, first = np.unique(
        np.concatenate((np.arange(k), sample_rows)), return_index=True
    )
    positions = np.concatenate((ends, sample_positions))[first]
    seeded = np.zeros(n, dtype=bool)
    seeded[rows] = True
    # A sentinel row sits at its text's start: nothing precedes it.
    walking = ~np.isin(rows, sentinel_rows)
    rows, positions = rows[walking], positions[walking]
    chars = np.frombuffer(bwt, dtype=np.uint8)
    lf = lf_array(bwt, sentinels)
    text = np.empty(n - k, dtype=np.uint8)
    spelled = 0
    while len(rows):
        positions -= 1
        text[positions] = chars[rows]
        spelled += len(rows)
        rows = lf[rows]
        walking = ~seeded[rows]
        rows, positions = rows[walking], positions[walking]
    if spelled != n - k:
        raise ValueError(f"samples spell {spelled} of {n - k} characters")
    return text.tobytes()
