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
"""

from __future__ import annotations

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
    """
    n = len(text) + 1
    symbols = np.zeros(n + PACKED_SYMBOLS - 1, dtype=np.int64)
    symbols[: n - 1] = np.frombuffer(text, dtype=np.uint8)
    symbols[: n - 1] += 1
    # First key: the suffix's leading PACKED_SYMBOLS symbols.
    key = symbols[:n].copy()
    for j in range(1, PACKED_SYMBOLS):
        key <<= SYMBOL_BITS
        key |= symbols[j : j + n]
    k = PACKED_SYMBOLS
    while True:
        order = np.argsort(key)
        sorted_key = key[order]
        distinct = np.empty(n, dtype=bool)
        distinct[0] = False
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=distinct[1:])
        dense = np.cumsum(distinct)
        if dense[-1] == n - 1:
            return order
        rank = np.empty(n, dtype=np.int64)
        rank[order] = dense
        # Next key: (rank[i], rank[i + k]) as one integer, with 0 for a
        # second half past the end; n * (n + 1) fits int64 for any text
        # that fits in memory.
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        k *= 2


def bwt_from_sa(text: bytes, sa: np.ndarray) -> tuple[bytes, int]:
    """BWT of ``text`` given its suffix array.

    Returns ``(bwt, sentinel_index)``: ``bwt[i]`` is the character
    preceding suffix ``sa[i]`` (0x00 placeholder where the preceding
    character is the sentinel, at position ``sentinel_index``).
    """
    n = len(sa)
    arr = np.empty(n, dtype=np.uint8)
    t = np.frombuffer(text, dtype=np.uint8)
    prev = sa - 1
    sentinel_index = int(np.nonzero(sa == 0)[0][0])
    prev_safe = np.where(prev >= 0, prev, 0)
    if len(text):
        arr[:] = t[prev_safe]
    arr[sentinel_index] = 0
    return arr.tobytes(), sentinel_index


def char_counts(bwt: bytes, sentinel_index: int) -> np.ndarray:
    """``C`` array: ``C[c]`` = number of BWT characters smaller than
    ``c``, counting the sentinel (always smallest) but not as a byte.

    Returns int64 array of length 257 where ``C[256]`` is the total.
    """
    arr = np.frombuffer(bwt, dtype=np.uint8)
    counts = np.bincount(arr, minlength=256).astype(np.int64)
    counts[0] -= 1  # the sentinel placeholder is not a real 0x00
    c = np.empty(257, dtype=np.int64)
    c[0] = 1  # the sentinel sorts before everything
    c[1:] = 1 + np.cumsum(counts)
    return c


def lf_array(bwt: bytes, sentinel_index: int) -> np.ndarray:
    """Full LF-mapping (int64 per position), used to invert a BWT.

    ``lf[i]`` is the BWT row of the suffix starting one character before
    row ``i``'s suffix; the sentinel row maps to row 0.
    """
    arr = np.frombuffer(bwt, dtype=np.uint8).astype(np.int64)
    n = len(arr)
    c = char_counts(bwt, sentinel_index)
    lf = np.zeros(n, dtype=np.int64)
    # Occurrence ranks per character, excluding the sentinel slot.
    mask = np.ones(n, dtype=bool)
    mask[sentinel_index] = False
    for ch in np.unique(arr[mask]):
        positions = np.nonzero((arr == ch) & mask)[0]
        lf[positions] = c[ch] + np.arange(len(positions))
    lf[sentinel_index] = 0
    return lf


def lf_array_multi(bwt: bytes, sentinel_indices: list[int]) -> np.ndarray:
    """LF-mapping for a multi-string BWT with ``k`` sentinels.

    Sentinel rows (whose character is a sentinel) map to 0; they are
    never walked from because each is the position-0 suffix of its text,
    which the sampled-SA layer marks as sampled.
    """
    arr = np.frombuffer(bwt, dtype=np.uint8).astype(np.int64)
    n = len(arr)
    k = len(sentinel_indices)
    mask = np.ones(n, dtype=bool)
    mask[list(sentinel_indices)] = False
    counts = np.bincount(arr[mask], minlength=256)
    c = np.empty(257, dtype=np.int64)
    c[0] = k
    c[1:] = k + np.cumsum(counts)
    lf = np.zeros(n, dtype=np.int64)
    for ch in np.unique(arr[mask]):
        positions = np.nonzero((arr == ch) & mask)[0]
        lf[positions] = c[ch] + np.arange(len(positions))
    return lf


def invert_multi_bwt(bwt: bytes, sentinel_indices: list[int]) -> list[bytes]:
    """Recover every text of a multi-string BWT, in collection order.

    Rows ``0..k-1`` are the sentinel suffixes of texts ``0..k-1``; the
    walk from row ``i`` spells text ``i`` back to front and terminates
    when it reaches the text's own sentinel character.
    """
    k = len(sentinel_indices)
    if k == 0:
        raise ValueError("need at least one sentinel")
    sentinel_set = set(int(s) for s in sentinel_indices)
    lf = lf_array_multi(bwt, sentinel_indices)
    arr = np.frombuffer(bwt, dtype=np.uint8)
    texts = []
    for i in range(k):
        chars = bytearray()
        j = i
        while j not in sentinel_set:
            chars.append(arr[j])
            j = lf[j]
        texts.append(bytes(reversed(chars)))
    return texts


def invert_bwt(bwt: bytes, sentinel_index: int) -> bytes:
    """Recover the original text from its BWT (without the sentinel)."""
    n = len(bwt)
    if n == 1:
        return b""
    lf = lf_array(bwt, sentinel_index)
    arr = np.frombuffer(bwt, dtype=np.uint8)
    out = np.empty(n - 1, dtype=np.uint8)
    # Row 0 always holds the sentinel suffix, so bwt[0] is the last text
    # character; LF then walks the text back to front.
    j = 0
    for k in range(n - 2, -1, -1):
        out[k] = arr[j]
        j = lf[j]
    return out.tobytes()
