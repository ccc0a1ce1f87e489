"""BWT merging via interleave iteration (Holt & McMillan, 2014).

The paper merges FM indices "with bounded interleave iterations" [43].
Given the BWTs of two texts (each with its own sentinel), the BWT of
the two-string collection is an *interleave* of the input BWTs: every
merged row takes its character from one source, preserving source
order. Starting from the trivial interleave (all of A, then all of B),
each pass applies one stable counting-sort step — equivalently, one
LF-extension — so after ``k`` passes rows are correctly ordered by
their first ``k`` characters. With 0x00 row separators bounding LCPs,
natural corpora converge in a few dozen passes; the iteration count is
bounded, and on non-convergence the caller falls back to inversion +
rebuild.

Only the first pass sorts every row. A pass changes the interleave at
some positions; around them lie *balanced windows* — the shortest
position ranges that hold the same number of A rows before and after
the change. Outside the windows every row keeps its source, its rank
within that source (so the character it emits) and the multiset of
characters emitted before it, hence its LF target. The next pass
therefore re-sorts only the rows inside the windows, into the target
positions those same rows held before (kept in one ``lf`` array), and
the result is the interleave a full stable sort would have produced.
On text the windows shrink geometrically: a merge that used to sort
``passes * n`` rows sorts about a fifth of that.

The result is a **multi-string** BWT: two sentinel rows (A's sentinel
sorting before B's). The FM querier supports this directly — its ``C``
array and ``Occ`` handle any number of sentinels — and satellite arrays
(page map, SA samples) weave through the same interleave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RottnestIndexError

#: Interleave passes before giving up (the paper's bound). Each pass is
#: one vectorized stable sort, so the bound is generous.
DEFAULT_MAX_ITERATIONS = 10_000

#: Rows per step of the counting sort inside a pass.
SORT_CHUNK = 1 << 15

#: Merged rows emit *symbols*: 0 for a sentinel of part A, 1 for one of
#: part B (so A's texts sort before B's), ``byte + FIRST_BYTE`` otherwise.
SENTINEL_A, SENTINEL_B, FIRST_BYTE = 0, 1, 2
ALPHABET = FIRST_BYTE + 256


class MergeDidNotConverge(RottnestIndexError):
    """The interleave did not reach a fixpoint within the bound."""


@dataclass(frozen=True)
class BwtMerge:
    """A converged interleave and what it cost to reach."""

    #: ``interleave[row]`` is False when merged row ``row`` comes from
    #: A, True from B.
    interleave: np.ndarray
    #: The merged BWT as symbols (``SENTINEL_A``, ``SENTINEL_B`` or
    #: ``byte + FIRST_BYTE`` per row).
    symbols: np.ndarray
    #: Passes run, the last of which changed nothing.
    iterations: int
    #: Rows stably sorted over all passes (``n`` in the first).
    rows_sorted: int

    def bwt_and_sentinels(self) -> tuple[bytes, list[int]]:
        """The merged multi-string BWT bytes and its sentinel rows."""
        sentinels = np.flatnonzero(self.symbols < FIRST_BYTE)
        # Placeholder 0x00 in the sentinel slots, as in single BWTs.
        bwt = np.maximum(self.symbols, FIRST_BYTE) - FIRST_BYTE
        return bwt.astype(np.uint8).tobytes(), sentinels.tolist()


def _symbols(
    bwt: bytes, sentinel_indices: list[int], sentinel_symbol: int
) -> np.ndarray:
    """One part's BWT as symbols; its sentinels all become
    ``sentinel_symbol`` so every A sentinel sorts before every B
    sentinel. Sentinels *within* one part keep their relative order
    through the stable sort, which is exactly their (already correct)
    order in that part."""
    arr = np.frombuffer(bwt, dtype=np.uint8).astype(np.int16)
    arr += FIRST_BYTE
    arr[list(sentinel_indices)] = sentinel_symbol
    return arr


def apply_interleave(
    interleave: np.ndarray, values_a: np.ndarray, values_b: np.ndarray
) -> np.ndarray:
    """Weave two per-row arrays by the merge interleave (False = A)."""
    if len(values_a) + len(values_b) != len(interleave):
        raise RottnestIndexError(
            f"interleave of length {len(interleave)} cannot weave "
            f"{len(values_a)} + {len(values_b)} rows"
        )
    out = np.empty(len(interleave), dtype=np.asarray(values_a).dtype)
    # Integer positions, not boolean masks: numpy's masked scatter walks
    # the mask byte by byte, which costs more than ``flatnonzero``.
    out[~interleave] = values_a
    out[interleave] = values_b
    return out


def _balanced_windows(moved: np.ndarray, to_b: np.ndarray) -> np.ndarray:
    """Every position of the balanced windows around ``moved``.

    ``moved`` are the (sorted) positions whose source flipped in a pass,
    ``to_b[i]`` whether position ``moved[i]`` went A -> B. A window
    opens at a flip and closes at the flip that brings the running
    count of A rows back to what it was, so each window holds the same
    rows, reordered, as before the pass.
    """
    balance = np.cumsum(np.where(to_b, 1, -1))
    closes = np.flatnonzero(balance == 0)
    starts = moved[np.concatenate(([0], closes[:-1] + 1))]
    lengths = moved[closes] - starts + 1
    # Concatenated aranges: a run of ones whose jump at each window
    # start skips the gap to it, summed in place.
    rows = np.ones(int(lengths.sum()), dtype=np.int64)
    first = np.cumsum(lengths) - lengths
    rows[first] = starts - np.concatenate(([0], starts[:-1] + lengths[:-1] - 1))
    return np.cumsum(rows, out=rows)


def _sort_rows(
    lf: np.ndarray,
    rows: np.ndarray,
    emitted: np.ndarray,
    source: np.ndarray,
    interleave: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One LF-extension over ``rows``: stable sort them by emitted
    character into the positions this same set of rows was sent to last
    time (updating ``lf``), and compare the sources arriving there with
    the interleave. Returns the positions whose source flips and
    whether each flips A -> B.

    The sort is a counting sort fed ``SORT_CHUNK`` rows at a time: a
    chunk's rows go, character by character, behind the rows earlier
    chunks put there. Its only row-sized buffers are the targets and one
    flag each, which is what keeps a merge's peak memory at the level
    of one plain ``argsort`` over all rows.
    """
    targets = lf[rows]
    targets.sort()
    chunks = [
        slice(lo, lo + SORT_CHUNK) for lo in range(0, len(rows), SORT_CHUNK)
    ]
    counts = np.array(
        [np.bincount(emitted[chunk], minlength=ALPHABET) for chunk in chunks]
    )
    # Sorted slots ahead of a chunk's rows, per character: every row
    # with a smaller character, and earlier chunks' rows with the same.
    totals = counts.sum(axis=0)
    ahead = (np.cumsum(totals) - totals) + (np.cumsum(counts, axis=0) - counts)
    flips = np.empty(len(rows), dtype=bool)
    for chunk, count, taken in zip(chunks, counts, ahead):
        order = np.argsort(emitted[chunk], kind="stable")
        # Slot = slots ahead for the character + the row's rank among
        # this chunk's rows with the same character.
        group_start = np.cumsum(count) - count
        slots = np.repeat(taken - group_start, count) + np.arange(len(order))
        sent_to = targets[slots]
        lf[rows[chunk][order]] = sent_to
        flips[slots] = source[chunk][order] != interleave[sent_to]
    moved = targets[flips]
    return moved, ~interleave[moved]


def _reweave_windows(
    woven: np.ndarray,
    interleave: np.ndarray,
    rows: np.ndarray,
    moved: np.ndarray,
    to_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a pass's flips to ``interleave`` and re-emit ``woven``
    inside the windows ``rows``: each window emits the same A
    characters in the same order, and the same B characters, from its
    new A and B slots. Returns ``(woven[rows], interleave[rows])``."""
    before = interleave[rows]
    interleave[moved] = to_b
    source = interleave[rows]
    old = woven[rows]
    emitted = apply_interleave(
        source, old[~before], old[before]
    )
    woven[rows] = emitted
    return emitted, source


def merge_bwts(
    bwt_a: bytes,
    sentinels_a: list[int],
    bwt_b: bytes,
    sentinels_b: list[int],
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> BwtMerge:
    """Merge two (possibly multi-string) BWTs by interleave iteration.

    Raises :class:`MergeDidNotConverge` past ``max_iterations``.
    """
    # ``woven``: characters emitted by merged rows in the current order.
    woven = np.concatenate(
        (
            _symbols(bwt_a, sentinels_a, SENTINEL_A),
            _symbols(bwt_b, sentinels_b, SENTINEL_B),
        )
    )
    n = len(woven)
    interleave = np.zeros(n, dtype=bool)
    interleave[len(bwt_a):] = True
    # lf[row]: the position the last pass that sorted ``row`` sent it
    # to; n long in every pass, so kept narrow.
    lf = np.arange(n, dtype=np.int32 if n < 2**31 else np.int64)
    # Rows to sort this pass, with their characters and sources.
    rows, emitted, source = np.arange(n), woven, interleave
    rows_sorted = 0

    for iteration in range(1, max_iterations + 1):
        rows_sorted += len(rows)
        moved, to_b = _sort_rows(lf, rows, emitted, source, interleave)
        if not len(moved):
            return BwtMerge(interleave, woven, iteration, rows_sorted)
        del rows, emitted, source  # dead; free them before the next are built
        rows = _balanced_windows(moved, to_b)
        emitted, source = _reweave_windows(woven, interleave, rows, moved, to_b)
    raise MergeDidNotConverge(
        f"interleave did not converge within {max_iterations} iterations"
    )
