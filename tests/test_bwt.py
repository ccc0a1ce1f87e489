"""Suffix array / BWT primitives vs naive references."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indices.fm.bwt import (
    bwt_from_sa,
    invert_bwt,
    lf_array,
    suffix_array,
)


def naive_suffix_array(text: bytes) -> list[int]:
    # Sentinel suffix (the empty one) sorts first, matching our -1
    # sentinel convention.
    return sorted(range(len(text) + 1), key=lambda i: text[i:])


def invert(text: bytes, sample_rate: int = 4) -> bytes:
    """BWT ``text``, sample its suffix array, and invert it back."""
    sa = suffix_array(text)
    bwt, si = bwt_from_sa(text, sa)
    rows = np.flatnonzero(sa % sample_rate == 0)
    return invert_bwt(bwt, si, rows, sa[rows])


class TestSuffixArray:
    @pytest.mark.parametrize(
        "text",
        [
            b"",
            b"a",
            b"aa",
            b"ab",
            b"ba",
            b"banana",
            b"mississippi",
            b"abcabcabc",
            b"\x00\x01\x00\x01",
            bytes(range(256)),
            b"zzzzzzzzzz",
        ],
    )
    def test_matches_naive(self, text):
        assert list(suffix_array(text)) == naive_suffix_array(text)

    def test_length(self):
        assert len(suffix_array(b"hello")) == 6

    def test_sentinel_first(self):
        sa = suffix_array(b"xyz")
        assert sa[0] == 3

    @given(st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_property(self, text):
        assert list(suffix_array(text)) == naive_suffix_array(text)

    def test_peak_memory_per_character(self):
        """One int64 scratch buffer for sorted keys and ranks and an
        int32 dense rank keep the sort at about 25 bytes per character
        (it was 65 with a padded symbol array and fresh buffers)."""
        from repro.indices.fm.fm_index import page_text
        from repro.workloads.text import TextWorkload

        gen = TextWorkload(seed=1, vocabulary_size=2000)
        chunks, size = [], 0
        while size < 491_616:
            chunks.append(page_text(gen.documents(400, avg_chars=80)))
            size += len(chunks[-1])
        text = b"".join(chunks)[:491_616]
        tracemalloc.start()
        try:
            suffix_array(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 36 * len(text)

    @given(
        st.one_of(
            # Random bytes almost never share 7 characters, and then the
            # packed first key settles every suffix. These do: small
            # alphabets, NUL-heavy rows, periodic texts (several
            # doublings), and the empty / 1-byte edge.
            st.text(alphabet="ab", max_size=200).map(str.encode),
            st.lists(st.sampled_from([0, 0, 0, 1]), max_size=200).map(bytes),
            st.tuples(
                st.binary(min_size=1, max_size=6), st.integers(1, 40)
            ).map(lambda unit_times: unit_times[0] * unit_times[1]),
            st.binary(max_size=1),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_on_repetitive_texts(self, text):
        assert list(suffix_array(text)) == naive_suffix_array(text)


class TestBwt:
    def test_banana(self):
        text = b"banana"
        sa = suffix_array(text)
        bwt, si = bwt_from_sa(text, sa)
        # Classic result with sentinel: annb$aa -> our placeholder is 0.
        assert bwt[si] == 0
        assert invert(text) == text

    @pytest.mark.parametrize(
        "text", [b"", b"a", b"abracadabra", b"aaaa", b"the quick brown fox"]
    )
    def test_invert_roundtrip(self, text):
        assert invert(text) == text

    @given(st.binary(min_size=0, max_size=500), st.integers(1, 70))
    @settings(max_examples=40, deadline=None)
    def test_invert_roundtrip_property(self, text, sample_rate):
        assert invert(text, sample_rate) == text

    def test_lf_walk_visits_text_backwards(self):
        text = b"mississippi"
        sa = suffix_array(text)
        bwt, si = bwt_from_sa(text, sa)
        lf = lf_array(bwt, si)
        # Walking LF from row 0 spells the text backwards.
        out = []
        j = 0
        for _ in range(len(text)):
            out.append(bwt[j])
            j = lf[j]
        assert bytes(reversed(out)) == text
