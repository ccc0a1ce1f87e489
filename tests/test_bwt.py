"""Suffix array / BWT primitives vs naive references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.indices.fm.bwt import (
    bwt_from_sa,
    char_counts,
    invert_bwt,
    lf_array,
    suffix_array,
)


def naive_suffix_array(text: bytes) -> list[int]:
    # Sentinel suffix (the empty one) sorts first, matching our -1
    # sentinel convention.
    return sorted(range(len(text) + 1), key=lambda i: text[i:])


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
        assert invert_bwt(bwt, si) == text

    @pytest.mark.parametrize(
        "text", [b"", b"a", b"abracadabra", b"aaaa", b"the quick brown fox"]
    )
    def test_invert_roundtrip(self, text):
        sa = suffix_array(text)
        bwt, si = bwt_from_sa(text, sa)
        assert invert_bwt(bwt, si) == text

    @given(st.binary(min_size=0, max_size=500))
    @settings(max_examples=40, deadline=None)
    def test_invert_roundtrip_property(self, text):
        sa = suffix_array(text)
        bwt, si = bwt_from_sa(text, sa)
        assert invert_bwt(bwt, si) == text

    def test_char_counts(self):
        text = b"aabc"
        sa = suffix_array(text)
        bwt, si = bwt_from_sa(text, sa)
        c = char_counts(bwt, si)
        # C[c] = sentinel(1) + #chars < c.
        assert c[ord("a")] == 1
        assert c[ord("b")] == 3
        assert c[ord("c")] == 4
        assert c[256] == 5

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
