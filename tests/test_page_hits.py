"""Verification in the inflated page bytes (``Query.page_hits``).

An exact query finds its key or needle in the encoded page and decodes
only the values that match. These tests pin that it answers exactly what
decoding the page and calling ``matches`` on every value answers, that
it rejects every page decoding rejects, and that a needle the FM index
cannot serve gets the brute-force answer whether or not an index exists.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queries import (
    ExactQuery,
    RangeQuery,
    RegexQuery,
    SubstringQuery,
    UuidQuery,
)
from repro.errors import FormatError
from repro.formats.encoding import decode_values, encode_values, value_bounds
from repro.formats.page_reader import build_page_table
from repro.formats.reader import ParquetFile
from repro.formats.schema import ColumnType, Field

STRING = Field("s", ColumnType.STRING)
BINARY = Field("b", ColumnType.BINARY)

#: ASCII, two-, three- and four-byte UTF-8 (non-BMP) and combining marks.
CHARS = st.sampled_from("ab \n\x7f\u00e9e\u0301\u20ac\u4e2d\U0001f600\U00010348")
#: Padding that moves a value's length prefix to two bytes, and to three.
PAD = [0, 0, 1, 60, 127, 128, 200]
LONG_PAD = PAD + [16_383, 16_384]


@st.composite
def string_values(draw, pad=LONG_PAD):
    """A page of short values over a few repeated pieces (repeated and
    adjacent hits), some padded across the prefix-width thresholds."""
    pieces = draw(st.lists(st.text(CHARS, max_size=6), min_size=1, max_size=4))
    values = []
    for _ in range(draw(st.integers(0, 8))):
        value = "".join(draw(st.lists(st.sampled_from(pieces), max_size=5)))
        if draw(st.booleans()):
            value += "x" * draw(st.sampled_from(pad))
        values.append(value)
    return values


@st.composite
def binary_values(draw, pad=LONG_PAD):
    pieces = draw(st.lists(st.binary(max_size=4), min_size=1, max_size=3))
    values = []
    for _ in range(draw(st.integers(0, 8))):
        value = b"".join(draw(st.lists(st.sampled_from(pieces), max_size=4)))
        if draw(st.booleans()):
            value += b"\x01" * draw(st.sampled_from(pad))
        values.append(value)
    return values


def _page_slice(draw, data: bytes) -> bytes:
    """A run of the page's own bytes: it may start or end inside a value
    or a length prefix, or span several of each."""
    a = draw(st.integers(0, len(data)))
    b = draw(st.integers(a, min(len(data), a + 40)))
    return data[a:b]


def _decoded_hits(query, field, data, count):
    return [
        (i, v)
        for i, v in enumerate(decode_values(field, data, count))
        if query.matches(v)
    ]


@st.composite
def string_cases(draw):
    values = draw(string_values())
    data = encode_values(STRING, values)
    kind = draw(st.sampled_from(["substring", "straddle", "free"]))
    if kind == "substring" and any(values):
        value = draw(st.sampled_from([v for v in values if v]))
        a = draw(st.integers(0, len(value) - 1))
        needle = value[a : draw(st.integers(a + 1, min(len(value), a + 8)))]
    elif kind == "straddle":
        needle = _page_slice(draw, data).decode("utf-8", "ignore")
    else:
        needle = draw(st.text(CHARS, min_size=1, max_size=4))
    return values, data, needle


@st.composite
def binary_cases(draw):
    values = draw(binary_values())
    data = encode_values(BINARY, values)
    kind = draw(st.sampled_from(["value", "prefix", "straddle", "free"]))
    if kind in ("value", "prefix") and values:
        key = draw(st.sampled_from(values))
        if kind == "prefix":  # starts where a value starts, shorter
            key = key[: draw(st.integers(0, len(key)))]
    elif kind == "straddle":
        key = _page_slice(draw, data)
    else:
        key = draw(st.binary(max_size=4))
    return values, data, key


@st.composite
def fixed_width_values(draw):
    """Keys of one length, as a uuid column holds: the page is
    recognised without walking its prefixes."""
    width = draw(st.sampled_from([0, 1, 16, 127, 128]))
    pool = draw(st.lists(st.binary(min_size=width, max_size=width), min_size=1))
    return draw(st.lists(st.sampled_from(pool), max_size=12))


class TestValueBounds:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(binary_values(), fixed_width_values()))
    def test_bounds_are_where_each_value_was_written(self, values):
        data = encode_values(BINARY, values)
        starts, ends = value_bounds(data, len(values))
        expected, pos = [], 0
        for value in values:
            pos += len(encode_values(BINARY, [value])) - len(value)
            expected.append((pos, pos + len(value)))
            pos += len(value)
        assert list(zip(starts, ends)) == expected

    def test_fixed_width_page_is_not_fooled_by_its_size(self):
        """Right size, one prefix byte off: the walk decides, and
        rejects the page."""
        data = bytearray(encode_values(BINARY, [b"a" * 16] * 4))
        data[17] = 15
        with pytest.raises(FormatError):
            value_bounds(bytes(data), 4)


class TestKernelEqualsDecode:
    @settings(max_examples=200, deadline=None)
    @given(fixed_width_values(), st.data())
    def test_fixed_width_uuid_hits_equal_decode_and_match(self, values, data):
        page = encode_values(BINARY, values)
        key = data.draw(st.sampled_from(values) if values else st.just(b""))
        if data.draw(st.booleans()):
            key = _page_slice(data.draw, page)
        query = UuidQuery(key)
        assert list(query.page_hits(BINARY, page, len(values))) == _decoded_hits(
            query, BINARY, page, len(values)
        )

    @settings(max_examples=300, deadline=None)
    @given(string_cases())
    def test_substring_hits_equal_decode_and_match(self, case):
        values, data, needle = case
        query = SubstringQuery(needle)
        assert list(query.page_hits(STRING, data, len(values))) == _decoded_hits(
            query, STRING, data, len(values)
        )

    @settings(max_examples=300, deadline=None)
    @given(binary_cases())
    def test_uuid_hits_equal_decode_and_match(self, case):
        values, data, key = case
        query = UuidQuery(key)
        assert list(query.page_hits(BINARY, data, len(values))) == _decoded_hits(
            query, BINARY, data, len(values)
        )

    def test_hits_are_decoded_values_in_page_order(self):
        values = ["ab ab", "b", "xab", "", "aab" * 50, "ba"]
        data = encode_values(STRING, values)
        assert list(SubstringQuery("ab").page_hits(STRING, data, len(values))) == [
            (0, "ab ab"),
            (2, "xab"),
            (4, "aab" * 50),
        ]
        keys = [b"k", b"kk", b"k", b"", b"k"]
        data = encode_values(BINARY, keys)
        assert list(UuidQuery(b"k").page_hits(BINARY, data, len(keys))) == [
            (0, b"k"),
            (2, b"k"),
            (4, b"k"),
        ]
        assert list(UuidQuery(b"").page_hits(BINARY, data, len(keys))) == [(3, b"")]

    def test_other_queries_decode(self):
        """Queries without a byte kernel verify on decoded values."""
        data = encode_values(BINARY, [b"a", b"b", b"c"])
        query = RangeQuery(b"b", b"c")
        assert list(query.page_hits(BINARY, data, 3)) == [(1, b"b"), (2, b"c")]
        ints = Field("i", ColumnType.INT64)
        data = encode_values(ints, [3, 5, 7])
        assert list(RangeQuery(4, 9).page_hits(ints, data, 3)) == [(1, 5), (2, 7)]


def test_pages_are_checked_at_once_and_matched_as_read():
    """A search that stops at K skips the matching of its later pages,
    never their checks."""
    data = encode_values(STRING, ["a", "b"])
    hits = RegexQuery("(").page_hits(STRING, data, 2)  # not yet matched
    with pytest.raises(re.error):
        next(hits)
    with pytest.raises(FormatError):
        RegexQuery("(").page_hits(STRING, data[:-1], 2)


def _rejected(query, field, data, count) -> None:
    """Both paths refuse the page — decoding it, and the query's kernel
    — before a single hit is read."""
    with pytest.raises(FormatError):
        ExactQuery.page_hits(query, field, data, count)
    with pytest.raises(FormatError):
        query.page_hits(field, data, count)


class TestCorruptPages:
    @settings(max_examples=60, deadline=None)
    @given(string_values(pad=PAD), binary_values(pad=PAD))
    def test_truncated_at_every_byte_and_trailing_bytes(self, strings, keys):
        for field, values, query in (
            (STRING, strings, SubstringQuery("x")),
            (BINARY, keys, UuidQuery(keys[0] if keys else b"\x01")),
        ):
            data = encode_values(field, values)
            for cut in range(len(data)):
                _rejected(query, field, data[:cut], len(values))
            _rejected(query, field, data + b"x", len(values))
            _rejected(query, field, data, len(values) + 1)

    def test_overlong_prefixes(self):
        for field, query in ((STRING, SubstringQuery("a")), (BINARY, UuidQuery(b"a"))):
            # A length past the page's end, and a varint of 11 bytes.
            _rejected(query, field, b"\x01a\x05abc", 2)
            _rejected(query, field, b"\x01a" + b"\xff" * 11, 2)
            # A two-byte length whose second byte is missing.
            _rejected(query, field, b"\x01a\x81", 2)
        # A value behind a three-byte prefix, cut inside the prefix,
        # inside the value and one byte short of the end.
        data = encode_values(STRING, ["a", "b" * 16_384])
        for cut in (2, 3, 4, 5, 100, len(data) - 1):
            _rejected(SubstringQuery("a"), STRING, data[:cut], 2)

    @pytest.mark.parametrize(
        "bad", [b"\xff", b"\xc3", b"\xed\xa0\x80", b"a\x80b", b"\xf0\x9f\x98"]
    )
    def test_invalid_utf8_in_a_non_matching_value(self, bad):
        """The needle hits another value; the page is still rejected, as
        decoding it rejects it."""
        data = (
            encode_values(STRING, ["needle here"])
            + bytes([len(bad)])
            + bad
            + encode_values(STRING, ["x" * 300])
        )
        _rejected(SubstringQuery("needle"), STRING, data, 3)
        # The same value behind a two-byte prefix.
        long_bad = bad + b"y" * 200
        prefix = bytes([0x80 | len(long_bad) & 0x7F, len(long_bad) >> 7])
        data = encode_values(STRING, ["needle"]) + prefix + long_bad
        _rejected(SubstringQuery("needle"), STRING, data, 2)


class TestSearchPath:
    @pytest.mark.parametrize(
        "needle", ["", "a\x00b", "\ud800"], ids=["empty", "nul", "lone_surrogate"]
    )
    def test_unservable_needle_answers_like_brute_force(self, indexed_client, needle):
        """The FM index cannot serve an empty needle, one with NUL (its
        row separator) or one that is not UTF-8, so such a needle is
        scanned: the same rows whether or not an index exists."""
        query = SubstringQuery(needle)
        indexed = indexed_client.search("text", query, k=25)
        brute = indexed_client.search("text", query, k=25, use_indices=False)
        assert [(m.file, m.row, m.value) for m in indexed.matches] == [
            (m.file, m.row, m.value) for m in brute.matches
        ]
        assert len(indexed.matches) == (25 if needle == "" else 0)
        assert query.index_types == ()
        assert SubstringQuery("a").index_types == ("fm",)

    def test_corrupt_uuid_page_is_a_format_error(self, indexed_client, event_lake):
        """A raw (codec NONE) uuid page whose first length prefix is off
        by one no longer holds its values: the exact path raises."""
        store = indexed_client.store
        path = event_lake.snapshot().file_paths[0]
        pf = ParquetFile(store, path)
        entry = build_page_table(pf.metadata, path, "uuid").entry(0)
        data = bytearray(store.get(path))
        assert data[entry.offset] == 16  # a raw page: 16-byte keys
        key = bytes(data[entry.offset + 1 : entry.offset + 17])
        assert indexed_client.search("uuid", UuidQuery(key), k=1).matches
        data[entry.offset] = 17
        store.put(path, bytes(data))
        with pytest.raises(FormatError):
            indexed_client.search("uuid", UuidQuery(key), k=1)
