"""Unit tests for varints, binary IO, and the simulated clock."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.util.binio import BinaryReader, BinaryWriter
from repro.util.clock import SimClock, SystemClock
from repro.util.varint import (
    decode_uvarint,
    decode_uvarints,
    encode_uvarint,
    encode_uvarints,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, b"\x00"),
            (1, b"\x01"),
            (127, b"\x7f"),
            (128, b"\x80\x01"),
            (300, b"\xac\x02"),
            (2**32, b"\x80\x80\x80\x80\x10"),
        ],
    )
    def test_known_encodings(self, value, encoded):
        assert encode_uvarint(value) == encoded
        assert decode_uvarint(encoded) == (value, len(encoded))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\x80")

    def test_overlong_rejected(self):
        with pytest.raises(ValueError):
            decode_uvarint(b"\xff" * 11)

    def test_decode_with_offset(self):
        data = b"junk" + encode_uvarint(12345)
        value, pos = decode_uvarint(data, offset=4)
        assert value == 12345
        assert pos == len(data)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_roundtrip(self, value):
        encoded = encode_uvarint(value)
        decoded, pos = decode_uvarint(encoded)
        assert decoded == value
        assert pos == len(encoded)

    @given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
    def test_stream_roundtrip(self, values):
        blob = b"".join(encode_uvarint(v) for v in values)
        pos = 0
        out = []
        for _ in values:
            v, pos = decode_uvarint(blob, pos)
            out.append(v)
        assert out == values

    @given(
        st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40),
        st.binary(max_size=3),
    )
    def test_array_codec_matches_scalar(self, values, junk):
        """The vectorised array codec writes the scalar codec's bytes
        and reads them back, from any offset, ignoring what follows."""
        blob = encode_uvarints(np.asarray(values, dtype=np.int64))
        assert blob == b"".join(encode_uvarint(v) for v in values)
        decoded, pos = decode_uvarints(junk + blob + junk, len(values), len(junk))
        assert decoded.tolist() == values
        assert pos == len(junk) + len(blob)

    def test_array_codec_rejects_bad_input(self):
        with pytest.raises(ValueError):
            encode_uvarints(np.array([3, -1]))
        with pytest.raises(ValueError):
            decode_uvarints(b"\x01\x80", 2)  # second value truncated
        with pytest.raises(ValueError):
            decode_uvarints(b"\x01" + b"\xff" * 10 + b"\x01", 2)  # > 63 bits


class TestBinaryIO:
    def test_fixed_width_roundtrip(self):
        w = BinaryWriter()
        w.write_u8(200)
        w.write_u32(2**31)
        r = BinaryReader(w.getvalue())
        assert r.read_u8() == 200
        assert r.read_bytes(4) == (2**31).to_bytes(4, "little")
        assert r.remaining() == 0

    def test_len_bytes_roundtrip(self):
        w = BinaryWriter()
        w.write_len_bytes(b"hello")
        w.write_len_bytes(b"")
        w.write_str("snow☃man")
        r = BinaryReader(w.getvalue())
        assert r.read_len_bytes() == b"hello"
        assert r.read_len_bytes() == b""
        assert r.read_str() == "snow☃man"

    def test_truncated_read_raises(self):
        r = BinaryReader(b"\x01\x02")
        with pytest.raises(FormatError):
            r.read_bytes(4)

    def test_truncated_varint_raises_format_error(self):
        r = BinaryReader(b"\x80")
        with pytest.raises(FormatError):
            r.read_uvarint()

    def test_reader_offset_start(self):
        w = BinaryWriter()
        w.write_u32(7)
        w.write_u32(9)
        r = BinaryReader(w.getvalue(), offset=4)
        assert r.read_bytes(4) == (9).to_bytes(4, "little")

    def test_len_tracks_writes(self):
        w = BinaryWriter()
        assert len(w) == 0
        w.write_bytes(b"abc")
        assert len(w) == 3

    @given(st.lists(st.binary(max_size=50), max_size=15))
    def test_many_len_bytes(self, chunks):
        w = BinaryWriter()
        for c in chunks:
            w.write_len_bytes(c)
        r = BinaryReader(w.getvalue())
        assert [r.read_len_bytes() for _ in chunks] == chunks


class TestClock:
    def test_sim_clock_advances(self):
        c = SimClock(start=100.0)
        assert c.now() == 100.0
        c.advance(5.5)
        assert c.now() == 105.5

    def test_sim_clock_rejects_backwards(self):
        c = SimClock()
        with pytest.raises(ValueError):
            c.advance(-1)
        with pytest.raises(ValueError):
            c.set(-1)

    def test_sim_clock_set_forward(self):
        c = SimClock(start=10.0)
        c.set(20.0)
        assert c.now() == 20.0

    def test_system_clock_monotonic_enough(self):
        c = SystemClock()
        assert c.now() <= c.now()
