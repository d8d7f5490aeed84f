"""Tests for the codec core (repro.net.codec).

The load-bearing property: every value in the protocol's value domain
round-trips through the binary encoding to an equal value of the same
type — so a payload produced by any layer (wire, WAL, scans) reaches
its consumer exactly as it was built.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import (
    PostingList,
    decode_value_exact,
    encode_value_binary,
    new_buffer,
    read_str,
    read_uvarint,
    read_varint,
    write_str,
    write_uvarint,
    write_varint,
)
from repro.net.errors import ProtocolError
from repro.net.wire import Frame, FrameType, decode_frame, encode_frame


def encode(value) -> bytes:
    buffer = bytearray()
    encode_value_binary(buffer, value)
    return bytes(buffer)


def roundtrip(value):
    return decode_value_exact(encode(value))


def frame_with(payload) -> Frame:
    return Frame(FrameType.REPLY, "hindex.scan", 1, 2, 3, payload)


# -- hypothesis strategies --------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=4),
    ),
    max_leaves=8,
)

values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(st.text(max_size=10), inner, max_size=5),
        st.dictionaries(hashables, inner, max_size=4),
    ),
    max_leaves=20,
)

posting_rows = st.lists(
    st.tuples(
        st.frozensets(st.text(max_size=12), min_size=1, max_size=5),
        st.lists(st.text(max_size=16), max_size=5).map(tuple),
    ),
    max_size=6,
).map(PostingList)


class TestRoundTripProperties:
    @settings(max_examples=300)
    @given(values)
    def test_value_roundtrip(self, value):
        """Every value survives both as a bare value and as a frame
        payload."""
        assert roundtrip(value) == value
        decoded, _ = decode_frame(encode_frame(frame_with(value)))
        assert decoded.payload == value

    @given(st.integers())
    def test_signed_varint_roundtrip(self, value):
        buffer = bytearray()
        write_varint(buffer, value)
        decoded, position = read_varint(buffer, 0)
        assert decoded == value
        assert position == len(buffer)

    @given(st.integers(min_value=0))
    def test_unsigned_varint_roundtrip(self, value):
        buffer = bytearray()
        write_uvarint(buffer, value)
        decoded, position = read_uvarint(buffer, 0)
        assert decoded == value
        assert position == len(buffer)

    @given(st.text(max_size=64))
    def test_raw_string_roundtrip(self, value):
        buffer = bytearray()
        write_str(buffer, value)
        decoded, position = read_str(memoryview(buffer), 0)
        assert decoded == value
        assert position == len(buffer)

    @given(posting_rows)
    def test_posting_list_roundtrip(self, rows):
        decoded = roundtrip(rows)
        assert type(decoded) is PostingList
        assert decoded == rows

    @settings(max_examples=100)
    @given(values)
    def test_encode_determinism(self, value):
        """Same value, same bytes (sets are sorted)."""
        assert encode(value) == encode(value)


class TestValueDomain:
    def test_type_fidelity(self):
        """tuple/set/frozenset/int-keyed-dict survive *as their own
        types* — the whole point of one type byte per value."""
        value = {
            "t": (1, 2),
            "s": {"a", "b"},
            "f": frozenset({3}),
            "d": {7: "seven", (1, 2): "pair"},
        }
        decoded = roundtrip(value)
        assert decoded == value
        assert type(decoded["t"]) is tuple
        assert type(decoded["s"]) is set
        assert type(decoded["f"]) is frozenset

    def test_plain_list_does_not_become_posting_list(self):
        rows = [(frozenset({"k"}), ("o",))]
        decoded = roundtrip(rows)
        assert decoded == rows
        assert type(decoded) is list

    def test_varint_magnitude_edges(self):
        for value in (0, -1, 1, 63, 64, 127, 128, -128, 2**63, -(2**63), 2**200, -(2**200)):
            assert roundtrip(value) == value

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_rejected_by_both(self, bad):
        """Both entry points refuse: the value encoder and the frame
        encoder."""
        with pytest.raises(ProtocolError):
            encode(bad)
        with pytest.raises(ProtocolError):
            encode_frame(frame_with({"p99": bad}))

    def test_unencodable_rejected_by_both(self):
        with pytest.raises(ProtocolError):
            encode(object())
        with pytest.raises(ProtocolError):
            encode_frame(frame_with({"blob": object()}))


class TestBinaryMalformed:
    def test_trailing_bytes_rejected(self):
        data = encode({"a": 1}) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            decode_value_exact(data)

    def test_unknown_type_byte(self):
        with pytest.raises(ProtocolError, match="type byte"):
            decode_value_exact(b"\xff")

    def test_truncated_string(self):
        data = encode("hello world")
        with pytest.raises(ProtocolError):
            decode_value_exact(data[:-3])

    def test_truncated_container(self):
        data = encode([1, 2, 3])
        with pytest.raises(ProtocolError):
            decode_value_exact(data[:-1])

    def test_empty_input(self):
        with pytest.raises(ProtocolError):
            decode_value_exact(b"")

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ProtocolError):
            decode_value_exact(b"\x05\x02\xff\xfe")


class TestRegistry:
    """The per-thread registry of reusable encode buffers."""

    def test_new_buffer_is_reused_and_emptied(self):
        first = new_buffer()
        first += b"leftovers"
        second = new_buffer()
        assert second is first
        assert len(second) == 0
