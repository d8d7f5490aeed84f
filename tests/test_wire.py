"""Tests for the wire format (repro.net.wire)."""

import math
import struct

import pytest

from repro.net.codec import CODEC_BINARY, PostingList, decode_value_exact, encode_value_binary
from repro.net.errors import ProtocolError
from repro.net.wire import (
    DEFAULT_MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameType,
    decode_frame,
    encode_frame,
    parse_frame_info,
)

# One realistic request per message kind the protocol stack sends —
# payloads mirror what the handlers in repro.dht.* / repro.core.index
# actually receive, including the frozenset/tuple shapes that plain
# JSON-shaped data cannot carry.
PROTOCOL_REQUESTS = {
    # Chord (repro.dht.chord)
    "chord.route_step": {"key": 123456789},
    "chord.get_predecessor": {},
    "chord.get_successor_list": {},
    "chord.notify": {"candidate": 42},
    # Kademlia (repro.dht.kademlia)
    "kad.find_node": {"key": 987654321},
    "kad.ping": {},
    # Pastry (repro.dht.pastry)
    "pastry.route_step": {"key": 555},
    # HyperCuP (repro.dht.hypercup)
    "cube.next_hops": {"target": 7, "dimension": 3},
    # DOLR object operations (repro.dht.dolr)
    "dolr.insert_ref": {"object_id": "paper.pdf", "holder": 99},
    "dolr.delete_ref": {"object_id": "paper.pdf", "holder": 99},
    "dolr.read_ref": {"object_id": "paper.pdf"},
    # Hypercube index (repro.core.index / repro.core.search)
    "hindex.put": {
        "logical": 5,
        "object_id": "paper.pdf",
        "keywords": frozenset({"dht", "search", "p2p"}),
    },
    "hindex.remove": {
        "logical": 5,
        "object_id": "paper.pdf",
        "keywords": frozenset({"dht", "search"}),
    },
    "hindex.pin": {"logical": 5, "keywords": frozenset({"dht"})},
    "hindex.scan": {"logical": 5, "keywords": frozenset({"dht"}), "limit": 10},
    "hindex.results": {"count": 3},
    "hindex.transfer": {
        "logical": 5,
        "entries": [(frozenset({"dht", "p2p"}), ("paper.pdf", "slides.ppt"))],
    },
    "hindex.cache_get": {"logical": 5, "keywords": frozenset({"dht"})},
    "hindex.cache_put": {
        "logical": 5,
        "keywords": frozenset({"dht"}),
        "objects": (("paper.pdf", frozenset({"dht", "search"})),),
    },
}

# Representative replies, including the trickiest one on the protocol:
# hindex.scan returns (frozenset, tuple) match pairs.
PROTOCOL_REPLIES = {
    "chord.route_step": {"next": 17, "candidates": [17, 23, 42], "owner": None},
    "hindex.scan": {
        "matches": [
            (frozenset({"dht", "search"}), ("paper.pdf",)),
            (frozenset({"dht", "p2p", "search"}), ("slides.ppt", "notes.txt")),
        ],
        "truncated": False,
    },
    "dolr.read_ref": {"holders": [3, 99]},
    "kad.find_node": {"closest": [(1, 2), (3, 4)]},
}


def roundtrip(frame: Frame) -> Frame:
    decoded, consumed = decode_frame(encode_frame(frame))
    assert consumed == len(encode_frame(frame))
    return decoded


def encode_value(value) -> bytes:
    buffer = bytearray()
    encode_value_binary(buffer, value)
    return bytes(buffer)


class TestValueEncoding:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            0,
            -17,
            3.5,
            "keyword",
            [1, 2, 3],
            (1, 2, 3),
            {"a", "b"},
            frozenset({"x", "y"}),
            {"plain": "dict"},
            {"nested": [(frozenset({"k"}), ("oid",))]},
            {1: "non-string key"},
            {"!": "tag-collision value"},
            (),
            frozenset(),
            {},
        ],
    )
    def test_roundtrip_exact(self, value):
        recovered = decode_value_exact(encode_value(value))
        assert recovered == value
        assert type(recovered) is type(value)

    def test_set_vs_frozenset_distinguished(self):
        assert type(decode_value_exact(encode_value({"a"}))) is set
        assert type(decode_value_exact(encode_value(frozenset({"a"})))) is frozenset

    def test_deterministic_bytes_for_sets(self):
        first = encode_value(frozenset({"c", "a", "b"}))
        second = encode_value(frozenset({"b", "c", "a"}))
        assert first == second

    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_value(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ProtocolError, match="type byte"):
            decode_value_exact(b"\x7f")


class TestFrameRoundtrip:
    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REQUESTS))
    def test_every_protocol_request_kind(self, kind):
        frame = Frame(FrameType.REQUEST, kind, 12, 34, 7, PROTOCOL_REQUESTS[kind])
        assert roundtrip(frame) == frame

    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REPLIES))
    def test_reply_payloads(self, kind):
        frame = Frame(FrameType.REPLY, kind, 34, 12, 7, PROTOCOL_REPLIES[kind])
        assert roundtrip(frame) == frame

    def test_datagram_and_error_frames(self):
        datagram = Frame(FrameType.DATAGRAM, "hindex.results", 1, 2, 3, {"count": 5})
        assert roundtrip(datagram) == datagram
        error = Frame(
            FrameType.ERROR, "hindex.scan", 2, 1, 3,
            {"error": "LookupError", "message": "unknown kind"},
        )
        assert roundtrip(error) == error

    def test_scalar_reply_payloads(self):
        # Handlers may return bare values, not just dicts.
        for payload in (None, True, 7, "ok", [1, 2], (1, 2)):
            frame = Frame(FrameType.REPLY, "chord.get_predecessor", 1, 2, 3, payload)
            assert roundtrip(frame) == frame

    def test_version_byte_on_the_wire(self):
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        assert data[4] == PROTOCOL_VERSION == 2


class TestMalformedFrames:
    def good_bytes(self):
        return encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))

    def test_truncated_rejected(self):
        data = self.good_bytes()
        for cut in (0, 1, 4, 5, len(data) - 1):
            with pytest.raises(ProtocolError):
                decode_frame(data[:cut])

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError, match="zero-length"):
            decode_frame(struct.pack("!I", 0) + b"rest")

    def test_oversized_rejected_from_header_alone(self):
        # Only 4 bytes supplied: the cap must trip before any body reads.
        header = struct.pack("!I", DEFAULT_MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(header)

    def test_encode_respects_cap(self):
        frame = Frame(FrameType.REQUEST, "hindex.put", 1, 2, 3, {"blob": "x" * 100})
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame(frame, max_frame_bytes=32)

    def test_wrong_version_rejected(self):
        for version in (1, 99):  # v1 is the retired JSON format
            data = bytearray(self.good_bytes())
            data[4] = version
            with pytest.raises(ProtocolError, match="version"):
                decode_frame(bytes(data))

    def test_garbage_json_rejected(self):
        # A v1 body is refused by its version byte; the JSON behind it
        # is never parsed.
        body = bytes([1]) + b"{not json"
        with pytest.raises(ProtocolError, match="version 1"):
            decode_frame(struct.pack("!I", len(body)) + body)

    @pytest.mark.parametrize(
        "envelope",
        # Each envelope is a list of byte chunks after the version and
        # codec-id bytes: frame type, kind, src, dst, id, priority, payload.
        [
            [],  # no frame-type byte
            [b"\x09", b"\x08kad.ping", b"\x02\x04\x06\x00", b"\x0a\x00"],  # bad type
            [b"\x00", b"\x08kad"],  # kind cut short
            [b"\x00", b"\x08kad.ping", b"\x02\x04"],  # id and priority missing
            [b"\x00", b"\x08kad.ping", b"\x02\x04\x06\x00"],  # payload missing
            [b"\x00", b"\x08kad.ping", b"\x02\x04\x06\x00", b"\x0a\x00", b"\x00"],  # trailing
        ],
    )
    def test_bad_envelopes_rejected(self, envelope):
        body = bytes([PROTOCOL_VERSION, CODEC_BINARY]) + b"".join(envelope)
        with pytest.raises(ProtocolError):
            decode_frame(struct.pack("!I", len(body)) + body)


class TestBinaryFrames:
    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REQUESTS))
    def test_every_protocol_request_kind(self, kind):
        frame = Frame(FrameType.REQUEST, kind, 12, 34, 7, PROTOCOL_REQUESTS[kind])
        assert roundtrip(frame) == frame

    @pytest.mark.parametrize("kind", sorted(PROTOCOL_REPLIES))
    def test_reply_payloads(self, kind):
        frame = Frame(FrameType.REPLY, kind, 34, 12, 7, PROTOCOL_REPLIES[kind])
        assert roundtrip(frame) == frame

    def test_version_and_codec_bytes_on_the_wire(self):
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        assert data[4] == PROTOCOL_VERSION
        assert data[5] == CODEC_BINARY

    # Reference bytes of the v2 layout: running peers speak exactly
    # this, so the encoder must not move a byte.
    PINNED = {
        "reply": (
            Frame(FrameType.REPLY, "hindex.scan", 34, 12, 7, {
                "matches": PostingList([
                    (frozenset({"dht", "search"}), ("paper.pdf",)),
                    (frozenset({"p2p"}), ("a", "b")),
                ]),
                "truncated": False,
                "epoch": -3,
            }, priority=2),
            b"\x00\x00\x00S\x02\x02\x01\x0bhindex.scanD\x18\x0e\x04\n\x03\x07matches"
            b"\x0c\x02\x02\x03dht\x06search\x01\tpaper.pdf\x01\x03p2p\x02\x01a\x01b"
            b"\ttruncated\x02\x05epoch\x03\x05",
        ),
        "request": (
            Frame(FrameType.REQUEST, "hindex.put", 12, 34, 300, {
                "logical": 5,
                "object_id": "paper.pdf",
                "keywords": frozenset({"dht", "p2p"}),
                "score": 0.5,
                "tags": {1: None, (2, 3): True},
            }),
            b"\x00\x00\x00i\x02\x02\x00\nhindex.put\x18D\xd8\x04\x00\n\x05\x07logical"
            b"\x03\n\tobject_id\x05\tpaper.pdf\x08keywords\t\x02\x05\x03dht\x05\x03p2p"
            b"\x05score\x04?\xe0\x00\x00\x00\x00\x00\x00\x04tags\x0b\x02\x03\x02\x00"
            b"\x07\x02\x03\x04\x03\x06\x01",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_frame_bytes_pinned(self, name):
        frame, pinned = self.PINNED[name]
        assert encode_frame(frame) == pinned
        assert decode_frame(pinned) == (frame, len(pinned))

    def test_parse_frame_info_puts_the_frame_first(self):
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        frame, size = parse_frame_info(data[4:])
        assert frame == Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {})
        assert size == len(data) - 4

    def test_priority_and_negative_addresses(self):
        frame = Frame(FrameType.REQUEST, "hindex.scan", -1, 2**40, 3, {}, priority=9)
        assert roundtrip(frame) == frame

    def test_posting_list_smaller_than_generic_rows(self):
        matches = PostingList(
            (frozenset({f"kw{i}", "dht"}), (f"obj-{i}.pdf",)) for i in range(20)
        )
        flat = encode_frame(Frame(FrameType.REPLY, "hindex.scan", 1, 2, 3,
                                  {"matches": matches, "truncated": False}))
        generic = encode_frame(Frame(FrameType.REPLY, "hindex.scan", 1, 2, 3,
                                     {"matches": list(matches), "truncated": False}))
        assert len(flat) < len(generic)

    def test_unknown_codec_id_rejected(self):
        data = bytearray(encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {})))
        data[5] = 77
        with pytest.raises(ProtocolError, match="codec"):
            decode_frame(bytes(data))

    def test_unknown_frame_type_byte_rejected(self):
        data = bytearray(encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {})))
        data[6] = 250
        with pytest.raises(ProtocolError, match="type"):
            decode_frame(bytes(data))

    def test_truncated_binary_body_rejected(self):
        data = encode_frame(
            Frame(FrameType.REQUEST, "hindex.scan", 1, 2, 3, PROTOCOL_REQUESTS["hindex.scan"])
        )
        # Re-frame a cut body so the length header is consistent.
        cut = data[struct.calcsize("!I"):-4]
        with pytest.raises(ProtocolError):
            decode_frame(struct.pack("!I", len(cut)) + cut)


class TestNonFinitePayloads:
    """NaN/Infinity have no agreed encoding across peers; the encoder
    must refuse them at encode time."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejected_at_encode_time(self, bad):
        frame = Frame(FrameType.REPLY, "stats.latency", 1, 2, 3, {"p99": bad})
        with pytest.raises(ProtocolError, match="unencodable|non-finite"):
            encode_frame(frame)

    def test_nested_nan_rejected(self):
        frame = Frame(FrameType.REPLY, "stats.latency", 1, 2, 3,
                      {"series": [1.0, (2.0, math.nan)]})
        with pytest.raises(ProtocolError):
            encode_frame(frame)


class TestFrameDecoder:
    def test_byte_at_a_time_never_hangs(self):
        frames = [
            Frame(FrameType.REQUEST, kind, 1, 2, i, PROTOCOL_REQUESTS[kind])
            for i, kind in enumerate(sorted(PROTOCOL_REQUESTS))
        ]
        stream = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        seen = []
        for offset in range(len(stream)):
            seen.extend(decoder.feed(stream[offset : offset + 1]))
        assert seen == frames
        decoder.flush()  # clean EOF: no pending bytes

    def test_split_across_arbitrary_chunks(self):
        frame = Frame(FrameType.REQUEST, "hindex.scan", 1, 2, 3, PROTOCOL_REQUESTS["hindex.scan"])
        stream = encode_frame(frame) * 3
        for chunk_size in (1, 2, 3, 5, 7, len(stream)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(stream), chunk_size):
                seen.extend(decoder.feed(stream[start : start + chunk_size]))
            assert seen == [frame, frame, frame]

    def test_truncated_stream_reports_at_flush(self):
        decoder = FrameDecoder()
        data = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        assert decoder.feed(data[:-2]) == []
        assert decoder.pending_bytes == len(data) - 2
        with pytest.raises(ProtocolError, match="mid-frame"):
            decoder.flush()

    def test_oversized_header_poisons_immediately(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(struct.pack("!I", 65))
        with pytest.raises(ProtocolError, match="poisoned"):
            decoder.feed(b"more")

    def test_garbage_after_good_frame_poisons(self):
        decoder = FrameDecoder()
        good = encode_frame(Frame(FrameType.REQUEST, "kad.ping", 1, 2, 3, {}))
        bad_body = bytes([PROTOCOL_VERSION, CODEC_BINARY]) + b"\xff\xfe garbage"
        bad = struct.pack("!I", len(bad_body)) + bad_body
        with pytest.raises(ProtocolError):
            decoder.feed(good + bad)

    def test_fuzz_random_bytes_never_hang(self):
        import random

        rng = random.Random(1234)
        for trial in range(50):
            decoder = FrameDecoder(max_frame_bytes=4096)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 200)))
            try:
                for start in range(0, len(blob), 7):
                    decoder.feed(blob[start : start + 7])
                decoder.flush()
            except ProtocolError:
                pass  # rejection is the expected outcome; hanging is the bug
