"""Length-prefixed, versioned wire format for protocol messages.

Every frame has one layout (the value encoding behind it lives in
:mod:`repro.net.codec`)::

    +----------------+-----------+----------+-----------------------+
    | length (4B BE) | version=2 | codec=2  | binary envelope       |
    +----------------+-----------+----------+-----------------------+

``length`` covers everything after the header (version byte onward), so
a reader can size its buffer before parsing.  The envelope is: the
frame-type byte, length-prefixed ``kind``, zigzag varints for
``src``/``dst``/``id``/``pr``, then the payload in the binary value
encoding — varint ints, raw UTF-8 strings, one type byte per value, and
the flat posting-set form for scan replies.  See ``docs/protocol.md``
§18 for the byte-level layout.  Version 1 (the JSON frames of builds
that predate the binary codec) is no longer spoken: a v1 frame is
rejected like any other unknown version.

Frame types: ``req`` (request, expects a reply), ``rep`` (reply,
``p`` is the handler's return value), ``err`` (reply, the handler
raised; ``p`` carries the error type and message), ``msg`` (one-way
datagram, no reply), ``busy`` (the T_BUSY fast-reject: the server's
admission controller refused the request before dispatching it; ``p``
carries the queue depth and a retry-after hint — see
:mod:`repro.net.admission`) and ``gos`` (a one-way anti-entropy
membership exchange carrying epoch-stamped peer-book deltas; handled
at the transport level, never dispatched to a node handler, and not
accounted as a protocol message — see :mod:`repro.membership`).  A
request carries its admission priority in the ``pr`` field (zero by
default).

**Payloads.**  Protocol payloads are not plain JSON-shaped data: the
index layer ships keyword sets as ``frozenset`` and scan results as
``(frozenset, tuple)`` pairs (see ``hindex.scan``).  The binary value
encoding carries ``tuple``/``set``/``frozenset`` and non-string dict
keys as their own types, so a handler behind a socket receives
*exactly* the payload it would have received in-process, which is what
makes simulator/socket result equality possible.  Non-finite floats
are rejected at encode time.

**Rejection.**  Anything outside the format raises
:class:`~repro.net.errors.ProtocolError`: a declared length of zero or
beyond ``max_frame_bytes`` (both before any payload bytes are read, so
an attacker cannot make a reader buffer unbounded data), a version
other than 2 or a codec id other than 2, malformed binary or a
malformed envelope, or an unencodable Python type on the sending side.
Truncated input never hangs a :class:`FrameDecoder` — it simply yields
nothing until more bytes arrive, and `flush()` reports leftover
trailing bytes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any

from repro.net.codec import (
    CODEC_BINARY,
    decode_value_exact,
    encode_value_binary,
    new_buffer,
    read_str,
    read_varint,
    write_str,
    write_varint,
)
from repro.net.errors import ProtocolError

__all__ = [
    "DEFAULT_MAX_FRAME_BYTES",
    "Frame",
    "FrameDecoder",
    "FrameType",
    "PROTOCOL_VERSION",
    "decode_frame",
    "encode_frame",
    "parse_frame_info",
]

PROTOCOL_VERSION = 2
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024  # 16 MiB
_HEADER = struct.Struct("!I")


class FrameType(enum.Enum):
    REQUEST = "req"
    REPLY = "rep"
    ERROR = "err"
    DATAGRAM = "msg"
    BUSY = "busy"
    GOSSIP = "gos"


# Frame-type bytes: index into this tuple.  Append-only.
_FRAME_TYPES = (
    FrameType.REQUEST,
    FrameType.REPLY,
    FrameType.ERROR,
    FrameType.DATAGRAM,
    FrameType.BUSY,
    FrameType.GOSSIP,
)
_TYPE_CODES = {frame_type: code for code, frame_type in enumerate(_FRAME_TYPES)}


@dataclass(frozen=True)
class Frame:
    """One decoded wire frame.

    ``priority`` is the admission priority of a request (higher keeps a
    request admitted longer under overload; see
    :mod:`repro.net.admission`).
    """

    type: FrameType
    kind: str
    src: int
    dst: int
    request_id: int
    payload: Any = None
    priority: int = 0


# -- frames -------------------------------------------------------------


def encode_frame(frame: Frame, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> bytes:
    """Serialize one frame, header included."""
    buffer = new_buffer()
    buffer += b"\x00\x00\x00\x00"  # length, patched below
    buffer.append(PROTOCOL_VERSION)
    buffer.append(CODEC_BINARY)
    buffer.append(_TYPE_CODES[frame.type])
    try:
        write_str(buffer, frame.kind)
        write_varint(buffer, frame.src)
        write_varint(buffer, frame.dst)
        write_varint(buffer, frame.request_id)
        write_varint(buffer, frame.priority)
        encode_value_binary(buffer, frame.payload)
    except (TypeError, AttributeError, OverflowError) as error:
        raise ProtocolError(f"unencodable frame payload: {error}") from error
    length = len(buffer) - _HEADER.size
    if length > max_frame_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_frame_bytes}-byte cap")
    _HEADER.pack_into(buffer, 0, length)
    return bytes(buffer)


def parse_frame_info(data: bytes) -> tuple[Frame, int]:
    """Decode one frame body (no length header).

    Returns ``(frame, body size in bytes)``, the shape
    :func:`decode_frame` returns for a whole frame.
    """
    if not data:
        raise ProtocolError("empty frame body")
    version = data[0]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported wire version {version} (speaking {PROTOCOL_VERSION})")
    if len(data) < 2:
        raise ProtocolError("frame missing its codec id byte")
    if data[1] != CODEC_BINARY:
        raise ProtocolError(f"unknown codec id {data[1]} in v{PROTOCOL_VERSION} frame")
    view = memoryview(data)
    try:
        type_code = view[2]
        if type_code >= len(_FRAME_TYPES):
            raise ProtocolError(f"unknown frame type byte 0x{type_code:02x}")
        kind, position = read_str(view, 3)
        src, position = read_varint(view, position)
        dst, position = read_varint(view, position)
        request_id, position = read_varint(view, position)
        priority, position = read_varint(view, position)
    except (IndexError, ValueError) as error:
        raise ProtocolError(f"malformed binary frame: {error}") from error
    payload = decode_value_exact(view, position)
    frame = Frame(_FRAME_TYPES[type_code], kind, src, dst, request_id, payload, priority)
    return frame, len(data)


def decode_frame(
    data: bytes, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
) -> tuple[Frame, int]:
    """Decode one complete frame from the head of ``data``.

    Returns ``(frame, bytes consumed)``.  Raises
    :class:`~repro.net.errors.ProtocolError` if the bytes are invalid
    *or* incomplete — use :class:`FrameDecoder` for streaming input.
    """
    declared = _declared_length(data, max_frame_bytes)
    if declared is None or len(data) < _HEADER.size + declared:
        raise ProtocolError("truncated frame")
    body = data[_HEADER.size : _HEADER.size + declared]
    return parse_frame_info(body)[0], _HEADER.size + declared


def _declared_length(buffer, max_frame_bytes: int) -> int | None:
    """The body length declared by a (possibly partial) header.

    Returns None when fewer than 4 header bytes are available; raises
    on a length the format forbids — *before* any body bytes are read.
    """
    if len(buffer) < _HEADER.size:
        return None
    (declared,) = _HEADER.unpack_from(buffer)
    if declared == 0:
        raise ProtocolError("frame with zero-length body")
    if declared > max_frame_bytes:
        raise ProtocolError(
            f"declared frame length {declared} exceeds the {max_frame_bytes}-byte cap"
        )
    return declared


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    Feed arbitrarily-chunked bytes; complete frames come out.  Invalid input raises
    :class:`~repro.net.errors.ProtocolError` immediately (oversized
    declared lengths are rejected from the 4 header bytes alone);
    incomplete input never blocks or raises — the decoder just waits
    for more.  After an error the decoder is poisoned and the
    connection that fed it should be closed.
    """

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._poisoned = False

    def feed(self, data: bytes) -> list[Frame]:
        """Consume ``data``, returning every frame it completed."""
        if self._poisoned:
            raise ProtocolError("decoder poisoned by an earlier protocol error")
        self._buffer.extend(data)
        frames: list[Frame] = []
        try:
            while True:
                declared = _declared_length(self._buffer, self.max_frame_bytes)
                if declared is None or len(self._buffer) < _HEADER.size + declared:
                    break
                body = bytes(self._buffer[_HEADER.size : _HEADER.size + declared])
                del self._buffer[: _HEADER.size + declared]
                frames.append(parse_frame_info(body)[0])
        except ProtocolError:
            self._poisoned = True
            raise
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def flush(self) -> None:
        """Assert the stream ended on a frame boundary.

        Call at EOF: leftover bytes mean the peer died mid-frame, which
        is a protocol error worth surfacing rather than silence.
        """
        if self._buffer:
            raise ProtocolError(f"stream ended mid-frame with {len(self._buffer)} bytes pending")
