"""The codec core: one serialization for wire, WAL, and scans.

Every byte this package transmits or writes is produced by one binary
value encoding: one type byte per value, varint integers (zigzag for
sign), length-prefixed raw-UTF-8 strings, and a *flat posting-set*
form (:class:`PostingList`) that serializes an ``hindex.scan`` reply's
``[(frozenset, tuple), ...]`` matches without per-element type bytes.
Encoding appends into one reusable per-thread ``bytearray`` (no
intermediate ``bytes`` joins); decoding walks offsets over a
``memoryview`` so no slice of the input is copied before the final
``str`` construction.

The value domain is ``None``, ``bool``, ``int`` (arbitrary precision),
finite ``float``, ``str``, ``list``, ``tuple``, ``set``, ``frozenset``,
and ``dict`` (any hashable encodable keys); every value in it
round-trips to an equal value of the same type.  Non-finite floats and
any other type are rejected at encode time.

Consumers:

* :mod:`repro.net.wire` — frame envelopes (version byte 2, then the
  codec-id byte :data:`CODEC_BINARY`, then the envelope),
* :mod:`repro.store.wal` — WAL records and snapshots (version byte 2;
  the v1 JSON records of older data directories stay readable there),
* :mod:`repro.core.index` — scan replies mark their matches as a
  :class:`PostingList` to opt into the flat encoding.
"""

from __future__ import annotations

import math
import struct
import threading
from typing import Any

from repro.net.errors import ProtocolError

__all__ = [
    "CODEC_BINARY",
    "PostingList",
    "decode_value_binary",
    "decode_value_exact",
    "encode_value_binary",
    "new_buffer",
    "read_str",
    "read_uvarint",
    "read_varint",
    "write_dict_header",
    "write_str",
    "write_uvarint",
    "write_value_int",
    "write_value_str",
    "write_value_str_tuple",
    "write_varint",
]

# The codec-id byte every v2 wire frame carries after its version byte.
CODEC_BINARY = 2

_DOUBLE = struct.Struct("!d")

# Binary type bytes.  One byte per value; containers carry a varint
# count.  POSTINGS is the flat posting-set form (no per-element type
# bytes): varint rows, each row = varint keyword count, raw strings,
# varint id count, raw strings.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_LIST = 0x06
_T_TUPLE = 0x07
_T_SET = 0x08
_T_FROZENSET = 0x09
_T_DICT = 0x0A  # all-str keys
_T_DICT_ANY = 0x0B  # arbitrary encodable keys
_T_POSTINGS = 0x0C


class PostingList(list):
    """A list of ``(frozenset[str], tuple[str, ...])`` posting rows.

    Behaves exactly like the plain list it subclasses — in-process
    consumers (the simulator, the search walkers) never notice — but
    the binary codec recognizes the type in O(1) and serializes the
    rows flat: no per-element type bytes, no tagged-object wrappers,
    one pass over the strings.  ``hindex.scan`` replies are the
    producer; anything shaped ``[(frozenset_of_str, tuple_of_str)]``
    may opt in.
    """

    __slots__ = ()


# -- reusable encode buffers ----------------------------------------------

_scratch = threading.local()


def new_buffer() -> bytearray:
    """The calling thread's reusable encode buffer, emptied.

    Encoders append into this single buffer and take one final
    ``bytes()`` copy, instead of allocating and joining intermediate
    byte strings per value.  One buffer per thread: encode calls never
    nest (a codec never recursively encodes a whole frame mid-frame).
    """
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None:
        buffer = _scratch.buffer = bytearray()
    else:
        del buffer[:]
    return buffer


# -- varint / string primitives (shared with the WAL fast paths) ----------


def write_uvarint(buffer: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint (arbitrary precision)."""
    while value > 0x7F:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def write_varint(buffer: bytearray, value: int) -> None:
    """Append a signed integer, zigzag-mapped then LEB128."""
    write_uvarint(buffer, (value << 1) if value >= 0 else ((-value << 1) - 1))


def write_str(buffer: bytearray, value: str) -> None:
    """Append a length-prefixed raw-UTF-8 string (no type byte)."""
    raw = value.encode("utf-8")
    write_uvarint(buffer, len(raw))
    buffer += raw


def read_uvarint(data, position: int) -> tuple[int, int]:
    """Read an unsigned varint; returns ``(value, new position)``."""
    shift = 0
    result = 0
    while True:
        byte = data[position]
        position += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, position
        shift += 7


def read_varint(data, position: int) -> tuple[int, int]:
    """Read a zigzag varint; returns ``(value, new position)``."""
    raw, position = read_uvarint(data, position)
    return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), position


def write_dict_header(buffer: bytearray, count: int) -> None:
    """Append a str-keyed dict header; the caller writes ``count``
    ``write_str`` key / value pairs after it.  Byte-identical to
    :func:`encode_value_binary` on the equivalent dict — the WAL's hot
    write path skips the generic dispatch, not the format."""
    buffer.append(_T_DICT)
    write_uvarint(buffer, count)


def write_value_str(buffer: bytearray, value: str) -> None:
    """Append one string *value* (type byte included)."""
    buffer.append(_T_STR)
    write_str(buffer, value)


def write_value_int(buffer: bytearray, value: int) -> None:
    """Append one int *value* (type byte included)."""
    buffer.append(_T_INT)
    write_uvarint(buffer, (value << 1) if value >= 0 else ((-value << 1) - 1))


def write_value_str_tuple(buffer: bytearray, items) -> None:
    """Append a tuple-of-strings *value* (type bytes included)."""
    buffer.append(_T_TUPLE)
    write_uvarint(buffer, len(items))
    for item in items:
        buffer.append(_T_STR)
        write_str(buffer, item)


def read_str(data, position: int) -> tuple[str, int]:
    """Read a length-prefixed string; returns ``(value, new position)``.

    ``data`` may be a ``memoryview``: the string is decoded straight
    from the underlying buffer (``str(view, "utf-8")``), no
    intermediate ``bytes`` copy.
    """
    length, position = read_uvarint(data, position)
    end = position + length
    if end > len(data):
        raise ProtocolError("truncated string in binary payload")
    return str(data[position:end], "utf-8"), end


# -- binary value encoding -------------------------------------------------


def _sorted_items(value) -> list:
    try:
        return sorted(value)
    except TypeError:
        return sorted(value, key=repr)


def encode_value_binary(buffer: bytearray, value: Any) -> None:
    """Append one value in the binary encoding.

    Sets are serialized in sorted order, so identical values always
    produce identical bytes.
    """
    kind = type(value)
    if kind is str:
        buffer.append(_T_STR)
        write_str(buffer, value)
    elif kind is int:
        buffer.append(_T_INT)
        write_varint(buffer, value)
    elif kind is bool:
        buffer.append(_T_TRUE if value else _T_FALSE)
    elif value is None:
        buffer.append(_T_NONE)
    elif kind is dict:
        if all(type(key) is str for key in value):
            buffer.append(_T_DICT)
            write_uvarint(buffer, len(value))
            for key, item in value.items():
                write_str(buffer, key)
                encode_value_binary(buffer, item)
        else:
            buffer.append(_T_DICT_ANY)
            write_uvarint(buffer, len(value))
            for key, item in value.items():
                encode_value_binary(buffer, key)
                encode_value_binary(buffer, item)
    elif kind is PostingList:
        _encode_postings(buffer, value)
    elif kind is list or kind is tuple:
        buffer.append(_T_LIST if kind is list else _T_TUPLE)
        write_uvarint(buffer, len(value))
        for item in value:
            encode_value_binary(buffer, item)
    elif kind is set or kind is frozenset:
        buffer.append(_T_SET if kind is set else _T_FROZENSET)
        write_uvarint(buffer, len(value))
        for item in _sorted_items(value):
            encode_value_binary(buffer, item)
    elif kind is float:
        if not math.isfinite(value):
            raise ProtocolError(f"cannot encode non-finite float {value!r}")
        buffer.append(_T_FLOAT)
        buffer += _DOUBLE.pack(value)
    else:
        # Subclass fallbacks (rare: the exact-type checks above cover
        # every payload the protocol builds).
        if isinstance(value, bool):
            buffer.append(_T_TRUE if value else _T_FALSE)
        elif isinstance(value, int):
            buffer.append(_T_INT)
            write_varint(buffer, value)
        elif isinstance(value, (str, float)):
            encode_value_binary(buffer, str(value) if isinstance(value, str) else float(value))
        elif isinstance(value, PostingList):
            _encode_postings(buffer, value)
        elif isinstance(value, (list, tuple, set, frozenset, dict)):
            base = list if isinstance(value, list) else (
                tuple if isinstance(value, tuple) else (
                    set if isinstance(value, set) and not isinstance(value, frozenset)
                    else (frozenset if isinstance(value, frozenset) else dict)))
            encode_value_binary(buffer, base(value))
        else:
            raise ProtocolError(
                f"cannot encode {type(value).__name__} on the wire: {value!r}"
            )


def _encode_postings(buffer: bytearray, rows: list) -> None:
    """The flat posting-set form: one pass, strings only."""
    buffer.append(_T_POSTINGS)
    write_uvarint(buffer, len(rows))
    for keywords, object_ids in rows:
        ordered = _sorted_items(keywords)
        write_uvarint(buffer, len(ordered))
        for keyword in ordered:
            write_str(buffer, keyword)
        write_uvarint(buffer, len(object_ids))
        for object_id in object_ids:
            write_str(buffer, object_id)


def decode_value_binary(data, position: int) -> tuple[Any, int]:
    """Decode one value; returns ``(value, new position)``.

    ``data`` should be a ``memoryview`` (or ``bytes``); nothing is
    sliced except the final string constructions.
    """
    tag = data[position]
    position += 1
    if tag == _T_STR:
        return read_str(data, position)
    if tag == _T_INT:
        return read_varint(data, position)
    if tag == _T_NONE:
        return None, position
    if tag == _T_TRUE:
        return True, position
    if tag == _T_FALSE:
        return False, position
    if tag == _T_DICT:
        count, position = read_uvarint(data, position)
        result: dict = {}
        for _ in range(count):
            key, position = read_str(data, position)
            result[key], position = decode_value_binary(data, position)
        return result, position
    if tag == _T_DICT_ANY:
        count, position = read_uvarint(data, position)
        result = {}
        for _ in range(count):
            key, position = decode_value_binary(data, position)
            try:
                result[key], position = decode_value_binary(data, position)
            except TypeError as error:
                raise ProtocolError(f"malformed binary dict: {error}") from error
        return result, position
    if tag == _T_LIST or tag == _T_TUPLE:
        count, position = read_uvarint(data, position)
        items = []
        for _ in range(count):
            item, position = decode_value_binary(data, position)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), position
    if tag == _T_SET or tag == _T_FROZENSET:
        count, position = read_uvarint(data, position)
        items = []
        for _ in range(count):
            item, position = decode_value_binary(data, position)
            items.append(item)
        try:
            return (set(items) if tag == _T_SET else frozenset(items)), position
        except TypeError as error:
            raise ProtocolError(f"malformed binary set: {error}") from error
    if tag == _T_POSTINGS:
        rows_count, position = read_uvarint(data, position)
        rows = PostingList()
        for _ in range(rows_count):
            keyword_count, position = read_uvarint(data, position)
            keywords = []
            for _ in range(keyword_count):
                keyword, position = read_str(data, position)
                keywords.append(keyword)
            id_count, position = read_uvarint(data, position)
            object_ids = []
            for _ in range(id_count):
                object_id, position = read_str(data, position)
                object_ids.append(object_id)
            rows.append((frozenset(keywords), tuple(object_ids)))
        return rows, position
    if tag == _T_FLOAT:
        end = position + _DOUBLE.size
        if end > len(data):
            raise ProtocolError("truncated float in binary payload")
        return _DOUBLE.unpack_from(data, position)[0], end
    raise ProtocolError(f"unknown binary type byte 0x{tag:02x}")


def decode_value_exact(data, position: int = 0) -> Any:
    """Decode the one value that fills ``data`` from ``position`` on.

    The whole-payload entry point of wire frames and WAL records: any
    malformed input — truncated, an unknown type byte, bad UTF-8, or
    bytes left over after the value — raises
    :class:`~repro.net.errors.ProtocolError`.

    >>> buffer = bytearray()
    >>> encode_value_binary(buffer, {"kw": frozenset({"dht"})})
    >>> decode_value_exact(buffer)
    {'kw': frozenset({'dht'})}
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    try:
        value, position = decode_value_binary(view, position)
    except (IndexError, ValueError) as error:
        raise ProtocolError(f"malformed binary payload: {error}") from error
    if position != len(view):
        raise ProtocolError(f"trailing bytes after binary payload ({len(view) - position} left)")
    return value
