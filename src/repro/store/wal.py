"""WAL record format: CRC-framed, codec-encoded state mutations.

One record describes one mutation of a node's durable state — an index
table entry added or removed, a whole table dropped (churn handoff), a
replica reference registered or withdrawn, or a full entry emitted by a
snapshot.  On disk every record is one frame::

    +----------------+---------------+------------------------------+
    | length (4B BE) | crc32 (4B BE) | version byte + payload       |
    +----------------+---------------+------------------------------+

``length`` covers the body (version byte + payload); ``crc32`` is over
the same bytes, so a torn or bit-flipped tail is detected before any
payload parsing.  The version byte says how the payload is encoded:

* ``2`` — the record's field dict in the binary value encoding the
  wire format uses (:mod:`repro.net.codec`), keys in sorted order
  (varint ints, length-prefixed raw-UTF-8 strings).  Every record this
  module writes is v2, so identical state always produces identical
  bytes.
* ``1`` — the same field dict as tagged JSON, keys sorted: the format
  of data directories written before the binary codec existed.  It is
  read, never written.

Recovery reads each record by its own version byte, so a WAL whose head
holds v1 records and whose tail holds v2 records replays seamlessly;
there is no file-level format marker to migrate.

Replay is pure: :func:`decode_records` walks a byte string and stops at
the first frame that is incomplete or fails its CRC (the torn tail a
crash mid-append leaves behind), reporting how many clean bytes it
consumed so the caller can truncate; :func:`replay` folds records into
the ``(tables, refs)`` state the index shard and DOLR node hold in
memory.  Any prefix of a valid WAL decodes to a prefix of its records —
the property the recovery tests drive with hypothesis.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any

from repro.net.codec import (
    decode_value_exact,
    encode_value_binary,
    new_buffer,
    write_uvarint,
)
from repro.net.errors import ProtocolError

__all__ = [
    "WAL_VERSION",
    "WAL_VERSION_BINARY",
    "StoreRecord",
    "WalDecodeResult",
    "apply_record",
    "decode_records",
    "encode_record",
    "entry_records",
    "replay",
]

WAL_VERSION = 1  # JSON-payload records: read, never written
WAL_VERSION_BINARY = 2  # binary-payload records
# A single record is one index entry or reference — far below this; the
# cap exists so a corrupted length field cannot demand an absurd read.
MAX_RECORD_BYTES = 16 * 1024 * 1024
_FRAME = struct.Struct("!II")  # (body length, crc32 of body)

# op -> payload fields (beyond "op"); also the legality check on decode.
_OPS = {
    "put": ("ns", "lg", "kw", "id"),
    "remove": ("ns", "lg", "kw", "id"),
    "drop": ("ns", "lg"),
    "entry": ("ns", "lg", "kw", "ids"),
    "ref_put": ("id", "h"),
    "ref_del": ("id", "h"),
}

Tables = dict[tuple[str, int], dict[frozenset[str], set[str]]]
Refs = dict[str, set[int]]


@dataclass(frozen=True)
class StoreRecord:
    """One durable mutation.

    ``op`` is one of ``put`` / ``remove`` (index entry maintenance),
    ``drop`` (a whole table handed off during churn), ``entry`` (one
    full table entry, as snapshots emit), ``ref_put`` / ``ref_del``
    (replica references).  Unused fields keep their defaults.
    """

    op: str
    namespace: str = ""
    logical: int = 0
    keywords: tuple[str, ...] = ()
    object_id: str = ""
    object_ids: tuple[str, ...] = ()
    holder: int = 0


_HEADER_HOLE = b"\x00" * _FRAME.size
# Pre-encoded binary dict keys (varint length + raw UTF-8), in the
# sorted order every record payload uses.
_K_H, _K_ID = b"\x01h", b"\x02id"
_K_KW, _K_LG, _K_NS, _K_OP = b"\x02kw", b"\x02lg", b"\x02ns", b"\x02op"
# Binary tags mirrored from repro.net.codec for the inlined hot paths
# below (dict header with its count baked in, plus the three value
# tags these records use); the store tests pin byte-identity with
# encode_record, so drift between the copies cannot hide.
_B_DICT5, _B_DICT3 = b"\x0a\x05", b"\x0a\x03"
_B_STR, _B_INT, _B_TUPLE = 0x05, 0x03, 0x07


def _seal(buffer: bytearray) -> bytes:
    """Patch the CRC frame header over a body built after the hole."""
    body = memoryview(buffer)[_FRAME.size :]
    length, crc = len(body), zlib.crc32(body)
    body.release()  # the buffer is reused; no exports may outlive this call
    _FRAME.pack_into(buffer, 0, length, crc)
    return bytes(buffer)


def _frame_payload(payload: dict[str, Any]) -> bytes:
    """Frame one record body: version byte + binary-encoded payload.

    ``payload`` must be built in sorted-key order, so equal records
    encode to equal bytes.
    """
    buffer = new_buffer()
    buffer += _HEADER_HOLE
    buffer.append(WAL_VERSION_BINARY)
    encode_value_binary(buffer, payload)
    return _seal(buffer)


def encode_entry_op(
    op: str,
    namespace: str,
    logical: int,
    keywords: tuple[str, ...],
    object_id: str,
) -> bytes:
    """Frame a ``put``/``remove`` from bare fields (the hot write path —
    no :class:`StoreRecord` built, no generic dispatch; byte-identical
    to :func:`encode_record` on the equivalent record, a property the
    store tests pin)."""
    buffer = new_buffer()
    append = buffer.append
    buffer += _HEADER_HOLE
    append(WAL_VERSION_BINARY)
    buffer += _B_DICT5
    buffer += _K_ID
    append(_B_STR)
    raw = object_id.encode("utf-8")
    size = len(raw)
    append(size) if size < 0x80 else write_uvarint(buffer, size)
    buffer += raw
    buffer += _K_KW
    append(_B_TUPLE)
    size = len(keywords)
    append(size) if size < 0x80 else write_uvarint(buffer, size)
    for keyword in keywords:
        append(_B_STR)
        raw = keyword.encode("utf-8")
        size = len(raw)
        append(size) if size < 0x80 else write_uvarint(buffer, size)
        buffer += raw
    buffer += _K_LG
    append(_B_INT)
    zigzag = (logical << 1) if logical >= 0 else ((-logical << 1) - 1)
    append(zigzag) if zigzag < 0x80 else write_uvarint(buffer, zigzag)
    buffer += _K_NS
    append(_B_STR)
    raw = namespace.encode("utf-8")
    size = len(raw)
    append(size) if size < 0x80 else write_uvarint(buffer, size)
    buffer += raw
    buffer += _K_OP
    append(_B_STR)
    raw = op.encode("utf-8")
    size = len(raw)
    append(size) if size < 0x80 else write_uvarint(buffer, size)
    buffer += raw
    return _seal(buffer)


def encode_ref_op(op: str, object_id: str, holder: int) -> bytes:
    """Frame a ``ref_put``/``ref_del`` from bare fields (byte-identical
    to :func:`encode_record` on the equivalent record)."""
    buffer = new_buffer()
    append = buffer.append
    buffer += _HEADER_HOLE
    append(WAL_VERSION_BINARY)
    buffer += _B_DICT3
    buffer += _K_H
    append(_B_INT)
    zigzag = (holder << 1) if holder >= 0 else ((-holder << 1) - 1)
    append(zigzag) if zigzag < 0x80 else write_uvarint(buffer, zigzag)
    buffer += _K_ID
    append(_B_STR)
    raw = object_id.encode("utf-8")
    size = len(raw)
    append(size) if size < 0x80 else write_uvarint(buffer, size)
    buffer += raw
    buffer += _K_OP
    append(_B_STR)
    raw = op.encode("utf-8")
    size = len(raw)
    append(size) if size < 0x80 else write_uvarint(buffer, size)
    buffer += raw
    return _seal(buffer)


def _record_payload(record: StoreRecord) -> dict[str, Any]:
    """One record's field dict, keys in sorted order."""
    fields = _OPS.get(record.op)
    if fields is None:
        raise ValueError(f"unknown store record op {record.op!r}")
    payload: dict[str, Any] = {}
    if "h" in fields:
        payload["h"] = record.holder
    if record.op == "entry":
        payload["ids"] = tuple(record.object_ids)
    elif "id" in fields:
        payload["id"] = record.object_id
    if "kw" in fields:
        payload["kw"] = tuple(record.keywords)
    if "ns" in fields:
        payload["lg"] = record.logical
        payload["ns"] = record.namespace
    payload["op"] = record.op
    return payload


def encode_record(record: StoreRecord) -> bytes:
    """Serialize one record, frame header included."""
    return _frame_payload(_record_payload(record))


def _untag_json(value: Any) -> Any:
    """Rebuild a v1 record's tagged-JSON value: ``{"!": "tuple" |
    "set" | "frozenset" | "dict", "v": [...]}`` wrappers become the
    Python types they stand for."""
    if isinstance(value, list):
        return [_untag_json(item) for item in value]
    if not isinstance(value, dict):
        return value
    tag = value.get("!")
    if tag is None:
        return {key: _untag_json(item) for key, item in value.items()}
    items = value.get("v")
    if not isinstance(items, list):
        raise ValueError(f"tagged value {tag!r} without a list body")
    if tag == "tuple":
        return tuple(_untag_json(item) for item in items)
    if tag == "set":
        return {_untag_json(item) for item in items}
    if tag == "frozenset":
        return frozenset(_untag_json(item) for item in items)
    if tag == "dict":
        return {_untag_json(key): _untag_json(item) for key, item in items}
    raise ValueError(f"unknown tag {tag!r} in v1 record")


def _decode_body(body: bytes) -> StoreRecord:
    version = body[0]
    if version == WAL_VERSION_BINARY:
        payload = decode_value_exact(body, 1)
    elif version == WAL_VERSION:
        payload = _untag_json(json.loads(body[1:].decode("utf-8")))
    else:
        raise ValueError(
            f"unsupported WAL version {version} "
            f"(speaking {WAL_VERSION}/{WAL_VERSION_BINARY})"
        )
    if not isinstance(payload, dict):
        raise ValueError("WAL record payload must be an object")
    op = payload.get("op")
    fields = _OPS.get(op)
    if fields is None:
        raise ValueError(f"unknown store record op {op!r}")
    return StoreRecord(
        op=op,
        namespace=str(payload.get("ns", "")),
        logical=int(payload.get("lg", 0)),
        keywords=tuple(payload.get("kw", ())),
        object_id=str(payload.get("id", "")) if op != "entry" else "",
        object_ids=tuple(payload.get("ids", ())),
        holder=int(payload.get("h", 0)),
    )


@dataclass(frozen=True)
class WalDecodeResult:
    """Outcome of decoding a WAL byte string.

    ``consumed`` is the length of the clean prefix (truncate the file to
    it to drop a torn tail); ``truncated`` is True when trailing bytes
    were dropped, with ``reason`` saying why.
    """

    records: tuple[StoreRecord, ...]
    consumed: int
    truncated: bool = False
    reason: str | None = None


def decode_records(data: bytes) -> WalDecodeResult:
    """Decode every clean record from the head of ``data``.

    Never raises on bad input: decoding stops at the first incomplete,
    CRC-failing, or malformed frame, and everything from there on is
    reported as the torn tail.  Each record is read by its own version
    byte, so files mixing v1 and v2 records replay.
    """
    records: list[StoreRecord] = []
    offset = 0
    total = len(data)
    while offset < total:
        if total - offset < _FRAME.size:
            return WalDecodeResult(tuple(records), offset, True, "partial frame header")
        length, crc = _FRAME.unpack_from(data, offset)
        if length == 0 or length > MAX_RECORD_BYTES:
            return WalDecodeResult(tuple(records), offset, True, f"invalid frame length {length}")
        start = offset + _FRAME.size
        if total - start < length:
            return WalDecodeResult(tuple(records), offset, True, "partial frame body")
        body = data[start : start + length]
        if zlib.crc32(body) != crc:
            return WalDecodeResult(tuple(records), offset, True, "crc mismatch")
        try:
            records.append(_decode_body(body))
        except (ValueError, TypeError, UnicodeDecodeError, json.JSONDecodeError,
                IndexError, ProtocolError) as error:
            return WalDecodeResult(tuple(records), offset, True, f"malformed record: {error}")
        offset = start + length
    return WalDecodeResult(tuple(records), offset)


# -- replay ---------------------------------------------------------------


def apply_record(tables: Tables, refs: Refs, record: StoreRecord) -> None:
    """Fold one record into in-memory state (mirrors the live mutations
    of :class:`~repro.core.index.IndexShard` and
    :class:`~repro.dht.dolr.DolrNode`)."""
    op = record.op
    if op in ("put", "entry"):
        key = (record.namespace, record.logical)
        objects = tables.setdefault(key, {}).setdefault(frozenset(record.keywords), set())
        if op == "put":
            objects.add(record.object_id)
        else:
            objects.update(record.object_ids)
    elif op == "remove":
        key = (record.namespace, record.logical)
        table = tables.get(key)
        keywords = frozenset(record.keywords)
        if table is None or keywords not in table:
            return
        objects = table[keywords]
        objects.discard(record.object_id)
        if not objects:
            del table[keywords]
            if not table:
                del tables[key]
    elif op == "drop":
        tables.pop((record.namespace, record.logical), None)
    elif op == "ref_put":
        refs.setdefault(record.object_id, set()).add(record.holder)
    elif op == "ref_del":
        holders = refs.get(record.object_id)
        if holders is not None:
            holders.discard(record.holder)
            if not holders:
                del refs[record.object_id]
    else:  # unreachable: decode rejects unknown ops
        raise ValueError(f"unknown store record op {op!r}")


def replay(records: tuple[StoreRecord, ...] | list[StoreRecord]) -> tuple[Tables, Refs]:
    """State after applying ``records`` in order to empty tables/refs."""
    tables: Tables = {}
    refs: Refs = {}
    for record in records:
        apply_record(tables, refs, record)
    return tables, refs


def entry_records(tables: Tables, refs: Refs) -> list[StoreRecord]:
    """The canonical snapshot of a state: one ``entry`` record per table
    entry, one ``ref_put`` per reference, deterministically ordered —
    the same stream churn handoff sends per table."""
    records: list[StoreRecord] = []
    for namespace, logical in sorted(tables):
        table = tables[(namespace, logical)]
        for keywords in sorted(table, key=lambda k: (len(k), tuple(sorted(k)))):
            records.append(
                StoreRecord(
                    op="entry",
                    namespace=namespace,
                    logical=logical,
                    keywords=tuple(sorted(keywords)),
                    object_ids=tuple(sorted(table[keywords])),
                )
            )
    for object_id in sorted(refs):
        for holder in sorted(refs[object_id]):
            records.append(StoreRecord(op="ref_put", object_id=object_id, holder=holder))
    return records
