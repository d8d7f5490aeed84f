"""Unit and property tests for the durable store (:mod:`repro.store`).

The core guarantee under test: **any prefix of a WAL replays to a
consistent state** — decoding never raises, yields a prefix of the
written records, and a torn tail (a crash mid-append) is detected and
dropped, never misread.  Hypothesis drives the prefix/corruption
properties; concrete tests cover the FileStore lifecycle (recovery,
compaction, manifest atomicity) and the shard/store integration.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import IndexShard
from repro.store import (
    FileStore,
    MemoryStore,
    StoreRecord,
    decode_records,
    encode_record,
    replay,
)
from repro.store.wal import encode_entry_op, encode_ref_op, entry_records

# -- record strategies ----------------------------------------------------

_KEYWORDS = st.sets(
    st.sampled_from(["jazz", "mp3", "piano", "flac", "modal", "sax"]), min_size=1, max_size=3
).map(lambda s: tuple(sorted(s)))
_OBJECTS = st.sampled_from([f"obj{i}" for i in range(8)])
_LOGICAL = st.integers(min_value=0, max_value=7)
_HOLDERS = st.integers(min_value=0, max_value=99)

_RECORDS = st.one_of(
    st.builds(
        StoreRecord,
        op=st.sampled_from(["put", "remove"]),
        namespace=st.just("main"),
        logical=_LOGICAL,
        keywords=_KEYWORDS,
        object_id=_OBJECTS,
    ),
    st.builds(StoreRecord, op=st.just("drop"), namespace=st.just("main"), logical=_LOGICAL),
    st.builds(
        StoreRecord,
        op=st.sampled_from(["ref_put", "ref_del"]),
        object_id=_OBJECTS,
        holder=_HOLDERS,
    ),
)

# Strings and ints wide enough to need multi-byte varint lengths/values.
_WIDE_TEXT = st.text(max_size=200)
_WIDE_INT = st.integers(min_value=-(2**70), max_value=2**70)


class TestWalProperties:
    @given(records=st.lists(_RECORDS, max_size=30), cut=st.integers(min_value=0))
    def test_any_prefix_replays_to_a_consistent_state(self, records, cut):
        blob = b"".join(encode_record(record) for record in records)
        cut = cut % (len(blob) + 1)
        decoded = decode_records(blob[:cut])
        count = len(decoded.records)
        # A prefix of the bytes decodes to a prefix of the records —
        # never a phantom, reordered, or misparsed record.
        assert decoded.records == tuple(records[:count])
        assert decoded.consumed <= cut
        # The clean prefix re-decodes identically with no torn tail, so
        # recovery-then-truncate converges.
        again = decode_records(blob[: decoded.consumed])
        assert again.records == decoded.records
        assert not again.truncated
        # A cut strictly inside a frame is reported as torn.
        assert decoded.truncated == (decoded.consumed != cut)
        # Replaying the decoded records equals replaying the true prefix.
        assert replay(decoded.records) == replay(records[:count])

    @given(records=st.lists(_RECORDS, min_size=1, max_size=20), flip=st.integers(min_value=0))
    def test_corruption_never_raises_and_never_fabricates(self, records, flip):
        blob = bytearray(b"".join(encode_record(record) for record in records))
        position = flip % len(blob)
        blob[position] ^= 0xFF
        decoded = decode_records(bytes(blob))
        # Whatever survives is a prefix of what was written.
        assert decoded.records == tuple(records[: len(decoded.records)])

    @settings(max_examples=300)
    @given(
        entry=st.tuples(
            st.sampled_from(["put", "remove"]),
            _WIDE_TEXT,
            _WIDE_INT,
            st.lists(st.text(max_size=8), max_size=140).map(tuple),
            _WIDE_TEXT,
        ),
        ref=st.tuples(st.sampled_from(["ref_put", "ref_del"]), _WIDE_TEXT, _WIDE_INT),
    )
    def test_fast_encoder_matches_reference(self, entry, ref):
        # FileStore writes every put/remove/ref through the inlined
        # encoders; encode_record is the executable definition of the
        # format.  Same bytes for any field content, including strings
        # and tuples past the one-byte length and multi-byte varints.
        op, namespace, logical, keywords, object_id = entry
        assert encode_entry_op(*entry) == encode_record(
            StoreRecord(op=op, namespace=namespace, logical=logical,
                        keywords=keywords, object_id=object_id)
        )
        op, object_id, holder = ref
        assert encode_ref_op(*ref) == encode_record(
            StoreRecord(op=op, object_id=object_id, holder=holder)
        )

    @given(records=st.lists(_RECORDS, max_size=30))
    def test_roundtrip_is_lossless(self, records):
        blob = b"".join(encode_record(record) for record in records)
        decoded = decode_records(blob)
        assert decoded.records == tuple(records)
        assert not decoded.truncated
        assert decoded.consumed == len(blob)

    @settings(max_examples=25)
    @given(records=st.lists(_RECORDS, min_size=1, max_size=15), cut=st.integers(min_value=0))
    def test_filestore_recovers_any_truncation(self, records, cut):
        """Truncate the WAL file at an arbitrary byte (the on-disk image
        a crash leaves) and recover: the state equals replaying the
        decodable prefix, and the torn tail is gone afterwards."""
        with tempfile.TemporaryDirectory() as directory:
            store = FileStore(directory)
            store.recover()
            for record in records:
                store._append(record)
            store.abort()
            wal = Path(directory) / "wal.log"
            size = wal.stat().st_size
            cut = cut % (size + 1)
            with open(wal, "r+b") as handle:
                handle.truncate(cut)
            survivor = FileStore(directory)
            state = survivor.recover()
            expected = decode_records(wal.read_bytes())
            tables, refs = replay(expected.records)
            assert state.tables == tables
            assert state.refs == refs
            survivor.close()
            clean = FileStore(directory).recover()
            assert not clean.truncated
            assert (clean.tables, clean.refs) == (tables, refs)


class TestFileStore:
    def test_recover_empty_directory(self, tmp_path):
        state = FileStore(tmp_path / "node").recover()
        assert state.tables == {} and state.refs == {}
        assert state.records == 0 and not state.truncated

    def test_mutations_survive_abort(self, tmp_path):
        store = FileStore(tmp_path)
        store.record_put("main", 5, ["a", "b"], "obj1")
        store.record_put("main", 5, ["a", "b"], "obj2")
        store.record_remove("main", 5, ["a", "b"], "obj1")
        store.record_ref_put("obj2", 7)
        store.abort()  # crash analog: no close-time fsync
        state = FileStore(tmp_path).recover()
        assert state.tables == {("main", 5): {frozenset({"a", "b"}): {"obj2"}}}
        assert state.refs == {"obj2": {7}}
        assert state.wal_records == 4

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        store = FileStore(tmp_path)
        store.record_put("main", 1, ["x"], "obj")
        store.close()
        frame = encode_record(StoreRecord(op="put", namespace="main", logical=2,
                                          keywords=("y",), object_id="torn"))
        with open(store.wal_path, "ab") as handle:
            handle.write(frame[:-3])  # the partial append a crash leaves
        recovered = FileStore(tmp_path)
        state = recovered.recover()
        assert state.truncated
        assert list(state.tables) == [("main", 1)]
        assert any("torn WAL tail" in note for note in state.notes)
        recovered.close()
        assert not FileStore(tmp_path).recover().truncated

    def test_compaction_folds_wal_into_snapshot(self, tmp_path):
        store = FileStore(tmp_path)
        tables = {("main", 3): {frozenset({"k"}): {"obj1", "obj2"}}}
        refs = {"obj1": {4}}
        store.bind(tables=lambda: tables, refs=lambda: refs)
        store.record_put("main", 3, ["k"], "obj1")
        store.record_put("main", 3, ["k"], "obj2")
        store.record_ref_put("obj1", 4)
        written = store.compact()
        assert written == 2  # one entry + one ref
        assert store.wal_path.stat().st_size == 0
        assert store.snapshot_path(1).exists()
        store.record_put("main", 9, ["z"], "obj3")
        store.close()
        state = FileStore(tmp_path).recover()
        assert state.snapshot_records == 2 and state.wal_records == 1
        assert state.tables[("main", 3)] == {frozenset({"k"}): {"obj1", "obj2"}}
        assert state.tables[("main", 9)] == {frozenset({"z"}): {"obj3"}}
        assert state.refs == {"obj1": {4}}

    def test_second_compaction_replaces_snapshot(self, tmp_path):
        store = FileStore(tmp_path)
        tables = {("main", 1): {frozenset({"a"}): {"x"}}}
        store.bind(tables=lambda: tables, refs=dict)
        store.compact()
        tables[("main", 1)][frozenset({"a"})].add("y")
        store.compact()
        snapshots = sorted(path.name for path in Path(tmp_path).glob("snapshot-*.snap"))
        assert snapshots == ["snapshot-00000002.snap"]
        state = FileStore(tmp_path).recover()
        assert state.tables == {("main", 1): {frozenset({"a"}): {"x", "y"}}}

    def test_auto_compaction_after_threshold(self, tmp_path):
        store = FileStore(tmp_path, compact_every=5)
        tables = {}
        store.bind(tables=lambda: tables, refs=dict)
        shard_key = ("main", 0)
        for i in range(6):
            tables.setdefault(shard_key, {}).setdefault(frozenset({"k"}), set()).add(f"o{i}")
            store.record_put("main", 0, ["k"], f"o{i}")
            store.maybe_compact()
        assert store.snapshot_path(1).exists()
        # Post-snapshot WAL only holds appends since the threshold hit.
        assert len(decode_records(store.wal_path.read_bytes()).records) == 1

    def test_compact_without_suppliers_is_a_noop(self, tmp_path):
        store = FileStore(tmp_path)
        store.record_put("main", 0, ["k"], "o")
        assert store.compact() == 0
        assert not store.snapshot_path(1).exists()

    def test_append_after_close_raises(self, tmp_path):
        store = FileStore(tmp_path)
        store.close()
        with pytest.raises(RuntimeError, match="closed"):
            store.record_put("main", 0, ["k"], "o")

    def test_metrics_reported(self, tmp_path):
        from repro.sim.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        store = FileStore(tmp_path, metrics=metrics)
        store.record_put("main", 0, ["k"], "o")
        store.bind(tables=lambda: {("main", 0): {frozenset({"k"}): {"o"}}}, refs=dict)
        store.compact()
        store.close()
        assert metrics.counter("store.wal_appends") == 1
        assert metrics.counter("store.wal_bytes") > 0
        assert metrics.counter("store.snapshots") == 1
        assert metrics.counter("store.recoveries") == 1
        assert metrics.summary("store.recovery_seconds").count == 1
        assert metrics.summary("store.snapshot_bytes").count == 1


# WAL records as written by builds that predate the binary codec (v1,
# tagged JSON) and by the current writer (v2), byte for byte.
V1_RECORDS = [
    # put o1 into ("hindex", 5) under {apple, pear}
    b'\x00\x00\x00T\xb6z\x83\xa2\x01{"id":"o1","kw":{"!":"tuple","v":["apple","pear"]},'
    b'"lg":5,"ns":"hindex","op":"put"}',
    # ref_put o1 -> holder 3
    b'\x00\x00\x00!]\xe1\xb1\x14\x01{"h":3,"id":"o1","op":"ref_put"}',
    # entry ("hindex", 9) {fig} -> o2, o3
    b'\x00\x00\x00g\xa7O\x9a?\x01{"ids":{"!":"tuple","v":["o2","o3"]},'
    b'"kw":{"!":"tuple","v":["fig"]},"lg":9,"ns":"hindex","op":"entry"}',
]
V2_RECORDS = [
    (
        StoreRecord(op="remove", namespace="hindex", logical=5,
                    keywords=("apple", "pear"), object_id="o1"),
        b"\x00\x00\x007c\xc7\xf7\x02\x02\n\x05\x02id\x05\x02o1\x02kw\x07\x02\x05\x05apple"
        b"\x05\x04pear\x02lg\x03\n\x02ns\x05\x06hindex\x02op\x05\x06remove",
    ),
    (
        StoreRecord(op="put", namespace="hindex", logical=9, keywords=("fig",), object_id="o4"),
        b"\x00\x00\x00,\xdf\xcb\x86\xff\x02\n\x05\x02id\x05\x02o4\x02kw\x07\x01\x05\x03fig"
        b"\x02lg\x03\x12\x02ns\x05\x06hindex\x02op\x05\x03put",
    ),
    (
        StoreRecord(op="ref_put", object_id="o4", holder=7),
        b"\x00\x00\x00\x1a\x96\x1a\x8c<\x02\n\x03\x01h\x03\x0e\x02id\x05\x02o4\x02op\x05\x07ref_put",
    ),
]


def _record_versions(data: bytes) -> list[int]:
    """The version byte of every record: the first body byte, after the
    8-byte (length, crc) frame header."""
    versions, position = [], 0
    while position < len(data):
        length = int.from_bytes(data[position : position + 4], "big")
        versions.append(data[position + 8])
        position += 8 + length
    return versions


class TestV1WalReplay:
    def test_v2_writer_bytes_unchanged(self):
        for record, pinned in V2_RECORDS:
            assert encode_record(record) == pinned

    def test_mixed_v1_then_v2_wal_recovers_exactly(self, tmp_path):
        wal = b"".join(V1_RECORDS) + b"".join(pinned for _, pinned in V2_RECORDS)
        (tmp_path / "wal.log").write_bytes(wal)
        store = FileStore(tmp_path)
        state = store.recover()
        assert state.wal_records == 6
        assert not state.truncated
        assert state.tables == {("hindex", 9): {frozenset({"fig"}): {"o2", "o3", "o4"}}}
        assert state.refs == {"o1": {3}, "o4": {7}}
        # New appends land after the old records, as v2.
        store.record_put("hindex", 9, ["fig"], "o5")
        store.record_ref_del("o1", 3)
        store.close()
        data = (tmp_path / "wal.log").read_bytes()
        assert data.startswith(wal)
        assert _record_versions(data) == [1, 1, 1, 2, 2, 2, 2, 2]
        state = FileStore(tmp_path).recover()
        assert state.tables == {("hindex", 9): {frozenset({"fig"}): {"o2", "o3", "o4", "o5"}}}
        assert state.refs == {"o4": {7}}


class TestEntryRecords:
    def test_deterministic_and_replayable(self):
        tables = {
            ("main", 2): {frozenset({"b", "a"}): {"y", "x"}, frozenset({"c"}): {"z"}},
            ("alt", 1): {frozenset({"q"}): {"w"}},
        }
        refs = {"x": {3, 1}, "w": {2}}
        records = entry_records(tables, refs)
        assert records == entry_records(tables, refs)
        assert replay(records) == (tables, refs)


class TestShardIntegration:
    def test_default_store_is_memory_and_counts(self):
        shard = IndexShard()
        assert isinstance(shard.store, MemoryStore)
        shard.put(("main", 0), frozenset({"k"}), "obj")
        shard.remove(("main", 0), frozenset({"k"}), "obj")
        assert shard.store.appends == 2

    def test_shard_state_survives_restart(self, tmp_path):
        shard = IndexShard(store=FileStore(tmp_path))
        shard.put(("main", 3), frozenset({"jazz", "mp3"}), "take-five")
        shard.put(("main", 3), frozenset({"jazz"}), "kind-of-blue")
        shard.put(("main", 5), frozenset({"piano"}), "moonlight")
        shard.remove(("main", 3), frozenset({"jazz"}), "kind-of-blue")
        shard.store.abort()
        reborn = IndexShard(store=FileStore(tmp_path))
        assert reborn.tables == {
            ("main", 3): {frozenset({"jazz", "mp3"}): {"take-five"}},
            ("main", 5): {frozenset({"piano"}): {"moonlight"}},
        }
        assert reborn.pin(("main", 3), frozenset({"jazz", "mp3"})) == ("take-five",)

    def test_drop_table_is_durable(self, tmp_path):
        shard = IndexShard(store=FileStore(tmp_path))
        shard.put(("main", 3), frozenset({"jazz"}), "obj")
        shard.drop_table(("main", 3))
        shard.store.abort()
        reborn = IndexShard(store=FileStore(tmp_path))
        assert reborn.tables == {}

    def test_snapshot_records_stream_matches_entries(self, tmp_path):
        shard = IndexShard()
        shard.put(("main", 1), frozenset({"b", "a"}), "y")
        shard.put(("main", 1), frozenset({"b", "a"}), "x")
        shard.put(("main", 1), frozenset({"c"}), "z")
        assert shard.snapshot_records(("main", 1)) == [
            (["c"], ["z"]),
            (["a", "b"], ["x", "y"]),
        ]
