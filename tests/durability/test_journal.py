"""The journal file format: frames, CRCs, scanning, torn-tail rules.

These tests drive :mod:`repro.durability.journal` directly — no engine —
so every byte-level claim of the format docstring is pinned down
independently of the recovery machinery built on top of it.
"""

from __future__ import annotations

import json
import struct
from zlib import crc32

import pytest

from repro import Engine
from repro.durability.journal import (
    FILE_MAGIC,
    FRAME_MAGIC,
    FSYNC_ALWAYS,
    FSYNC_BATCH,
    FSYNC_NEVER,
    HEADER_SIZE,
    Journal,
    decode_request,
    encode_request,
    scan_journal,
)
from repro.errors import JournalCorruptionError
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    SetValueRequest,
)


def journal_at(tmp_path, **kwargs):
    return Journal.create(str(tmp_path / "j.wal"), **kwargs)


def commit_one(journal, store, requests):
    """build_entry + apply + commit, the way apply_update_list does."""
    entry = journal.build_entry(store, requests, ApplySemantics.ORDERED)
    for request in requests:
        request.apply(store)
    journal.commit(entry, store)
    return entry


def make_store_with_fragment(xml="<inventory><item id='a'/></inventory>"):
    engine = Engine()
    engine.load_document("doc", xml)
    return engine


class TestRequestCodec:
    def test_round_trip_every_request_kind(self):
        requests = [
            InsertRequest(nodes=(4, 5), position="into" and "last", target=2),
            DeleteRequest(node=7),
            RenameRequest(node=3, name="gadget"),
            SetValueRequest(node=9, text="hello"),
        ]
        for request in requests:
            op, refs = encode_request(request)
            assert decode_request(op) == request
            assert all(isinstance(ref, int) for ref in refs)

    def test_insert_refs_include_payload_and_target(self):
        op, refs = encode_request(
            InsertRequest(nodes=(4, 5), position="first", target=2)
        )
        assert set(refs) == {4, 5, 2}

    def test_decode_rejects_unknown_and_malformed_ops(self):
        with pytest.raises(JournalCorruptionError):
            decode_request({"op": "explode", "node": 1})
        with pytest.raises(JournalCorruptionError):
            decode_request({"op": "delete"})  # missing node


class TestFileFormat:
    def test_create_writes_magic_header(self, tmp_path):
        journal = journal_at(tmp_path)
        journal.close()
        data = (tmp_path / "j.wal").read_bytes()
        assert data == FILE_MAGIC

    def test_commit_appends_one_checksummed_frame_per_snap(self, tmp_path):
        engine = make_store_with_fragment()
        store = engine.store
        journal = journal_at(tmp_path, base_next_id=store._next_id)
        item = engine.execute('($doc//item)[1]').items[0].nid
        commit_one(journal, store, [RenameRequest(node=item, name="widget")])
        journal.close()

        data = (tmp_path / "j.wal").read_bytes()
        offset = len(FILE_MAGIC)
        magic, length, payload_crc, header_crc = struct.unpack_from(
            "<IIII", data, offset
        )
        assert magic == FRAME_MAGIC
        assert header_crc == crc32(data[offset : offset + 12])
        payload = data[offset + HEADER_SIZE : offset + HEADER_SIZE + length]
        assert crc32(payload) == payload_crc
        record = json.loads(payload)
        assert record["seq"] == 1
        assert record["sem"] == "ordered"
        assert record["ops"] == [
            {"op": "rename", "node": item, "name": "widget"}
        ]
        # The rename target lives in the checkpointed world (below the
        # watermark) — no subtree rows needed.
        assert record["nodes"] == []
        assert offset + HEADER_SIZE + length == len(data)

    def test_empty_delta_leaves_no_record(self, tmp_path):
        engine = make_store_with_fragment()
        journal = journal_at(tmp_path, base_next_id=engine.store._next_id)
        assert (
            journal.build_entry(engine.store, [], ApplySemantics.ORDERED)
            is None
        )
        journal.close()
        assert scan_journal(str(tmp_path / "j.wal")).records == []

    def test_constructed_payload_subtrees_are_captured_once(self, tmp_path):
        engine = make_store_with_fragment()
        store = engine.store
        journal = journal_at(tmp_path, base_next_id=store._next_id)
        root = engine.execute("$doc/inventory").items[0].nid
        payload = engine.parse_fragment("<extra a='1'><sub/></extra>")
        new_root = payload.nid
        commit_one(
            journal,
            store,
            [
                InsertRequest(nodes=(new_root,), position="last", target=root),
                RenameRequest(node=new_root, name="renamed"),
            ],
        )
        journal.close()
        [record] = scan_journal(str(tmp_path / "j.wal")).records
        ids = [row[0] for row in record["nodes"]]
        # element + attribute + child element, serialized exactly once
        # even though two ops reference the same constructed root.
        assert len(ids) == len(set(ids)) == 3
        assert new_root in ids


class TestScanRules:
    def _write_frames(self, tmp_path, count=3):
        engine = make_store_with_fragment(
            "<inventory><item id='a'/><item id='b'/><item id='c'/>"
            "<item id='d'/></inventory>"
        )
        store = engine.store
        journal = journal_at(tmp_path, base_next_id=store._next_id)
        items = [
            item.nid
            for item in engine.execute("$doc//item").items
        ]
        for index in range(count):
            commit_one(
                journal,
                store,
                [RenameRequest(node=items[index], name=f"r{index}")],
            )
        journal.close()
        return tmp_path / "j.wal"

    def test_scan_reads_all_frames(self, tmp_path):
        path = self._write_frames(tmp_path)
        scan = scan_journal(str(path))
        assert [record["seq"] for record in scan.records] == [1, 2, 3]
        assert scan.torn_bytes == 0
        assert scan.good_offset == path.stat().st_size

    def test_missing_file_magic_is_corruption(self, tmp_path):
        path = tmp_path / "j.wal"
        path.write_bytes(b"not a journal at all")
        with pytest.raises(JournalCorruptionError, match="magic"):
            scan_journal(str(path))

    def test_partial_header_at_eof_is_torn(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data + struct.pack("<I", FRAME_MAGIC))
        scan = scan_journal(str(path))
        assert len(scan.records) == 3
        assert scan.torn_bytes == 4
        assert scan.good_offset == len(data)

    def test_partial_payload_at_eof_is_torn(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = path.read_bytes()
        payload = b'{"seq":4}'
        header = struct.pack(
            "<III", FRAME_MAGIC, len(payload) + 40, crc32(payload)
        )
        frame_prefix = (
            header + struct.pack("<I", crc32(header)) + payload
        )  # short of the declared length
        path.write_bytes(data + frame_prefix)
        scan = scan_journal(str(path))
        assert len(scan.records) == 3
        assert scan.good_offset == len(data)

    def test_bad_payload_crc_at_eof_is_torn(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit inside the final frame's payload
        path.write_bytes(bytes(data))
        scan = scan_journal(str(path))
        assert len(scan.records) == 2  # final frame dropped as torn

    def test_bad_payload_crc_mid_file_is_corruption(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = bytearray(path.read_bytes())
        # Damage the first frame's payload: find its extent from the header.
        offset = len(FILE_MAGIC)
        _, length, _, _ = struct.unpack_from("<IIII", data, offset)
        data[offset + HEADER_SIZE + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptionError, match="CRC"):
            scan_journal(str(path))

    def test_bad_header_crc_is_corruption(self, tmp_path):
        path = self._write_frames(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(FILE_MAGIC) + 4] ^= 0xFF  # length field of frame 1
        path.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptionError, match="header"):
            scan_journal(str(path))


class TestFsyncPolicy:
    def _one_rename(self, engine):
        item = engine.execute("($doc//item)[1]").items[0].nid
        return [RenameRequest(node=item, name="zzz")]

    def test_always_fsyncs_every_commit(self, tmp_path):
        engine = make_store_with_fragment()
        journal = journal_at(
            tmp_path, fsync=FSYNC_ALWAYS, base_next_id=engine.store._next_id
        )
        commit_one(journal, engine.store, self._one_rename(engine))
        assert journal.fsyncs == 1

    def test_batch_fsyncs_every_n_commits(self, tmp_path):
        engine = make_store_with_fragment(
            "<inventory>" + "<item/>" * 6 + "</inventory>"
        )
        journal = journal_at(
            tmp_path,
            fsync=FSYNC_BATCH,
            fsync_batch=3,
            base_next_id=engine.store._next_id,
        )
        items = [
            item.nid
            for item in engine.execute("$doc//item").items
        ]
        for index, item in enumerate(items):
            commit_one(
                journal,
                engine.store,
                [RenameRequest(node=item, name=f"n{index}")],
            )
        assert journal.fsyncs == 2  # commits 3 and 6
        journal.close()  # close syncs the partial batch
        assert journal.fsyncs == 3

    def test_never_leaves_fsync_to_close(self, tmp_path):
        engine = make_store_with_fragment()
        journal = journal_at(
            tmp_path, fsync=FSYNC_NEVER, base_next_id=engine.store._next_id
        )
        commit_one(journal, engine.store, self._one_rename(engine))
        assert journal.fsyncs == 0

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync"):
            journal_at(tmp_path, fsync="sometimes")


class TestRotation:
    def test_rotate_switches_files_and_keeps_sequence(self, tmp_path):
        engine = make_store_with_fragment(
            "<inventory><item id='a'/><item id='b'/></inventory>"
        )
        store = engine.store
        journal = journal_at(
            tmp_path, base_next_id=store._next_id, compact_max_records=1
        )
        a, b = (
            item.nid
            for item in engine.execute("$doc//item").items
        )
        commit_one(journal, store, [RenameRequest(node=a, name="first")])
        assert journal.needs_compaction
        journal.rotate(str(tmp_path / "j2.wal"), base_next_id=store._next_id)
        assert not journal.needs_compaction
        commit_one(journal, store, [RenameRequest(node=b, name="second")])
        journal.close()
        [second] = scan_journal(str(tmp_path / "j2.wal")).records
        assert second["seq"] == 2  # numbering continues across files


class TestMaterializeRows:
    def test_skips_rows_already_present(self, tmp_path):
        engine = make_store_with_fragment()
        store = engine.store
        journal = journal_at(tmp_path, base_next_id=0)  # capture everything
        root = engine.execute("$doc/inventory").items[0].nid
        payload = engine.parse_fragment("<n/>")
        entry = journal.build_entry(
            store,
            [
                InsertRequest(
                    nodes=(payload.nid,),
                    position="last",
                    target=root,
                )
            ],
            ApplySemantics.ORDERED,
        )
        journal.close()
        # Every referenced row already exists in this very store.
        assert store.install_rows(entry.nodes) == 0


class TestBatchModeFlush:
    """Batch mode may hold acknowledged-but-unflushed frames; every exit
    path from a journal file (close, rotate) must flush them first."""

    def batch_journal(self, tmp_path):
        # A batch far larger than the commit count: no mid-run fsync.
        return journal_at(tmp_path, fsync=FSYNC_BATCH, fsync_batch=1000)

    def test_close_flushes_pending_batch_commits(self, tmp_path):
        engine = make_store_with_fragment()
        journal = self.batch_journal(tmp_path)
        node = engine.execute("$doc/inventory/*").items[0].nid
        for _ in range(3):
            commit_one(
                journal,
                engine.store,
                [RenameRequest(node=node, name="renamed")],
            )
        assert journal._commits_since_fsync == 3
        before = journal.fsyncs
        journal.close()
        assert journal.fsyncs == before + 1
        assert journal._commits_since_fsync == 0

    def test_rotate_flushes_the_old_file_before_closing_it(self, tmp_path):
        # Until the caller publishes the new manifest, a crash recovers
        # from the OLD pair — so rotate must make the old tail durable.
        engine = make_store_with_fragment()
        journal = self.batch_journal(tmp_path)
        node = engine.execute("$doc/inventory/item").items[0].nid
        for _ in range(2):
            commit_one(
                journal, engine.store, [RenameRequest(node=node, name="x")]
            )
        assert journal._commits_since_fsync == 2
        before = journal.fsyncs
        journal.rotate(
            str(tmp_path / "j2.wal"), base_next_id=engine.store._next_id
        )
        assert journal.fsyncs == before + 1  # the old handle was fsynced
        assert journal._commits_since_fsync == 0
        # The rotated-away file's frames are all intact on disk.
        assert len(scan_journal(str(tmp_path / "j.wal")).records) == 2

    def test_rotate_with_nothing_pending_skips_the_extra_fsync(
        self, tmp_path
    ):
        journal = journal_at(tmp_path, fsync=FSYNC_ALWAYS)
        before = journal.fsyncs
        journal.rotate(
            str(tmp_path / "j2.wal"), base_next_id=0
        )
        assert journal.fsyncs == before  # always-mode left no backlog
