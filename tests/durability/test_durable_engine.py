"""DurableEngine end-to-end: the crash matrix, compaction, atomicity.

The heart of this module is the **crash matrix**: every registered crash
point × {ordered, conflict-detection} application semantics, each case
proving the recovery contract — the recovered store equals a prefix of
the acknowledged snaps (exactly the acknowledged ones for a crash before
the fsync, at most one extra for a crash after it).
"""

from __future__ import annotations

import errno
import os
import shutil

import pytest

from repro import Engine
from repro.cluster.replica import store_fingerprint
from repro.concurrent.executor import ConcurrentExecutor
from repro.durability import (
    ALL_CRASH_POINTS,
    CRASH_AFTER_JOURNAL,
    CRASH_BEFORE_FSYNC,
    CRASH_MID_CHECKPOINT,
    EIO_ON_WRITE,
    DurableEngine,
    FaultInjector,
    InjectedCrash,
    recover,
)
from repro.durability import manifest as manifest_mod
from repro.durability.manifest import read_manifest
from repro.errors import DurabilityError, UpdateApplicationError

from tests.dump_reference import reference_dump

SEMANTICS = ["ordered", "conflict-detection"]


def snap_query(semantics: str, n: int) -> str:
    keyword = "" if semantics == "ordered" else f"{semantics} "
    return f'snap {keyword}{{ insert {{ <e n="{n}"/> }} into {{ $doc/log }} }}'


def fresh(tmp_path, **kwargs) -> tuple[str, DurableEngine]:
    path = str(tmp_path / "d")
    engine = DurableEngine(path, **kwargs)
    engine.load_document("doc", "<log/>")
    return path, engine


def entries(engine) -> int:
    return engine.execute("count($doc/log/e)").first_value()


def rows_encoded(engine) -> int:
    return engine.tracer.snapshot_counters().get(
        "journal.checkpoint_rows_encoded", 0
    )


def current_checkpoint(path: str) -> str:
    name = read_manifest(path)["checkpoint"]
    with open(os.path.join(path, name), encoding="utf-8") as handle:
        return handle.read()


class TestCrashMatrix:
    """Every crash point × every update-application semantics."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("point", ALL_CRASH_POINTS)
    def test_recovery_is_a_prefix_of_acknowledged_snaps(
        self, tmp_path, point, semantics
    ):
        faults = FaultInjector()
        path, engine = fresh(tmp_path, faults=faults)
        acked = 0
        for n in range(3):
            engine.execute(snap_query(semantics, n))
            acked += 1

        if point == CRASH_MID_CHECKPOINT:
            # A compaction that reuses the rows the last checkpoint
            # encoded warms the image; then the crash lands after the
            # next checkpoint file is written but before the manifest
            # points at it: the old pair must stay authoritative.
            before = rows_encoded(engine)
            engine.checkpoint()
            assert rows_encoded(engine) - before < len(engine.store)
            engine.execute(snap_query(semantics, 3))
            acked += 1
            faults.arm(point)
            with pytest.raises(InjectedCrash):
                engine.checkpoint()
            expected = acked
            crashed_fingerprint = store_fingerprint(engine)
        elif point == EIO_ON_WRITE:
            # Survivable I/O failure: typed error, store rolled back,
            # engine usable afterwards.
            faults.arm(point)
            with pytest.raises(DurabilityError):
                engine.execute(snap_query(semantics, 99))
            assert entries(engine) == acked  # rolled back in memory too
            engine.execute(snap_query(semantics, 100))
            expected = acked + 1
        else:
            faults.arm(point)
            with pytest.raises(InjectedCrash):
                engine.execute(snap_query(semantics, 99))
            # Before the fsync: the frame is torn, the snap was never
            # acknowledged — it must vanish.  After the journal append:
            # durable but unacknowledged — it may (here: must) appear.
            expected = acked + (1 if point == CRASH_AFTER_JOURNAL else 0)

        # Simulated process death: abandon the engine, recover from disk.
        result = recover(path)
        assert entries(result.engine) == expected
        result.engine.store.check_invariants()
        assert faults.fired == [point]

        if point == CRASH_MID_CHECKPOINT:
            # Recover, write again, compact again.  The recovered image
            # is cold, so the first checkpoint encodes every row — and
            # must still be byte-equal to a full encode.
            assert store_fingerprint(result.engine) == crashed_fingerprint
            reopened = DurableEngine(path)
            assert store_fingerprint(reopened) == crashed_fingerprint
            reopened.execute(snap_query(semantics, 100))
            before = rows_encoded(reopened)
            reopened.checkpoint()
            assert rows_encoded(reopened) - before == len(reopened.store)
            assert current_checkpoint(path) == reference_dump(reopened)
            fingerprint = store_fingerprint(reopened)
            reopened.close()
            again = recover(path).engine
            assert entries(again) == expected + 1
            assert store_fingerprint(again) == fingerprint

    def test_torn_frame_is_truncated_not_fatal(self, tmp_path):
        faults = FaultInjector()
        path, engine = fresh(tmp_path, faults=faults)
        engine.execute(snap_query("ordered", 1))
        faults.arm(CRASH_BEFORE_FSYNC)
        with pytest.raises(InjectedCrash):
            engine.execute(snap_query("ordered", 2))
        result = recover(path)
        assert result.report.truncated_bytes > 0
        assert result.report.records_replayed == 1

    def test_mid_checkpoint_crash_leaves_recoverable_orphans(self, tmp_path):
        faults = FaultInjector()
        path, engine = fresh(tmp_path, faults=faults)
        engine.execute(snap_query("ordered", 1))
        generation = read_manifest(path)["generation"]
        faults.arm(CRASH_MID_CHECKPOINT)
        with pytest.raises(InjectedCrash):
            engine.checkpoint()
        # The manifest still names the old pair; the half-finished
        # checkpoint is an orphan that reopening cleans up.
        manifest = read_manifest(path)
        assert manifest["generation"] == generation
        orphan = os.path.join(
            path, f"checkpoint-{generation + 1:06d}.json"
        )
        assert os.path.exists(orphan)
        reopened = DurableEngine(path)
        assert not os.path.exists(orphan)
        assert entries(reopened) == 1
        reopened.close()


class TestAtomicSnaps:
    FAILING_SNAP = (
        'snap { insert { <e n="a"/> } into { $doc/log },'
        "       delete { $doc/log/x },"
        '       insert { <e n="b"/> } after { $doc/log/x } }'
    )

    def test_failed_snap_rolls_back_and_journals_nothing(self, tmp_path):
        path, engine = fresh(tmp_path)
        assert engine.evaluator.atomic_snaps  # the DurableEngine default
        engine.execute("snap { insert { <x/> } into { $doc/log } }")
        records_before = engine.journal.records
        # The anchor <x/> passes validation at evaluation time but the
        # snap's own delete detaches it before the last insert applies —
        # a genuine mid-application precondition failure.  The snap must
        # roll back whole and leave no journal record.
        with pytest.raises(UpdateApplicationError):
            engine.execute(self.FAILING_SNAP)
        assert entries(engine) == 0
        assert engine.execute("count($doc/log/x)").first_value() == 1
        assert engine.journal.records == records_before
        engine.close()
        result = recover(path)
        assert entries(result.engine) == 0

    def test_memory_and_disk_agree_after_failed_snap(self, tmp_path):
        path, engine = fresh(tmp_path)
        engine.execute("snap { insert { <x/> } into { $doc/log } }")
        with pytest.raises(UpdateApplicationError):
            engine.execute(self.FAILING_SNAP)
        engine.execute(snap_query("ordered", 7))
        before = engine.execute("$doc").serialize()
        engine.close()
        assert recover(path).engine.execute("$doc").serialize() == before


class TestCompaction:
    def test_journal_folds_into_new_checkpoint_past_threshold(
        self, tmp_path
    ):
        path, engine = fresh(tmp_path, compact_max_records=5)
        generation = read_manifest(path)["generation"]
        for n in range(6):
            engine.execute(snap_query("ordered", n))
        manifest = read_manifest(path)
        assert manifest["generation"] > generation
        assert manifest["seq"] >= 5  # records folded into the checkpoint
        # The old pair is gone, the new journal is (nearly) empty.
        assert engine.journal.records <= 1
        engine.execute(snap_query("ordered", 99))
        engine.close()
        result = recover(path)
        assert entries(result.engine) == 7
        result.engine.store.check_invariants()

    def test_sequence_numbering_survives_compaction(self, tmp_path):
        path, engine = fresh(tmp_path, compact_max_records=2)
        for n in range(7):
            engine.execute(snap_query("ordered", n))
        engine.close()
        # Whatever generation we landed on, recovery must see contiguous
        # sequence numbers (manifest seq + 1 onwards) or refuse.
        result = recover(path)
        assert entries(result.engine) == 7

    def test_explicit_checkpoint_empties_the_journal(self, tmp_path):
        path, engine = fresh(tmp_path)
        engine.execute(snap_query("ordered", 1))
        assert engine.journal.records == 1
        engine.checkpoint()
        assert engine.journal.records == 0
        engine.close()
        result = recover(path)
        assert result.report.records_replayed == 0
        assert entries(result.engine) == 1


class TestCompactionFailure:
    @staticmethod
    def fail_next_manifest_write(monkeypatch) -> list:
        real = manifest_mod.write_manifest
        failures = [OSError(errno.ENOSPC, "No space left on device")]

        def write_manifest(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real(*args, **kwargs)

        monkeypatch.setattr(manifest_mod, "write_manifest", write_manifest)
        return failures

    def test_failed_manifest_write_loses_no_acked_snap(
        self, tmp_path, monkeypatch
    ):
        path, engine = fresh(tmp_path, compact_max_records=4)
        generation = read_manifest(path)["generation"]
        pair = {
            "MANIFEST.json",
            f"checkpoint-{generation:06d}.json",
            f"journal-{generation:06d}.wal",
        }
        self.fail_next_manifest_write(monkeypatch)
        # The 4th snap trips the bound; its compaction fails at the
        # manifest write.  The snap is durable, so its request succeeds.
        for n in range(4):
            engine.execute(snap_query("ordered", n))
        assert engine.compaction_failures == 1
        counters = engine.tracer.snapshot_counters()
        assert counters["journal.compaction_failures"] == 1
        health = engine.health().sections["durability"]
        assert health["compaction_failures"] == 1
        # The old pair is still current, with no orphans beside it.
        assert read_manifest(path)["generation"] == generation
        assert set(os.listdir(path)) == pair
        engine.execute(snap_query("ordered", 4))
        assert set(os.listdir(path)) == {
            "MANIFEST.json",
            f"checkpoint-{generation + 1:06d}.json",
            f"journal-{generation + 1:06d}.wal",
        }
        engine.execute(snap_query("ordered", 5))
        # A copy of the directory is what a crash would leave behind.
        copy = str(tmp_path / "copy")
        shutil.copytree(path, copy)
        assert entries(recover(copy).engine) == 6
        engine.close()
        assert entries(recover(path).engine) == 6

    def test_manifest_replaced_before_a_failed_fsync_is_current(
        self, tmp_path, monkeypatch
    ):
        # The manifest replace landed and only the directory fsync after
        # it failed: the new pair is what recovery reads, so appends
        # must move to the new journal.
        path, engine = fresh(tmp_path)
        engine.execute(snap_query("ordered", 1))
        generation = read_manifest(path)["generation"]

        def fsync_directory(directory):
            raise OSError(errno.EIO, "injected I/O error")

        monkeypatch.setattr(manifest_mod, "fsync_directory", fsync_directory)
        engine.checkpoint()
        monkeypatch.undo()
        assert read_manifest(path)["generation"] == generation + 1
        engine.execute(snap_query("ordered", 2))
        assert entries(recover(path).engine) == 2

    def test_explicit_checkpoint_failure_is_typed(
        self, tmp_path, monkeypatch
    ):
        path, engine = fresh(tmp_path)
        engine.execute(snap_query("ordered", 1))
        self.fail_next_manifest_write(monkeypatch)
        with pytest.raises(DurabilityError, match="compaction failed"):
            engine.checkpoint()
        assert engine.compaction_failures == 1
        engine.execute(snap_query("ordered", 2))
        engine.checkpoint()
        engine.execute(snap_query("ordered", 3))
        assert entries(recover(path).engine) == 3


class TestCheckpointCost:
    def test_checkpoint_encodes_only_changed_rows(self, tmp_path):
        """After a warm checkpoint, k single-record updates cost O(k)
        encoded rows, whatever the store's size."""
        k = 5
        encoded = []
        for size in (50, 200):
            path = str(tmp_path / f"d{size}")
            engine = DurableEngine(path)
            engine.load_document(
                "doc",
                "<log>" + '<e n="0"/>' * size + "</log>",
            )
            engine.checkpoint()  # warm: nothing changed since the last
            before = rows_encoded(engine)
            for n in range(1, k + 1):
                engine.execute(
                    f'snap {{ replace value of {{ $doc/log/e[{n}]/@n }} '
                    f'with {{ "{n}" }} }}'
                )
            engine.checkpoint()
            encoded.append(rows_encoded(engine) - before)
            assert current_checkpoint(path) == reference_dump(engine)
            engine.close()
        assert encoded[0] == encoded[1] <= 2 * k


class TestEngineSurface:
    def test_reopening_with_an_engine_argument_is_an_error(self, tmp_path):
        path, engine = fresh(tmp_path)
        engine.close()
        with pytest.raises(DurabilityError, match="already holds"):
            DurableEngine(path, engine=Engine())

    def test_transaction_commits_atomically_and_survives_recovery(
        self, tmp_path
    ):
        # The transaction buffers on a snapshot and journals the commit
        # as one atomic frame group.
        path, engine = fresh(tmp_path)
        with engine.session() as session, session.transaction() as txn:
            txn.execute(snap_query("ordered", 1))
            txn.execute(snap_query("ordered", 2))
        assert entries(engine) == 2
        engine.close()
        result = recover(path)
        assert entries(result.engine) == 2
        assert result.report.groups_replayed == 1

    def test_transaction_rollback_leaves_store_and_journal_untouched(
        self, tmp_path
    ):
        path, engine = fresh(tmp_path)
        records_before = engine.journal.records
        session = engine.session()
        txn = session.begin()
        txn.execute(snap_query("ordered", 1))
        txn.rollback()
        session.close()
        assert entries(engine) == 0
        assert engine.journal.records == records_before

    def test_delegation_covers_the_engine_surface(self, tmp_path):
        path, engine = fresh(tmp_path)
        prepared = engine.prepare("count($doc/log/e)")
        assert prepared.execute().first_value() == 0
        assert engine.variable("doc") is not None
        assert engine.store is engine.engine.store

    def test_context_manager_closes_the_journal(self, tmp_path):
        path, _ = fresh(tmp_path)
        with DurableEngine(str(tmp_path / "d2")) as engine:
            journal = engine.journal
        assert journal.closed

    def test_journal_counters_reach_the_tracer(self, tmp_path):
        path, engine = fresh(tmp_path)
        engine.execute(snap_query("ordered", 1))
        counters = engine.tracer.snapshot_counters()
        assert counters["journal.records"] == 1
        assert counters["journal.fsyncs"] >= 1
        assert counters["journal.bytes"] > 0

    def test_prepared_queries_are_journaled_too(self, tmp_path):
        path, engine = fresh(tmp_path)
        prepared = engine.prepare(
            'snap { insert { <e n="{$n}"/> } into { $doc/log } }'
        )
        prepared.execute(bindings={"n": 1})
        prepared.execute(bindings={"n": 2})
        engine.close()
        result = recover(path)
        assert entries(result.engine) == 2


class TestConcurrentDurability:
    def test_durable_engine_under_the_concurrent_executor(self, tmp_path):
        path, engine = fresh(tmp_path, compact_max_records=8)
        executor = ConcurrentExecutor(engine, workers=4, queue_size=64)
        try:
            futures = [
                executor.submit(
                    'snap { insert { <e n="{$n}"/> } into { $doc/log } }',
                    bindings={"n": n},
                )
                for n in range(24)
            ]
            for future in futures:
                future.result(timeout=30)
        finally:
            executor.shutdown()
        total = entries(engine)
        assert total == 24
        engine.close()
        result = recover(path)
        assert entries(result.engine) == 24
        result.engine.store.check_invariants()
        # The executor's post-write hook compacted along the way.
        assert read_manifest(path)["generation"] > 1
