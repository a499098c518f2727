"""DurableEngine end-to-end: the crash matrix, compaction, atomicity.

The heart of this module is the **crash matrix**: every registered crash
point × {ordered, conflict-detection} application semantics, each case
proving the recovery contract — the recovered store equals a prefix of
the acknowledged snaps (exactly the acknowledged ones for a crash before
the fsync, at most one extra for a crash after it).
"""

from __future__ import annotations

import os

import pytest

from repro import Engine
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
from repro.durability.manifest import read_manifest
from repro.errors import DurabilityError, UpdateApplicationError

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
            # The crash lands after the new checkpoint file is written
            # but before the manifest points at it: the old pair must
            # stay authoritative.
            faults.arm(point)
            with pytest.raises(InjectedCrash):
                engine.checkpoint()
            expected = acked
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
        with engine.transaction() as txn:
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
