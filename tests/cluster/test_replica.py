"""ReplicaApplier: replication correctness reduces to recovery.

A replica that applied the shipped records through ``replay_record``
must fingerprint identically to a fresh single-process recovery at the
same watermark — including after being killed mid-catch-up and
restarted (the crash-during-catch-up satellite), and across commit
groups, duplicate re-ships, gaps and stale epochs.
"""

from __future__ import annotations

import pytest

from repro.cluster.replica import ReplicaApplier, store_fingerprint
from repro.durability import DurableEngine, FaultInjector, recover
from repro.durability.faults import CRASH_MID_REPLAY, InjectedCrash
from repro.durability.journal import JournalFollower
from repro.errors import (
    JournalCorruptionError,
    StaleEpochError,
    UpdateError,
)


def fresh(tmp_path) -> tuple[str, DurableEngine]:
    path = str(tmp_path / "d")
    engine = DurableEngine(path)
    engine.load_document("doc", "<log/>")
    return path, engine


def append(engine: DurableEngine, n: int) -> None:
    engine.execute(
        f'snap {{ insert {{ <e n="{n}"/> }} into {{ $doc/log }} }}'
    )


def recovery_fingerprint(path: str) -> str:
    return store_fingerprint(recover(path, readonly=True).engine)


class TestApply:
    def test_applied_records_match_fresh_recovery(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        follower = JournalFollower(path, after_seq=replica.applied_seq)
        for n in range(5):
            append(engine, n)
        watermark = replica.apply_records(follower.poll())
        assert watermark == 5
        assert replica.applied_seq == 5
        assert replica.fingerprint() == recovery_fingerprint(path)

    def test_duplicate_reship_is_idempotent(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        follower = JournalFollower(path, after_seq=replica.applied_seq)
        append(engine, 0)
        append(engine, 1)
        records = follower.poll()
        replica.apply_records(records)
        replica.apply_records(records)  # a reconnect re-ships the batch
        assert replica.applied_seq == 2
        assert replica.fingerprint() == recovery_fingerprint(path)

    def test_a_replica_started_mid_statement_keeps_what_it_detached(
        self, tmp_path
    ):
        # The replica recovers between the two records of one primary
        # statement; re-registering its module runs a statement there,
        # which must not free the node the second record inserts into.
        path = str(tmp_path / "d")
        started: list[ReplicaApplier] = []

        def start_replica(message: str) -> None:
            started.append(ReplicaApplier(
                path, module_source="declare function local:f() { 1 };"
            ))

        engine = DurableEngine(path, trace_sink=start_replica)
        engine.load_document("doc", "<log><a/></log>")
        engine.execute(
            "let $a := $doc/log/a return (snap delete { $a }, "
            'trace(1, "t"), snap insert { <n/> } into { $a })'
        )
        (replica,) = started
        follower = JournalFollower(path, after_seq=replica.applied_seq)
        replica.apply_records(follower.poll())
        assert replica.fingerprint() == recovery_fingerprint(path)

    def test_sequence_gap_is_permanently_fatal(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        append(engine, 0)
        with pytest.raises(JournalCorruptionError):
            replica.apply_records([{"seq": 5, "ep": 0}])

    def test_stale_epoch_frame_is_refused(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        replica.epoch = 2  # this replica witnessed a promotion
        with pytest.raises(StaleEpochError) as info:
            replica.apply_records([{"seq": 1, "ep": 1}])
        assert info.value.fence_epoch == 2
        assert replica.applied_seq == 0  # nothing was applied

    def test_newer_epoch_raises_the_replica_floor(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        follower = JournalFollower(path, after_seq=0)
        append(engine, 0)
        (record,) = follower.poll()
        record = dict(record, ep=3)
        replica.apply_records([record])
        assert replica.epoch == 3
        with pytest.raises(StaleEpochError):
            replica.apply_records([{"seq": 2, "ep": 1}])


class TestGroupAtomicity:
    def make_group(self, engine, path, replica):
        """Real commit-group records from a transactional session."""
        follower = JournalFollower(path, after_seq=replica.applied_seq)
        with engine.session() as session:
            with session.transaction() as txn:
                txn.execute(
                    'snap { insert { <e n="a"/> } into { $doc/log } }'
                )
                txn.execute(
                    'snap { insert { <e n="b"/> } into { $doc/log } }'
                )
        return follower.poll()

    def test_members_stage_until_the_end_marker(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        records = self.make_group(engine, path, replica)
        assert [r.get("group") for r in records[:1]] == ["begin"]
        assert records[-1].get("group") == "end"
        before = replica.applied_seq
        replica.apply_records(records[:-1])  # end withheld
        assert replica.applied_seq == before  # watermark unmoved
        replica.apply_records(records[-1:])
        assert replica.applied_seq == records[-1]["seq"]
        assert replica.fingerprint() == recovery_fingerprint(path)

    def test_reset_pending_drops_a_half_received_group(self, tmp_path):
        path, engine = fresh(tmp_path)
        replica = ReplicaApplier(path)
        records = self.make_group(engine, path, replica)
        replica.apply_records(records[:-1])
        replica.reset_pending()  # connection reset mid-group
        replica.apply_records(records)  # the supervisor re-ships whole
        assert replica.applied_seq == records[-1]["seq"]
        assert replica.fingerprint() == recovery_fingerprint(path)


class TestCrashDuringCatchUp:
    def test_restarted_replica_converges_to_fresh_recovery(self, tmp_path):
        path, engine = fresh(tmp_path)
        faults = FaultInjector()
        faults.arm(CRASH_MID_REPLAY, after=3)
        dying = ReplicaApplier(path, faults=faults)
        follower = JournalFollower(path, after_seq=dying.applied_seq)
        for n in range(6):
            append(engine, n)
        records = follower.poll()
        with pytest.raises(InjectedCrash):
            dying.apply_records(records)
        # The process is gone; a restarted replica recovers from disk
        # and re-applies — its store must equal fresh recovery exactly.
        restarted = ReplicaApplier(path)
        resumed = JournalFollower(path, after_seq=restarted.applied_seq)
        restarted.apply_records(resumed.poll())
        assert restarted.applied_seq == 6
        assert restarted.fingerprint() == recovery_fingerprint(path)


class TestModuleSource:
    MODULE = """
    declare variable $scratch := <tmp kind="scratch">scratch text</tmp>;
    declare function entries() { count($doc/log/e) };
    """

    def test_scratch_nodes_leave_no_postings_behind(self, tmp_path):
        path, engine = fresh(tmp_path)
        engine.load_module(self.MODULE)
        append(engine, 0)
        # Re-registering the module allocates a second $scratch tree
        # above the recovered watermark; the replica removes it again,
        # and its attribute and text postings must go with it.
        replica = ReplicaApplier(path, module_source=self.MODULE)
        store = replica.engine.store
        store.check_invariants()
        assert replica.execute("entries()").first_value() == 1
        assert replica.execute("string($scratch/@kind)").strings() == [
            "scratch"
        ]
        follower = JournalFollower(path, after_seq=replica.applied_seq)
        append(engine, 1)
        replica.apply_records(follower.poll())
        store.check_invariants()
        assert replica.fingerprint() == recovery_fingerprint(path)


class TestServing:
    def test_reads_serve_and_writes_are_refused_unpromoted(self, tmp_path):
        path, engine = fresh(tmp_path)
        append(engine, 0)
        replica = ReplicaApplier(path)
        assert (
            replica.execute("count($doc/log/e)").first_value() == 1
        )
        with pytest.raises(UpdateError):
            replica.execute(
                'snap { insert { <e/> } into { $doc/log } }'
            )

    def test_promote_fences_then_serves_writes(self, tmp_path):
        path, engine = fresh(tmp_path)
        append(engine, 0)
        engine.journal.fence = None  # pre-cluster primary
        replica = ReplicaApplier(path)
        watermark = replica.promote(1)
        assert watermark == 1
        assert replica.promoted
        replica.execute(
            'snap { insert { <e n="post"/> } into { $doc/log } }'
        )
        assert (
            replica.execute("count($doc/log/e)").first_value() == 2
        )
        # A second promotion attempt for the same epoch loses.
        with pytest.raises(StaleEpochError):
            ReplicaApplier(path).promote(1)
        replica.close()
