"""The replica's state machine: apply shipped frames, serve stale reads.

:class:`ReplicaApplier` is the process-agnostic core of a read replica:
it recovers a **read-only** view of a durable directory
(:func:`repro.durability.recover.recover` with ``readonly=True`` — a
replica never truncates a journal it does not own), then applies the
journal records the supervisor ships, one strictly-contiguous frame at
a time, through the exact replay machinery recovery itself uses
(:func:`~repro.durability.recover.replay_record`).  Replication
correctness therefore reduces to recovery correctness: a replica's
store is, at every acknowledged watermark, *definitionally* what
single-process recovery would rebuild at that watermark.

Discipline enforced per record:

* **sequence** — records at or below the applied watermark are skipped
  (idempotent re-ship after a reconnect); a gap or interleaving raises
  :class:`~repro.errors.JournalCorruptionError` (permanently fatal);
* **epoch** — a record carrying a fencing epoch below the highest one
  this replica has witnessed is refused with
  :class:`~repro.errors.StaleEpochError`: frames from a deposed
  primary must never reach a store that already applied the promoted
  one's;
* **group atomicity** — members of a commit group are staged and
  applied only when the ``end`` marker arrives; the acknowledged
  watermark moves over the whole group at once, so a connection lost
  mid-group re-ships the group whole (:meth:`reset_pending`).

Promotion (:meth:`promote`) turns the replica into the new primary:
the fencing epoch is advanced *first* (deposing the old primary before
anything else — see :mod:`repro.cluster.fence`), then the directory is
re-opened as a full :class:`~repro.durability.DurableEngine` — which
replays the complete journal, truncates any torn tail or unterminated
group (the new owner may write), and reopens the journal under the new
epoch with the fence installed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.engine import Engine
from repro.errors import JournalCorruptionError, StaleEpochError, UpdateError

from repro.cluster.fence import advance_epoch, make_fence, read_epoch
from repro.durability.durable import DurableEngine
from repro.durability.faults import CRASH_MID_REPLAY, FaultInjector
from repro.durability.recover import recover, replay_record


def store_fingerprint(engine: "Engine") -> str:
    """A canonical digest of the engine's *replicated* state.

    SHA-256 over the reachable node records (sorted by id), the global
    bindings and the document catalog.  Reachable means: in a tree
    rooted at a document or a global-bound node.  Two things are
    deliberately excluded because they are process-local, not journal
    state: transient nodes a query's result construction allocated
    (they never enter the journal, so replay and recovery never
    materialize them), and the raw id-allocation cursor (it advances
    on those same unjournaled allocations).  Module text and engine
    settings are excluded too — functions are re-registered per
    process and settings are operator policy.  Equal fingerprints mean
    the stores serialize identically for everything the journal
    describes — the chaos harness's byte-agreement check.
    """
    from repro.persist import engine_state, record_rows

    state = engine_state(engine)
    by_id = {record[0]: record for record in record_rows(engine.store)}
    roots: set[int] = set(state["documents"].values())
    for value in state["globals"].values():
        for item in value:
            if item[0] == "node":
                roots.add(item[1])
    reachable: set[int] = set()
    stack = [nid for nid in roots if nid in by_id]
    while stack:
        nid = stack.pop()
        if nid in reachable:
            continue
        reachable.add(nid)
        record = by_id.get(nid)
        if record is None:
            continue
        # record = [nid, kind, name, parent, children, attributes, value]
        stack.extend(record[4])
        stack.extend(record[5])
    canonical = {
        "records": sorted(
            record for nid, record in by_id.items() if nid in reachable
        ),
        "globals": state["globals"],
        "documents": state["documents"],
    }
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ReplicaApplier:
    """One replica's engine plus the frame-application state machine.

    Parameters:
        directory: the durable directory being replicated (shared
            storage; this process must treat it as read-only until
            promoted).
        module_source: XQuery! module text to re-register after
            recovery (functions are not persisted — same dance as
            :class:`~repro.usecases.webservice.AuctionService`).
        faults: optional injector; the ``crash-mid-replay`` point fires
            per record applied, simulating a replica dying mid-catch-up.
        tracer: optional tracer (``cluster.replica.*`` counters).
    """

    def __init__(
        self,
        directory: str,
        *,
        module_source: str | None = None,
        faults: FaultInjector | None = None,
        tracer: Any | None = None,
    ):
        self.directory = directory
        self.module_source = module_source
        self.faults = faults
        self.tracer = tracer
        self.promoted = False
        self.durable: DurableEngine | None = None
        result = recover(directory, readonly=True, tracer=tracer)
        self.engine: Engine = result.engine
        # Until promotion the primary's journal decides what is garbage:
        # a later record may name a node it detached but still holds.
        self.engine.store.reclaims = False
        self._restore_module(self.engine)
        #: Highest sequence number durably applied (the ACK watermark).
        self.applied_seq = result.report.next_seq - 1
        #: Highest fencing epoch witnessed (frames below it are refused).
        self.epoch = read_epoch(directory)
        # Commit-group staging: members buffer here until the end
        # marker proves the group complete.
        self._staged: list[dict] | None = None
        self._staged_count = 0
        # Contiguity cursor *including* staged records (applied_seq
        # lags it while a group is open).
        self._next_seq = self.applied_seq + 1

    # -- frame application -------------------------------------------------

    def reset_pending(self) -> None:
        """Drop a half-received commit group (connection reset).

        The supervisor re-ships from the acknowledged watermark, so the
        group arrives again whole.
        """
        self._staged = None
        self._staged_count = 0
        self._next_seq = self.applied_seq + 1

    def apply_records(self, records: list[dict]) -> int:
        """Apply shipped journal records; returns the new watermark.

        Raises :class:`~repro.errors.JournalCorruptionError` on a
        sequence gap or malformed record and
        :class:`~repro.errors.StaleEpochError` on a frame from a
        deposed primary.  On any failure nothing past the last complete
        group/record is applied and the watermark is unchanged for the
        failed suffix — the caller may retire the replica or resync.
        """
        for record in records:
            self._apply_one(record)
        return self.applied_seq

    def _apply_one(self, record: dict) -> None:
        seq = record.get("seq")
        if not isinstance(seq, int):
            raise JournalCorruptionError(
                "shipped record carries no sequence number"
            )
        if seq < self._next_seq:
            return  # idempotent re-ship of an already-seen record
        if seq != self._next_seq:
            raise JournalCorruptionError(
                f"replication sequence gap: expected {self._next_seq}, "
                f"received {seq}"
            )
        epoch = record.get("ep", 0)
        if not isinstance(epoch, int):
            raise JournalCorruptionError(
                f"shipped record {seq} carries a malformed epoch "
                f"{epoch!r}"
            )
        if epoch < self.epoch:
            raise StaleEpochError(
                f"shipped record {seq} was written under deposed epoch "
                f"{epoch}; this replica has witnessed epoch {self.epoch}",
                stale_epoch=epoch,
                fence_epoch=self.epoch,
            )
        if epoch > self.epoch:
            # Frames from a newly promoted primary raise the floor: the
            # old primary can never slip a frame in afterwards.
            self.epoch = epoch
        if self.faults is not None:
            self.faults.hit(CRASH_MID_REPLAY)
        marker = record.get("group")
        if marker == "begin":
            if self._staged is not None:
                raise JournalCorruptionError(
                    f"nested commit-group begin shipped at seq {seq}"
                )
            self._staged = []
            self._staged_count = record.get("count", 0)
            self._next_seq = seq + 1
            return
        if marker == "end":
            if self._staged is None:
                raise JournalCorruptionError(
                    f"commit-group end without begin shipped at seq {seq}"
                )
            if len(self._staged) != self._staged_count:
                raise JournalCorruptionError(
                    f"commit group closing at seq {seq} declares "
                    f"{self._staged_count} member(s) but shipped "
                    f"{len(self._staged)}"
                )
            staged, self._staged = self._staged, None
            for member in staged:
                replay_record(self.engine.store, member)
            # The whole group becomes durable knowledge at once.
            self.applied_seq = seq
            self._next_seq = seq + 1
            if self.tracer is not None:
                self.tracer.count("cluster.replica.groups")
            return
        if marker is not None:
            raise JournalCorruptionError(
                f"unknown commit-group marker {marker!r} shipped at "
                f"seq {seq}"
            )
        if self._staged is not None:
            self._staged.append(record)
            self._next_seq = seq + 1
            return
        replay_record(self.engine.store, record)
        self.applied_seq = seq
        self._next_seq = seq + 1
        if self.tracer is not None:
            self.tracer.count("cluster.replica.records")

    # -- serving -----------------------------------------------------------

    def execute(
        self,
        query: str,
        bindings: dict | None = None,
        *,
        timeout_ms: float | None = None,
    ):
        """Execute *query* against this replica's view.

        Before promotion only provably read-only queries are admitted —
        an updating query gets a typed
        :class:`~repro.errors.UpdateError` (a replica must never apply
        a Δ the journal does not describe) — and they run on a snapshot,
        as the executor's reads do: a node the read constructs takes a
        snapshot-local id, never one a later journal record installs.
        After promotion the full durable write path serves.
        """
        if not self.promoted:
            from repro.engine import ExecutionOptions
            from repro.prepared import rehandled_fork, run_module
            from repro.xdm.nodes import held_from_snapshot

            engine = self.engine
            prepared = engine.prepare(query)
            if not prepared.is_readonly():
                raise UpdateError(
                    "replica is read-only: updating queries must go to "
                    "the primary"
                )
            store = engine.store
            with store.lock.write_locked():
                snapshot = store.begin_snapshot()
                fork = rehandled_fork(engine.evaluator, snapshot)
            try:
                result = run_module(
                    fork, prepared, bindings,
                    ExecutionOptions(timeout_ms=timeout_ms),
                )
                result.items = held_from_snapshot(
                    result.items, store, snapshot
                )
            finally:
                store.release_snapshot(snapshot)
            return result
        target = self.durable if self.durable is not None else self.engine
        return target.execute(
            query, bindings=bindings, timeout_ms=timeout_ms
        )

    def lag_seq(self, primary_seq: int | None) -> int | None:
        """Records behind the primary's watermark (None when unknown)."""
        if primary_seq is None:
            return None
        return max(0, primary_seq - self.applied_seq)

    def health(self, primary_seq: int | None = None):
        """The replica's health report, with a ``replication`` section
        (applied watermark, witnessed epoch, lag when the primary's
        watermark is known, promotion state)."""
        target = self.durable if self.durable is not None else self.engine
        report = target.health()
        report.sections["replication"] = {
            "applied_seq": self.applied_seq,
            "epoch": self.epoch,
            "promoted": self.promoted,
            "lag_seq": self.lag_seq(primary_seq),
        }
        return report

    def fingerprint(self) -> str:
        engine = (
            self.durable.engine if self.durable is not None else self.engine
        )
        return store_fingerprint(engine)

    # -- failover ----------------------------------------------------------

    def promote(self, epoch: int) -> int:
        """Take over as primary under fencing *epoch*.

        Ordering is the safety argument: (1) the epoch is published —
        from this instant the old primary's next fenced append raises
        :class:`~repro.errors.StaleEpochError`; (2) the directory is
        re-opened as a full :class:`DurableEngine`, which replays
        everything the old primary made durable (including writes no
        replica ever saw shipped) and truncates torn tails — promotion
        state is *exactly* single-process recovery state; (3) the
        journal continues under the new epoch with the fence installed
        for any future promotion.  Returns the applied watermark.
        """
        advance_epoch(self.directory, epoch)
        durable = DurableEngine(self.directory, tracer=self.tracer)
        durable.journal.epoch = epoch
        durable.journal.fence = make_fence(self.directory, epoch)
        self._restore_module(durable.engine)
        self.durable = durable
        self.engine = durable.engine
        self.promoted = True
        self.epoch = epoch
        self.applied_seq = durable.journal.next_seq - 1
        self.reset_pending()
        if self.tracer is not None:
            self.tracer.count("cluster.replica.promotions")
        return self.applied_seq

    def close(self) -> None:
        if self.durable is not None:
            self.durable.close()

    # -- internals ---------------------------------------------------------

    def _restore_module(self, engine: "Engine | Any") -> None:
        """Re-register module functions without disturbing the store.

        Recovered globals are kept (the module's variable initializers
        must not reset e.g. a persisted counter — the same dance the
        durable AuctionService does), and — critically for a replica —
        the scratch nodes those initializers allocated are removed and
        the id watermark restored.  Shipped records re-seed allocation
        at their journaled ``pre`` watermark; a locally allocated node
        sitting above the recovered watermark would collide with
        replayed ids and silently corrupt the replica's store.
        """
        if self.module_source is None:
            return
        inner = getattr(engine, "engine", engine)
        store = inner.store
        watermark = store._next_id
        # Held copies: the reload frees what no binding holds.
        recovered = {
            name: inner.variable(name)
            for name in list(inner.evaluator.globals)
        }
        inner.load_module(self.module_source)
        inner.evaluator.globals.update(recovered)
        store.drop_records(
            [nid for nid in store.node_ids() if nid >= watermark]
        )
        store._reset_ids(watermark)

    def __repr__(self) -> str:
        return (
            f"ReplicaApplier(directory={self.directory!r}, "
            f"applied_seq={self.applied_seq}, epoch={self.epoch}, "
            f"promoted={self.promoted})"
        )
