"""A crash-safe engine: checkpoint + write-ahead journal + compaction.

:class:`DurableEngine` wraps an :class:`~repro.engine.Engine` and ties
its snap applications to a journal in a durable directory (see
:mod:`repro.durability.manifest` for the on-disk layout).  Opening the
same directory again recovers: checkpoint loaded, journal replayed,
torn tail truncated — the store comes back equal to a prefix of the
committed snaps.

The wrapper delegates everything it does not define to the inner engine,
so it drops into existing call sites — including
:class:`~repro.concurrent.ConcurrentExecutor`, which serializes updating
queries (and therefore journal appends) under the store's write lock and
duck-types :meth:`maybe_compact` to fold the journal into a fresh
checkpoint once it crosses the configured size.

A checkpoint costs what changed since the last one.  The engine keeps a
:class:`~repro.persist.RowImage` registered on its store: the encoded
dump row of every record no mutation has touched since the last
checkpoint.  Compaction still runs under the store's write lock, but
there it only encodes the missing rows, joins the cached ones, writes
and fsyncs.

``atomic_snaps`` defaults to **True** here (unlike the bare engine): a
snap whose update list fails a precondition mid-application rolls the
store back *and journals nothing*, keeping memory and disk in lockstep.
Without it, a failed snap would leave the in-memory store partially
mutated while the journal (correctly) recorded nothing — recovery would
then disagree with the process it replaced.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Optional

from repro.engine import Engine
from repro.errors import DurabilityError
from repro.obs.tracer import SharedTracer
from repro.persist import RowImage, write_engine

from repro.durability import manifest as manifest_mod
from repro.durability.faults import CRASH_MID_CHECKPOINT, FaultInjector
from repro.durability.journal import FSYNC_ALWAYS, Journal
from repro.durability.recover import RecoveryReport, recover

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import QueryResult
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.health import HealthReport
    from repro.resilience.policy import ResiliencePolicy


class DurableEngine:
    """An engine whose committed snaps survive process death.

    Parameters:
        path: the durable directory.  When it holds a manifest the
            engine is *recovered* from it; otherwise the directory is
            initialized with a checkpoint of *engine* (or a fresh
            engine) and an empty journal.
        engine: an engine to make durable on first open.  Passing one
            for an existing directory is an error — the recovered state
            is authoritative.
        fsync / fsync_batch: journal durability policy (see
            :class:`~repro.durability.journal.Journal`).
        compact_max_bytes / compact_max_records: journal size bounds;
            :meth:`maybe_compact` folds the journal into a new
            checkpoint once either is crossed.  Each checkpoint encodes
            only the rows changed since the previous one (the first
            one after open or after ``Store.load_rows`` encodes all).
        atomic_snaps: roll back (and journal nothing) on a failed snap.
            Defaults to True — see the module docstring.
        verify_recovery: run ``store.check_invariants()`` after replay.
        faults: a :class:`~repro.durability.faults.FaultInjector`
            (tests only).
        tracer: tracer for ``journal.*`` counters; a fresh
            :class:`~repro.obs.tracer.SharedTracer` when omitted.
        resilience: a :class:`~repro.resilience.ResiliencePolicy`.  When
            its breaker is enabled (the default policy enables it), a
            :class:`~repro.resilience.CircuitBreaker` is installed on the
            journal: repeated commit failures open the circuit and the
            engine enters *degraded read-only mode* — reads keep serving,
            non-empty snaps get a typed
            :class:`~repro.errors.CircuitOpenError` until a half-open
            probe succeeds.  ``None`` (the default) keeps the breaker
            off, preserving the pre-resilience fail-every-time behavior.

    Extra keyword arguments are forwarded to the :class:`Engine`
    constructor when a fresh engine is created.
    """

    def __init__(
        self,
        path: str,
        *,
        engine: Optional[Engine] = None,
        fsync: str = FSYNC_ALWAYS,
        fsync_batch: int = 32,
        compact_max_bytes: int | None = 4 * 1024 * 1024,
        compact_max_records: int | None = 4096,
        atomic_snaps: bool = True,
        verify_recovery: bool = True,
        faults: FaultInjector | None = None,
        tracer: Any | None = None,
        resilience: "ResiliencePolicy | None" = None,
        **engine_kwargs: Any,
    ):
        self.path = path
        self.tracer = tracer if tracer is not None else SharedTracer()
        self.faults = faults
        self.resilience = resilience
        self.recovered = False
        self.last_recovery: RecoveryReport | None = None
        # Serializes compaction against itself (the store write lock
        # serializes it against queries).
        self._compact_lock = threading.Lock()
        # Encoded checkpoint rows, kept between checkpoints.
        self._image = RowImage()
        self.compaction_failures = 0
        journal_opts = dict(
            fsync=fsync,
            fsync_batch=fsync_batch,
            compact_max_bytes=compact_max_bytes,
            compact_max_records=compact_max_records,
            faults=faults,
            tracer=self.tracer,
        )
        if manifest_mod.exists(path):
            if engine is not None or engine_kwargs:
                raise DurabilityError(
                    f"{path!r} already holds a durable engine; opening it "
                    "recovers that state (drop the engine argument)"
                )
            result = recover(
                path, verify_invariants=verify_recovery, tracer=self.tracer
            )
            self.engine = result.engine
            self.engine.evaluator.atomic_snaps = atomic_snaps
            self.recovered = True
            self.last_recovery = result.report
            self._generation = result.manifest["generation"]
            self.journal = Journal.reopen(
                os.path.join(path, result.manifest["journal"]),
                scan=result.scan,
                base_next_id=self.engine.store._next_id,
                next_seq=result.report.next_seq,
                **journal_opts,
            )
            self._drop_orphans(result.manifest)
        else:
            os.makedirs(path, exist_ok=True)
            if engine is None:
                engine = Engine(atomic_snaps=atomic_snaps, **engine_kwargs)
            else:
                engine.evaluator.atomic_snaps = atomic_snaps
            self.engine = engine
            self._generation = 1
            checkpoint = manifest_mod.checkpoint_name(1)
            journal_file = manifest_mod.journal_name(1)
            self._write_checkpoint(os.path.join(path, checkpoint))
            self.journal = Journal.create(
                os.path.join(path, journal_file),
                base_next_id=engine.store._next_id,
                next_seq=1,
                **journal_opts,
            )
            # The manifest is the commit point: before this replace the
            # directory is not (yet) a durable engine.
            manifest_mod.write_manifest(
                path,
                generation=1,
                checkpoint=checkpoint,
                journal=journal_file,
                seq=0,
            )
        self.engine.journal = self.journal
        self.breaker: "CircuitBreaker | None" = None
        if resilience is not None:
            self.breaker = resilience.make_breaker(self.tracer)
            self.journal.breaker = self.breaker

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Flush and close the journal (idempotent).  The directory can
        be reopened — committed snaps replay from the journal."""
        self.journal.close()

    def __enter__(self) -> "DurableEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- checkpoint compaction -------------------------------------------

    def checkpoint(self) -> None:
        """Fold the journal into a fresh checkpoint now.

        Writes a new checkpoint + empty journal pair and atomically
        repoints the manifest; the old pair stays authoritative until
        the manifest replace, so a crash at any interior point recovers
        from the old pair (``CRASH_MID_CHECKPOINT`` in the fault
        matrix).  Serializes against running queries via the store's
        write lock — do not call while holding it.  A compaction that
        fails before the manifest replace leaves the old pair current
        (the engine keeps journaling into it) and raises
        :class:`~repro.errors.DurabilityError`.
        """
        with self._compact_lock:
            self._compact()

    def maybe_compact(self) -> bool:
        """Compact when the journal crossed its size bounds.

        Non-blocking against concurrent compaction (returns False if one
        is already running); called by the serving layer after write
        requests, outside the store lock.  The caller's snap is already
        durable, so a failed compaction does not fail its request: it is
        counted (``journal.compaction_failures``, :meth:`health`), the
        old pair stays current, and False is returned.
        """
        if self.journal.closed or not self.journal.needs_compaction:
            return False
        if not self._compact_lock.acquire(blocking=False):
            return False
        try:
            if not self.journal.needs_compaction:
                return False
            self._compact()
            return True
        except DurabilityError:
            return False
        finally:
            self._compact_lock.release()

    def _compact(self) -> None:
        try:
            with self.engine.store.lock.write_locked():
                self._compact_unsynchronized()
        except (OSError, DurabilityError) as exc:
            self.compaction_failures += 1
            if self.tracer is not None:
                self.tracer.count("journal.compaction_failures")
            if isinstance(exc, OSError):
                raise DurabilityError(
                    f"checkpoint compaction failed: {exc}"
                ) from exc
            raise

    def _compact_unsynchronized(self) -> None:
        # Compaction is fenced exactly like an append: it rewrites the
        # manifest, so a deposed primary running it would repoint the
        # fleet at a checkpoint+journal pair that lacks everything the
        # promoted node has acked since — orphaning durable writes
        # without ever touching the (fenced) commit path.  Found by the
        # deterministic simulator (repro.sim): a zombie primary's
        # forced checkpoint after failover vaporized the new primary's
        # acked tail.
        if self.journal.fence is not None:
            self.journal.fence()
        generation = self._generation + 1
        checkpoint = os.path.join(
            self.path, manifest_mod.checkpoint_name(generation)
        )
        journal_file = manifest_mod.journal_name(generation)
        old_checkpoint = manifest_mod.checkpoint_name(self._generation)
        old_journal = self.journal.path
        # Everything journaled so far is folded into this checkpoint.
        seq = self.journal.next_seq - 1

        def publish() -> None:
            try:
                manifest_mod.write_manifest(
                    self.path,
                    generation=generation,
                    checkpoint=os.path.basename(checkpoint),
                    journal=journal_file,
                    seq=seq,
                )
            except Exception:
                # Only the directory fsync follows the replace: if the
                # manifest already names the new pair, it is current.
                if manifest_mod.read_manifest(self.path)["journal"] != (
                    journal_file
                ):
                    raise

        try:
            self._write_checkpoint(checkpoint)
            if self.faults is not None:
                # The window where the new checkpoint exists but the
                # manifest still points at the old pair.
                self.faults.hit(CRASH_MID_CHECKPOINT)
            # Appends move to the new journal only once the manifest
            # names it; on failure they stay on the old, current pair.
            self.journal.rotate(
                os.path.join(self.path, journal_file),
                base_next_id=self.engine.store._next_id,
                publish=publish,
            )
        except Exception:
            _unlink(
                checkpoint,
                f"{checkpoint}.tmp",
                f"{manifest_mod.manifest_path(self.path)}.tmp",
            )
            raise
        self._generation = generation
        if self.tracer is not None:
            self.tracer.count("journal.compactions")
        _unlink(os.path.join(self.path, old_checkpoint), old_journal)

    def _write_checkpoint(self, path: str) -> None:
        # Unlocked internals: compaction already holds the write lock
        # (and RWLock is not reentrant), first open owns the engine.
        # Rows cached in the image since the last checkpoint are reused.
        write_engine(self.engine, path, image=self._image, fsync=True)
        if self.tracer is not None:
            self.tracer.count(
                "journal.checkpoint_rows_encoded", self._image.encoded
            )

    def _drop_orphans(self, manifest: dict) -> None:
        """Remove checkpoint/journal files a crashed compaction left
        behind (files the manifest does not reference)."""
        keep = {
            manifest_mod.MANIFEST_NAME,
            manifest["checkpoint"],
            manifest["journal"],
        }
        try:
            entries = os.listdir(self.path)
        except OSError:
            return
        for entry in entries:
            if entry in keep:
                continue
            if entry.startswith(("checkpoint-", "journal-")) or (
                entry.endswith(".tmp")
            ):
                _unlink(os.path.join(self.path, entry))

    # -- engine surface ---------------------------------------------------

    def execute(self, query: str, *args: Any, **kwargs: Any) -> "QueryResult":
        """Delegate to the inner engine, then compact if due."""
        result = self.engine.execute(query, *args, **kwargs)
        self.maybe_compact()
        return result

    def bind(self, name: str, value: Any) -> None:
        """Bind a global and checkpoint — bindings live outside the
        store, so only a checkpoint makes them durable."""
        self.engine.bind(name, value)
        self.checkpoint()

    def load_document(self, name: str, xml_text: str) -> Any:
        """Load a document and checkpoint (document catalog entries are
        not journaled)."""
        node = self.engine.load_document(name, xml_text)
        self.checkpoint()
        return node

    def register_module(self, uri: str, text: str) -> None:
        node = self.engine.register_module(uri, text)
        self.checkpoint()
        return node

    def load_module(self, text: str) -> Any:
        """Load a module and checkpoint — function declarations are not
        part of the persisted store, so the checkpoint's module/global
        state is what recovery rebuilds from."""
        result = self.engine.load_module(text)
        self.checkpoint()
        return result

    @property
    def degraded(self) -> bool:
        """True while the durability circuit refuses writes (reads still
        serve).  Always False without a breaker."""
        breaker = self.breaker
        if breaker is None:
            return False
        from repro.resilience.breaker import CLOSED

        return breaker.state != CLOSED

    def health(self) -> "HealthReport":
        """A structured health/readiness report for this engine.

        Sections: the inner engine's report, plus ``durability``
        (journal lag — records/bytes since the last checkpoint,
        unflushed batch-mode commits — generation, last recovery) and,
        with a breaker, ``circuit`` (its state snapshot).  Status is
        DEGRADED while the circuit is open or half-open, UNHEALTHY once
        the journal is closed.
        """
        from repro.resilience.breaker import CLOSED
        from repro.resilience.health import (
            DEGRADED,
            UNHEALTHY,
            HealthReport,
        )

        report = self.engine.health()
        recovery = None
        if self.last_recovery is not None:
            recovery = {
                "records_replayed": self.last_recovery.records_replayed,
                "ops_applied": self.last_recovery.ops_applied,
                "truncated_bytes": self.last_recovery.truncated_bytes,
                "next_seq": self.last_recovery.next_seq,
            }
        report.sections["durability"] = {
            "path": self.path,
            "generation": self._generation,
            "fsync": self.journal.fsync_mode,
            "journal_records": self.journal.records,
            "journal_bytes": self.journal.bytes,
            "unflushed_commits": self.journal._commits_since_fsync,
            "compaction_failures": self.compaction_failures,
            "journal_closed": self.journal.closed,
            "recovered": self.recovered,
            "last_recovery": recovery,
        }
        if self.journal.closed:
            report.worsen(UNHEALTHY)
        breaker = self.breaker
        if breaker is not None:
            snapshot = breaker.to_dict()
            snapshot["retry_after_ms"] = breaker.retry_after_ms()
            report.sections["circuit"] = snapshot
            if snapshot["state"] != CLOSED:
                report.worsen(DEGRADED)
        return report

    def session(self, **kwargs: Any):
        """Open a transactional :class:`~repro.txn.Session`.

        Same surface as :meth:`Engine.session`; a commit lands in the
        journal as one atomic frame group (recovery replays it
        all-or-nothing), and each commit is followed by a compaction
        check.  The caller's ``on_commit`` hook, when given, runs after
        that check.
        """
        caller_hook = kwargs.pop("on_commit", None)

        def after_commit() -> None:
            self.maybe_compact()
            if caller_hook is not None:
                caller_hook()

        return self.engine.session(on_commit=after_commit, **kwargs)

    @contextmanager
    def transaction(self, **kwargs: Any):
        """Scope one MVCC transaction: commit on clean exit, roll back
        on exception.

        Statements buffer on a snapshot view and nothing touches the
        store or the journal until the atomic commit (one journal frame
        group), so durable engines support multi-query atomicity
        directly::

            with durable.transaction() as txn:
                txn.execute('snap insert nodes <bid/> into $bids')
                txn.execute('snap delete nodes $watch/item[1]')
            # both journaled as one group — or neither
        """
        session = self.session(**kwargs)
        try:
            with session.transaction() as txn:
                yield txn
        finally:
            session.close()

    def __getattr__(self, name: str) -> Any:
        # Everything else — prepare, store, evaluator, variable,
        # serialize, prepared_cache, ... — behaves exactly as on the
        # inner engine.  (Only called for names not defined above.)
        return getattr(self.engine, name)

    def __repr__(self) -> str:
        return (
            f"DurableEngine(path={self.path!r}, "
            f"generation={self._generation}, journal={self.journal!r})"
        )


def _unlink(*paths: str) -> None:
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass
