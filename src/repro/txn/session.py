"""Sessions and optimistic multi-snap transactions.

The paper's snap gives one statement atomicity; this module composes
*statements* into transactions the paper's §3.2 machinery can validate:

* A :class:`Session` (obtained from ``engine.session()``) owns at most
  one open :class:`Transaction` at a time and carries the policy knobs
  (default semantics, tracer, admission limits, post-commit hook).
* A :class:`Transaction` pins a
  :class:`~repro.txn.view.TransactionView` — an O(1) MVCC snapshot of
  the store at begin time — and runs every ``execute()`` against it
  with a private evaluator, buffering each statement's Δ through a
  :class:`~repro.txn.recorder.TxnRecorder`.  Statements see their own
  writes (the view resolves mutated records first) and nothing that
  commits concurrently (snapshot isolation while open).
* ``commit()`` is first-committer-wins OCC: under the store write lock
  the transaction's merged Δ is checked — via
  :func:`~repro.semantics.conflicts.check_cross_conflict_free`, the
  §3.2 rules replayed across transaction boundaries — against the Δ of
  every transaction that committed after this one's snapshot.  A rule
  violation aborts with :class:`~repro.errors.TransactionConflictError`
  (REPR0008, classified *transient* by the retry policy: rerun the
  transaction on a fresh snapshot).  A clean validation replays the
  buffered statements against the live store (id-translated by a
  constant offset), maintains the value indexes atomically under the
  same lock hold, journals the whole commit as **one atomic frame
  group** when the engine is durable, and publishes the Δ for later
  validators.

Aborted or rolled-back transactions leave no trace: the view dies with
the transaction, the store and journal were never touched.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import (
    ConflictError,
    DurabilityError,
    StaleEpochError,
    TransactionConflictError,
    UpdateApplicationError,
    XQueryError,
)
from repro.obs.tracer import Tracer, maybe_span
from repro.prepared import rehandled_fork, run_module
from repro.semantics.conflicts import check_cross_conflict_free
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    SetValueRequest,
)
from repro.txn.recorder import TxnRecorder
from repro.txn.view import TransactionView, begin_transaction_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import QueryResult


def _map_request(request, mapper: Callable[[int], Any]):
    """Rebuild a request with every node reference passed through
    *mapper* (commit-time id translation, or hashable placeholders for
    validation — the conflict tables only need hashability)."""
    if isinstance(request, InsertRequest):
        return InsertRequest(
            nodes=tuple(mapper(node) for node in request.nodes),
            position=request.position,
            target=mapper(request.target),
            group=request.group,
        )
    if isinstance(request, DeleteRequest):
        return DeleteRequest(node=mapper(request.node), group=request.group)
    if isinstance(request, RenameRequest):
        return RenameRequest(node=mapper(request.node), name=request.name)
    if isinstance(request, SetValueRequest):
        return SetValueRequest(node=mapper(request.node), text=request.text)
    raise TypeError(f"cannot translate request {request!r}")


def _map_row(row: list, mapper: Callable[[int], int]) -> list:
    nid, kind, name, parent, children, attributes, value = row
    return [
        mapper(nid),
        kind,
        name,
        None if parent is None else mapper(parent),
        [mapper(child) for child in children],
        [mapper(attr) for attr in attributes],
        value,
    ]


class _Committed:
    """One committed transaction's published Δ (live node ids)."""

    __slots__ = ("seq", "requests")

    def __init__(self, seq: int, requests: tuple):
        self.seq = seq
        self.requests = requests


class TransactionManager:
    """Per-engine OCC bookkeeping: commit sequencing and the committed
    log the validation phase replays against.

    The log is pruned to what some *active* transaction might still
    validate against (entries at or below the oldest active begin
    sequence can never conflict with anyone).  Direct, non-session
    writes (plain ``engine.execute`` autocommits) are published here
    too — via the evaluator's ``txn_log`` hook — so an open transaction
    cannot miss a conflict with them.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.commit_seq = 0
        self._log: list[_Committed] = []
        self._active: dict[int, int] = {}
        self._next_token = 0

    def register(self, begin_seq: int) -> int:
        with self._mutex:
            self._next_token += 1
            token = self._next_token
            self._active[token] = begin_seq
            return token

    def unregister(self, token: int) -> None:
        with self._mutex:
            self._active.pop(token, None)
            self._prune_locked()

    def committed_after(self, begin_seq: int) -> list[_Committed]:
        with self._mutex:
            return [c for c in self._log if c.seq > begin_seq]

    def record_commit(self, requests: list) -> int:
        with self._mutex:
            self.commit_seq += 1
            if self._active:
                self._log.append(
                    _Committed(self.commit_seq, tuple(requests))
                )
            self._prune_locked()
            return self.commit_seq

    def record_applied(self, requests: list) -> None:
        """Evaluator ``txn_log`` hook: an autocommitted (non-session) Δ
        just applied to the live store."""
        if requests:
            self.record_commit(requests)

    def _prune_locked(self) -> None:
        if not self._log:
            return
        floor = min(self._active.values(), default=self.commit_seq)
        drop = 0
        for committed in self._log:
            if committed.seq > floor:
                break
            drop += 1
        if drop:
            del self._log[:drop]

    @property
    def active_count(self) -> int:
        with self._mutex:
            return len(self._active)

    @property
    def log_length(self) -> int:
        with self._mutex:
            return len(self._log)


class Transaction:
    """One optimistic transaction: a pinned snapshot view, buffered Δs,
    and a first-committer-wins commit.  Obtain via
    :meth:`Session.begin` / :meth:`Session.transaction`."""

    def __init__(self, session: "Session"):
        self._session = session
        engine = session._engine
        store = engine.store
        self._store = store
        self._manager: TransactionManager = session._manager
        self._active = True
        self._statements = 0
        self.commit_seq: int | None = None
        with store.lock.write_locked():
            view = begin_transaction_view(store)
            self._begin_seq = self._manager.commit_seq
            # The base every statement forks from.  Value-index probes
            # stay on: the view adds its buffered writes to every
            # probe's candidates (see TransactionView).
            evaluator = rehandled_fork(engine.evaluator, view)
        self._view: TransactionView = view
        self._token = self._manager.register(self._begin_seq)
        # Statement-level failure containment: a failed statement rolls
        # the *view* back and the transaction stays usable.
        evaluator.atomic_snaps = True
        # Δs buffer in the recorder until commit publishes them.
        self._recorder = TxnRecorder(view)
        evaluator.journal = self._recorder
        evaluator.txn_log = None
        self._evaluator = evaluator
        session._tracer.count("txn.begin")

    # -- introspection ----------------------------------------------------

    @property
    def active(self) -> bool:
        return self._active

    @property
    def statements(self) -> int:
        """Statements executed so far in this transaction."""
        return self._statements

    @property
    def pending_ops(self) -> int:
        """Buffered update requests awaiting commit."""
        return self._recorder.total_ops

    def _require_active(self) -> None:
        if not self._active:
            raise XQueryError(
                "this transaction is no longer active (already committed, "
                "rolled back, or aborted); begin a new one on the session"
            )

    # -- statements -------------------------------------------------------

    def execute(
        self,
        query: str,
        bindings: Mapping | None = None,
        *,
        semantics: str | None = None,
        timeout_ms: float | None = None,
        cancel=None,
        options=None,
    ) -> "QueryResult":
        """Run one statement inside the transaction.

        Reads resolve against the transaction's snapshot plus its own
        buffered writes (read-your-writes); updates buffer their Δ for
        commit.  Result node handles point into the transaction's view
        and are session-scoped: after commit, re-read through the
        engine.  Bindings passed here, and the values a statement's
        prolog declares, stay bound for the rest of the transaction.
        Every per-execution field of *options* is honoured, as on
        ``Engine.execute``.
        """
        self._require_active()
        from repro.engine import _merge_options

        session = self._session
        engine = session._engine
        view = self._view
        if view.detached:
            raise TransactionConflictError(
                "the store was restored while this transaction was open; "
                "its snapshot is detached — retry on a fresh transaction"
            )
        opts = _merge_options(
            options,
            semantics=semantics,
            timeout_ms=timeout_ms,
            cancel=cancel,
        )
        prepared = engine.prepare(
            query,
            optimize=opts.optimize,
            semantics=(
                opts.resolved_semantics
                or session._semantics
                or engine.default_semantics
            ),
        )
        # The fork shares this transaction's globals dict: bindings and
        # prolog declarations stay visible to later statements.
        base = self._evaluator
        result = run_module(
            base.fork(view, base.globals), prepared, bindings, opts
        )
        self._statements += 1
        session._tracer.count("txn.statements")
        return result

    # -- outcome ----------------------------------------------------------

    def commit(self) -> None:
        """Validate, apply, journal and publish the buffered Δ.

        First-committer-wins: raises
        :class:`~repro.errors.TransactionConflictError` when the §3.2
        cross-transaction rules find this transaction's Δ in conflict
        with any Δ committed since this transaction began (the store
        and journal are untouched).  On a durable engine the whole
        commit lands as one atomic journal frame group.  Either way the
        transaction is finished afterwards — begin a new one to retry.
        """
        self._require_active()
        session = self._session
        engine = session._engine
        store = self._store
        manager = self._manager
        tracer = session._tracer
        statements = self._recorder.statements
        total_ops = self._recorder.total_ops
        committed = False
        try:
            if total_ops == 0:
                # Read-only transaction: nothing to validate, apply or
                # journal — trivially serializable at its begin point.
                tracer.count("txn.commits")
                committed = True
                return
            span_tracer = tracer if type(tracer) is Tracer else None
            with store.lock.write_locked():
                view = self._view
                if view.detached:
                    tracer.count("txn.aborts")
                    raise TransactionConflictError(
                        "the store was restored while this transaction "
                        "was open; its buffered Δ no longer has a base "
                        "to validate against"
                    )
                ceiling = view.ceiling
                token = self._token

                def placeholder(nid: int):
                    # Transaction-local ids must not collide with live
                    # ids in the shared conflict tables; the tables
                    # only need hashable keys.
                    if nid >= ceiling:
                        return ("txn", token, nid)
                    return nid

                mine = [
                    _map_request(request, placeholder)
                    for stmt in statements
                    for request in stmt.requests
                ]
                with maybe_span(span_tracer, "txn.validate"):
                    for other in manager.committed_after(self._begin_seq):
                        try:
                            check_cross_conflict_free(
                                list(other.requests), mine
                            )
                        except ConflictError as exc:
                            tracer.count("txn.conflicts")
                            tracer.count("txn.aborts")
                            raise TransactionConflictError(
                                "transaction aborted by first-committer-"
                                f"wins validation: {exc.message}",
                                conflicts_with_seq=other.seq,
                                detail=exc.message,
                            ) from exc
                if session._limits is not None:
                    guard = session._limits.guard(store)
                    if guard is not None:
                        # Admission bound on the merged Δ, same knob
                        # that bounds a single snap's pending list.
                        guard.check_delta(total_ops)
                journal = engine.evaluator.journal
                breaker = journal.breaker if journal is not None else None
                if breaker is not None:
                    # Degraded read-only mode applies to transactions
                    # too: refuse before anything touches the store.
                    breaker.admit()
                # Constant-offset id translation: view-local ids (at or
                # above the ceiling) land at nid+offset; base ids are
                # live ids already.  Re-seeding the allocator at each
                # statement's translated pre-watermark makes apply-time
                # allocations land exactly where the view's did, so
                # every cross-statement reference stays consistent.
                offset = store._next_id - ceiling

                def to_live(nid: int) -> int:
                    return nid + offset if nid >= ceiling else nid

                live_statements = [
                    (
                        [
                            _map_request(request, to_live)
                            for request in stmt.requests
                        ],
                        [_map_row(row, to_live) for row in stmt.rows],
                        stmt.pre_local + offset,
                        (stmt.post_local or stmt.pre_local) + offset,
                        stmt.semantics,
                    )
                    for stmt in statements
                ]
                from repro.durability.journal import (
                    JournalEntry,
                    encode_request,
                )

                applied: list = []
                undo = store.begin_undo()
                try:
                    try:
                        with maybe_span(span_tracer, "txn.apply"):
                            for requests, rows, pre, post, _sem in (
                                live_statements
                            ):
                                store.install_rows(rows)
                                store._reset_ids(pre)
                                for request in requests:
                                    request.apply(store)
                                if store._next_id != post:
                                    raise UpdateApplicationError(
                                        "transaction replay diverged: store "
                                        f"watermark {store._next_id} != "
                                        f"expected {post}"
                                    )
                                applied.extend(requests)
                    except XQueryError as exc:
                        # Validation is Δ-vs-Δ; a precondition the rules
                        # cannot see (e.g. an anchor moved by a commuting
                        # commit) can still fail here.  All-or-nothing:
                        # roll back and abort as a (retryable) conflict.
                        store.rollback_undo(undo)
                        if breaker is not None:
                            breaker.release_probe()
                        tracer.count("txn.aborts")
                        raise TransactionConflictError(
                            "transaction aborted: a buffered update failed "
                            f"against the committed store ({exc})",
                            detail=str(exc),
                        ) from exc
                    if journal is not None:
                        entries = [
                            JournalEntry(
                                seq=0,  # assigned by commit_group
                                pre_next_id=pre,
                                semantics=sem.value,
                                ops=[
                                    encode_request(request)[0]
                                    for request in requests
                                ],
                                nodes=rows,
                                post_next_id=post,
                            )
                            for requests, rows, pre, post, sem in (
                                live_statements
                            )
                        ]
                        try:
                            with maybe_span(span_tracer, "txn.journal"):
                                journal.commit_group(
                                    entries, store, txn_id=token
                                )
                        except OSError as exc:
                            store.rollback_undo(undo)
                            if breaker is not None:
                                breaker.record_failure(
                                    f"journal group append failed: {exc}"
                                )
                            tracer.count("txn.aborts")
                            raise DurabilityError(
                                f"journal group append failed: {exc}"
                            ) from exc
                        except StaleEpochError:
                            # A deposed primary's fenced group commit:
                            # un-apply and let the typed refusal through.
                            store.rollback_undo(undo)
                            tracer.count("txn.aborts")
                            raise
                        if breaker is not None:
                            breaker.record_success()
                    elif breaker is not None:
                        breaker.release_probe()
                finally:
                    store.end_undo(undo)
                self.commit_seq = manager.record_commit(applied)
            tracer.count("txn.commits")
            tracer.count("txn.ops_committed", total_ops)
            committed = True
        finally:
            self._finish()
        if committed and session._on_commit is not None:
            session._on_commit()

    def rollback(self) -> None:
        """Discard the buffered Δ; the store never saw it (no-op when
        the transaction already finished)."""
        if not self._active:
            return
        self._session._tracer.count("txn.aborts")
        self._finish()

    def _finish(self) -> None:
        if not self._active:
            return
        self._active = False
        self._store.release_snapshot(self._view)
        self._manager.unregister(self._token)
        session = self._session
        if session._txn is self:
            session._txn = None


class Session:
    """An interactive connection to one engine: begin/execute/commit.

    Obtained from ``engine.session(...)`` (one keyword-only surface on
    :class:`~repro.engine.Engine`,
    :class:`~repro.durability.durable.DurableEngine` and
    :class:`~repro.concurrent.executor.ConcurrentExecutor`).  A session
    is a cheap, single-threaded handle; open as many as needed — their
    transactions validate against each other through the engine's
    shared :class:`TransactionManager`.

    ``execute()`` outside an explicit :meth:`begin` auto-begins a
    transaction; nothing is visible to other sessions until
    :meth:`commit`.  Using the session as a context manager rolls back
    an uncommitted transaction on exit (commit is always explicit).
    """

    def __init__(
        self,
        engine,
        *,
        semantics: str | None = None,
        tracer=None,
        limits=None,
        on_commit: Callable[[], None] | None = None,
    ):
        if semantics is not None and not isinstance(
            semantics, ApplySemantics
        ):
            semantics = ApplySemantics(semantics)
        self._engine = engine
        self._semantics = semantics
        self._tracer = tracer if tracer is not None else Tracer()
        self._limits = limits
        self._on_commit = on_commit
        self._manager: TransactionManager = engine.txn_manager
        self._txn: Transaction | None = None
        self._closed = False

    # -- lifecycle --------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def transaction_active(self) -> bool:
        return self._txn is not None and self._txn.active

    def begin(self) -> Transaction:
        """Open a transaction (snapshot pinned now).  One at a time."""
        if self._closed:
            raise XQueryError("this session is closed")
        if self.transaction_active:
            raise XQueryError(
                "a transaction is already active on this session; "
                "commit or roll it back first"
            )
        self._txn = Transaction(self)
        return self._txn

    def _current(self) -> Transaction:
        if self._txn is not None and self._txn.active:
            return self._txn
        return self.begin()

    def execute(
        self,
        query: str,
        bindings: Mapping | None = None,
        **kwargs,
    ) -> "QueryResult":
        """Run a statement in the current transaction (auto-begins)."""
        return self._current().execute(query, bindings, **kwargs)

    def commit(self) -> None:
        """Commit the current transaction (error when none is open)."""
        if not self.transaction_active:
            raise XQueryError("no transaction is active on this session")
        assert self._txn is not None
        self._txn.commit()

    def rollback(self) -> None:
        """Roll back the current transaction (no-op when none is open)."""
        if self._txn is not None:
            self._txn.rollback()

    @contextmanager
    def transaction(self):
        """Scope one transaction: commit on clean exit, roll back on
        exception (and on an explicit in-scope ``rollback()``, commit
        is skipped)."""
        txn = self.begin()
        try:
            yield txn
        except BaseException:
            if txn.active:
                txn.rollback()
            raise
        if txn.active:
            txn.commit()

    def close(self) -> None:
        """Roll back any open transaction and refuse further use."""
        if self._txn is not None:
            self._txn.rollback()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "in-transaction" if self.transaction_active else "idle"
        )
        return f"Session(engine={type(self._engine).__name__}, {state})"
