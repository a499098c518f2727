"""The concurrent serving front end: worker pool, routing, deadlines.

:class:`ConcurrentExecutor` turns a single :class:`~repro.engine.Engine`
into a thread-safe query service.  Its contract follows directly from the
paper's semantics:

* A **read-only** query (the effect analysis of
  :mod:`repro.algebra.properties` proves neither updates nor explicit
  snaps) observes one fixed store between snapshot boundaries.  The
  executor gives it exactly that — a
  :class:`~repro.concurrent.snapshot.StoreSnapshot` — and runs it with a
  private evaluator, **holding no lock at all**.  Any number of readers
  share one snapshot, and with it the snapshot's memoized string values,
  name-index lookups and order keys.
* An **updating** query serializes through the store's write lock, so
  its snap applications are atomic with respect to every other query.
  The snapshot readers never see a half-applied Δ: they read the
  pre-image overlay the mutators populate *before* touching a record.
* Requests flow through a **bounded queue** with per-request deadlines.
  A full queue sheds immediately with
  :class:`~repro.errors.ServiceOverloadedError`; a request whose
  deadline passes while queued is failed without running at all; a
  running query polls its deadline cooperatively and discards its
  pending Δ when it fires (see :mod:`repro.concurrent.control`).

Service-level evidence — queue depth, lock waits, snapshot age,
timeout/cancel/shed counts, routing decisions — aggregates into a
:class:`~repro.obs.tracer.SharedTracer` exposed as :attr:`metrics`.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Mapping
from concurrent.futures import Future
from typing import TYPE_CHECKING

from repro.concurrent.control import CancelToken, ExecutionControl
from repro.concurrent.snapshot import StoreSnapshot
from repro.errors import ServiceOverloadedError
from repro.obs.tracer import SharedTracer
from repro.prepared import rehandled_fork, run_module
from repro.xdm.nodes import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Engine, ExecutionOptions, QueryResult
    from repro.prepared import PreparedQuery
    from repro.resilience.health import HealthReport
    from repro.resilience.policy import ResiliencePolicy
    from repro.semantics.evaluator import Evaluator


class ConcurrencyMetrics:
    """A read-only window onto an executor's aggregated evidence.

    Counters (``concurrent.*``): ``requests``, ``reads_snapshot``,
    ``reads_serialized``, ``writes``, ``timeouts``, ``cancelled``,
    ``shed``, ``expired_in_queue``, ``snapshots_built``,
    ``result_cache_hits``.  Observations:
    ``queue_depth`` (at submit), ``lock_wait_ms`` (store lock
    acquisitions that blocked), ``snapshot_age_ms`` (staleness of the
    shared snapshot at each use).
    """

    def __init__(self, tracer: SharedTracer):
        self.tracer = tracer

    def counter(self, name: str) -> int:
        return self.tracer.snapshot_counters().get(f"concurrent.{name}", 0)

    def counters(self) -> dict[str, int]:
        return self.tracer.snapshot_counters()

    def observations(self) -> dict[str, dict]:
        return self.tracer.snapshot_observations()

    def __repr__(self) -> str:
        return f"ConcurrencyMetrics({self.counters()!r})"


class _Request:
    """One queued query execution."""

    __slots__ = (
        "query",
        "bindings",
        "options",
        "control",
        "future",
        "enqueued_at",
    )

    def __init__(
        self,
        query: str,
        bindings: Mapping | None,
        options: "ExecutionOptions",
        control: ExecutionControl | None,
        future: "Future[QueryResult]",
    ):
        self.query = query
        self.bindings = bindings
        self.options = options
        self.control = control
        self.future = future
        self.enqueued_at = time.perf_counter()


class _SnapshotBundle:
    """A snapshot plus the re-handled dynamic context that goes with it.

    Global bindings and the fn:doc catalog hold :class:`Node` handles
    into the *live* store; a query evaluated against a snapshot needs
    the same values with handles into the snapshot.  The bundle's
    ``evaluator`` (a :func:`~repro.prepared.rehandled_fork`) carries
    both, and every read forks it once more.  The bundle also records
    the store version it was built from; it is created while holding
    the write lock so no mutator is mid-flight.
    """

    __slots__ = ("snapshot", "evaluator", "version", "next_id",
                 "created_at", "refs", "retired", "results", "inflight",
                 "results_mutex")

    def __init__(
        self,
        snapshot: StoreSnapshot,
        evaluator: "Evaluator",
        version: int,
        next_id: int,
    ):
        self.snapshot = snapshot
        self.evaluator = evaluator
        self.version = version
        self.next_id = next_id
        self.created_at = time.perf_counter()
        # In-flight reader count and retirement flag, both guarded by
        # the executor's bundle mutex: the snapshot must keep receiving
        # pre-images until the last reader is done with it.
        self.refs = 0
        self.retired = False
        # Per-bundle result cache: a pure query with equal bindings over
        # an immutable snapshot is deterministic, so its result can be
        # served again without re-evaluating.  Invalidation is exact and
        # free — every write retires the bundle, cache and all.
        # ``inflight`` single-flights concurrent identical misses: the
        # first request computes, the rest wait on its event instead of
        # redundantly evaluating the same query (on one interpreter the
        # duplicates would serialize anyway — pure wasted work).
        self.results: dict = {}
        self.inflight: dict = {}
        self.results_mutex = threading.Lock()


class ConcurrentExecutor:
    """Serve queries against one engine from many threads.

    Parameters:
        engine: the engine (store + bindings + functions) to serve.
        workers: worker-thread count (default 4).
        queue_size: bounded request-queue capacity; a submit against a
            full queue raises :class:`ServiceOverloadedError` immediately.
        default_timeout_ms: deadline applied to requests whose options
            carry none (None = no default deadline).
        reads: ``"snapshot"`` (default) runs provably read-only queries
            lock-free against a shared copy-on-write snapshot;
            ``"serialized"`` runs them under the write lock like any
            updating query (the degenerate mode — correct, slower, and
            the baseline the benchmark compares against).
        max_snapshot_age_ms: rebuild the shared snapshot when it is older
            than this even if the store version is unchanged (None =
            only rebuild on version change).
        result_cache_size: per-snapshot result-cache capacity (0
            disables).  A pure query with equal bindings against one
            immutable snapshot is deterministic, so the executor serves
            repeats of a hot read from the cache; the cache dies with
            its bundle, so any write invalidates it exactly.
        resilience: a :class:`~repro.resilience.ResiliencePolicy`.  Its
            ``limits`` become per-query admission guards (pre-parse text
            bounds at submit, store-node and pending-Δ budgets riding the
            request's execution control); its ``max_wait_ms`` turns the
            binary queue-full shed into latency-aware load shedding; its
            ``retry`` wraps the write path so transient durability
            faults are retried with backoff inside the request's
            deadline.  ``None`` keeps all three off; sheds still carry
            the structured overload detail either way.
    """

    def __init__(
        self,
        engine: "Engine",
        workers: int = 4,
        queue_size: int = 64,
        default_timeout_ms: float | None = None,
        reads: str = "snapshot",
        max_snapshot_age_ms: float | None = None,
        result_cache_size: int = 256,
        resilience: "ResiliencePolicy | None" = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("need a queue capacity of at least one")
        if reads not in ("snapshot", "serialized"):
            raise ValueError("reads must be 'snapshot' or 'serialized'")
        self.engine = engine
        self.reads = reads
        self.default_timeout_ms = default_timeout_ms
        self.max_snapshot_age_ms = max_snapshot_age_ms
        self.result_cache_size = result_cache_size
        self.resilience = resilience
        self.tracer = SharedTracer()
        self.metrics = ConcurrencyMetrics(self.tracer)
        from repro.resilience.admission import AdmissionController

        # Always present: without a policy it degenerates to the old
        # binary queue-full shed, but the refusal is structured either
        # way (queue depth, capacity, retry-after hint).
        self.admission = AdmissionController(
            queue_size,
            max_wait_ms=resilience.max_wait_ms if resilience else None,
            limits=resilience.limits if resilience else None,
            tracer=self.tracer,
        )
        self._limits = (
            resilience.limits
            if resilience is not None and resilience.limits.enabled
            else None
        )
        self._retry = resilience.retry if resilience is not None else None
        # Feed store-lock wait times into the shared evidence.
        engine.store.lock.on_wait = self._on_lock_wait
        self._queue: "queue.Queue[_Request | None]" = queue.Queue(queue_size)
        self._bundle: _SnapshotBundle | None = None
        self._bundle_mutex = threading.Lock()
        self._shutdown = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # -- public API --------------------------------------------------------

    def submit(
        self,
        query: str,
        bindings: Mapping | None = None,
        *,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        options: "ExecutionOptions | None" = None,
    ) -> "Future[QueryResult]":
        """Enqueue *query*; returns a Future resolving to a QueryResult.

        Raises :class:`ServiceOverloadedError` right away when the
        admission controller sheds the request — queue full, or (with a
        latency target configured) the observed queue wait says the
        request would miss its deadline anyway.  The refusal carries the
        queue depth, capacity, the request's wait budget and a
        ``retry_after_ms`` hint.  With admission limits configured the
        query text is also bounds-checked here, before any parse work.
        The deadline — explicit, from *options*, or the executor default
        — covers queue wait *plus* execution.
        """
        if self._shutdown:
            raise RuntimeError("executor has been shut down")
        from repro.engine import _merge_options

        opts = _merge_options(
            options,
            timeout_ms=timeout_ms,
            cancel=cancel,
        )
        if opts.timeout_ms is None and self.default_timeout_ms is not None:
            from dataclasses import replace

            opts = replace(opts, timeout_ms=self.default_timeout_ms)
        tracer = self.tracer
        tracer.count("concurrent.requests")
        try:
            self.admission.admit(
                self._queue.qsize(),
                wait_budget_ms=opts.timeout_ms,
                query=query,
            )
        except ServiceOverloadedError:
            tracer.count("concurrent.shed")
            raise
        guard = (
            self._limits.guard(self.engine.store)
            if self._limits is not None
            else None
        )
        control = ExecutionControl.from_options(opts, guard=guard)
        future: "Future[QueryResult]" = Future()
        request = _Request(query, bindings, opts, control, future)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            # Raced past the admission check into a queue that filled
            # meanwhile: same structured refusal.
            tracer.count("concurrent.shed")
            raise ServiceOverloadedError(
                f"request queue is full ({self._queue.maxsize} pending); "
                "request shed",
                queue_depth=self._queue.maxsize,
                queue_capacity=self._queue.maxsize,
                wait_budget_ms=opts.timeout_ms,
                retry_after_ms=self.admission.retry_after_ms(),
            ) from None
        tracer.observe("concurrent.queue_depth", self._queue.qsize())
        return future

    def execute(
        self,
        query: str,
        bindings: Mapping | None = None,
        *,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        options: "ExecutionOptions | None" = None,
    ) -> "QueryResult":
        """Blocking submit: enqueue, wait, return (or raise)."""
        future = self.submit(
            query,
            bindings,
            timeout_ms=timeout_ms,
            cancel=cancel,
            options=options,
        )
        return future.result()

    def session(self, **kwargs):
        """Open a transactional :class:`~repro.txn.Session` on the
        wrapped engine.

        Same keyword surface as :meth:`Engine.session`.  The session
        inherits the executor's shared tracer and admission limits
        unless overridden, and every commit invalidates the executor's
        read-snapshot bundle (readers re-snapshot and see the committed
        state).  Transactions run in the caller's thread — statements
        read a private MVCC view without touching the worker pool; only
        the commit itself takes the store write lock, interleaving with
        the workers' writes.
        """
        caller_hook = kwargs.pop("on_commit", None)
        kwargs.setdefault("tracer", self.tracer)
        if self._limits is not None:
            kwargs.setdefault("limits", self._limits)

        def after_commit() -> None:
            self.invalidate_snapshot()
            if caller_hook is not None:
                caller_hook()

        return self.engine.session(on_commit=after_commit, **kwargs)

    def health(self) -> "HealthReport":
        """A structured readiness report for the serving stack.

        Starts from the wrapped engine's report (``engine`` section,
        plus ``durability``/``circuit`` for a
        :class:`~repro.durability.DurableEngine`) and adds a ``serving``
        section — queue depth/capacity, workers, shed/timeout/expiry
        counters — and the admission controller's snapshot.  UNHEALTHY
        once the executor is shut down.
        """
        from repro.resilience.health import UNHEALTHY, HealthReport

        health = getattr(self.engine, "health", None)
        report = health() if health is not None else HealthReport()
        counters = self.tracer.snapshot_counters()
        report.sections["serving"] = {
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "workers": len(self._workers),
            "shutdown": self._shutdown,
            "requests": counters.get("concurrent.requests", 0),
            "shed": counters.get("concurrent.shed", 0),
            "timeouts": counters.get("concurrent.timeouts", 0),
            "cancelled": counters.get("concurrent.cancelled", 0),
            "expired_in_queue": counters.get(
                "concurrent.expired_in_queue", 0
            ),
            "retries": counters.get("resilience.retry.retries", 0),
        }
        report.sections["admission"] = self.admission.to_dict()
        if self._shutdown:
            report.worsen(UNHEALTHY)
        return report

    def invalidate_snapshot(self) -> None:
        """Force the next read-only query onto a fresh snapshot.

        The executor notices store mutations made through it (the store
        version changes); call this after mutating the engine *directly*
        (``engine.bind``, ``load_document``, …) while the executor is
        serving."""
        with self._bundle_mutex:
            self._drop_bundle_locked()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; drain workers; release the snapshot."""
        if self._shutdown:
            return
        self._shutdown = True
        for _ in self._workers:
            self._queue.put(None)  # one stop token per worker
        if wait:
            for thread in self._workers:
                thread.join()
        with self._bundle_mutex:
            self._drop_bundle_locked()
        if self.engine.store.lock.on_wait is self._on_lock_wait:
            self.engine.store.lock.on_wait = None

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- internals ---------------------------------------------------------

    def _on_lock_wait(self, kind: str, waited_s: float) -> None:
        self.tracer.observe("concurrent.lock_wait_ms", waited_s * 1000.0)

    def _worker_loop(self) -> None:
        while True:
            request = self._queue.get()
            if request is None:
                return
            future = request.future
            waited_ms = (time.perf_counter() - request.enqueued_at) * 1000.0
            # Measured queue wait feeds the admission controller's EWMA:
            # the load-shedding decision is driven by what the queue
            # actually does, not by a static depth threshold.
            self.admission.observe_wait(waited_ms)
            self.tracer.observe("concurrent.queue_wait_ms", waited_ms)
            if not future.set_running_or_notify_cancel():
                continue  # cancelled via the Future while queued
            control = request.control
            if control is not None and control.expired():
                # Don't run work that is already dead — fail it with the
                # same typed error an in-flight expiry would raise.
                self.tracer.count("concurrent.expired_in_queue")
                try:
                    control.check()
                except Exception as exc:
                    self._count_interrupt(exc)
                    future.set_exception(exc)
                continue
            try:
                result = self._run(request)
            except Exception as exc:
                self._count_interrupt(exc)
                future.set_exception(exc)
            else:
                future.set_result(result)

    def _count_interrupt(self, exc: Exception) -> None:
        from repro.errors import QueryCancelledError, QueryTimeoutError

        if isinstance(exc, QueryTimeoutError):
            self.tracer.count("concurrent.timeouts")
        elif isinstance(exc, QueryCancelledError):
            self.tracer.count("concurrent.cancelled")

    def _run(self, request: _Request) -> "QueryResult":
        engine = self.engine
        options = request.options
        prepared = engine.prepare(request.query, semantics=options.semantics)
        if self.reads == "snapshot" and prepared.is_readonly():
            self.tracer.count("concurrent.reads_snapshot")
            return self._run_readonly(prepared, request)
        # Updating (or deliberately serialized) path: exclusive access.
        if prepared.is_readonly():
            self.tracer.count("concurrent.reads_serialized")
        else:
            self.tracer.count("concurrent.writes")

        def attempt() -> "QueryResult":
            # The submit-time control: its deadline includes queue wait.
            with engine.store.lock.write_locked():
                return prepared.execute(
                    request.bindings, options=options,
                    _control=request.control,
                )

        try:
            if self._retry is not None and not prepared.is_readonly():
                # Transient durability faults (journal EIO, shed load)
                # are retried with backoff inside the request's own
                # deadline: each attempt re-acquires the lock and
                # re-runs the query — safe because a failed snap rolled
                # the store back and journaled nothing.
                return self._retry.call(attempt, tracer=self.tracer)
            return attempt()
        finally:
            # The store may have changed; retire the bundle so readers
            # re-snapshot.  Outside the write lock: bundle building takes
            # bundle-mutex -> write-lock, so taking them in the opposite
            # order here would deadlock.
            with self._bundle_mutex:
                self._maybe_refresh_bundle_locked()
            # Durability hook: a DurableEngine folds its journal into a
            # fresh checkpoint once it crosses the size bound.  Also
            # outside the write lock — compaction re-acquires it.
            maybe_compact = getattr(engine, "maybe_compact", None)
            if maybe_compact is not None:
                maybe_compact()

    # -- the lock-free read path -------------------------------------------

    def _run_readonly(
        self, prepared: "PreparedQuery", request: _Request
    ) -> "QueryResult":
        from repro.engine import QueryResult

        bundle = self._acquire_bundle()
        try:
            self.tracer.observe(
                "concurrent.snapshot_age_ms",
                (time.perf_counter() - bundle.created_at) * 1000.0,
            )
            key = self._result_key(request)
            lead_event = None
            if key is not None:
                while True:
                    with bundle.results_mutex:
                        hit = bundle.results.get(key)
                        if hit is not None:
                            self.tracer.count(
                                "concurrent.result_cache_hits"
                            )
                            return QueryResult(list(hit), self.engine)
                        event = bundle.inflight.get(key)
                        if event is None:
                            lead_event = threading.Event()
                            bundle.inflight[key] = lead_event
                            break
                    # Single-flight: an identical request is already
                    # evaluating on this snapshot; wait for its result
                    # instead of redundantly recomputing it.  Short wait
                    # slices keep our own deadline/token responsive, and
                    # if the leader failed we loop around and lead.
                    event.wait(0.05)
                    if request.control is not None:
                        request.control.check()
            try:
                # A fork over the bundle: nothing here touches the
                # engine's shared evaluator.  Result handles below the
                # snapshot ceiling are re-pointed at the live store;
                # constructed nodes keep their snapshot handles (the
                # snapshot outlives its release and stays readable).
                snapshot = bundle.snapshot
                base = bundle.evaluator
                result = run_module(
                    base.fork(snapshot, dict(base.globals)),
                    prepared,
                    request.bindings,
                    request.options,
                    control=request.control,
                )
                result.items = [
                    Node(self.engine.store, item.nid)
                    if isinstance(item, Node)
                    and not snapshot._is_local(item.nid)
                    else item
                    for item in result.items
                ]
                if key is not None:
                    with bundle.results_mutex:
                        if len(bundle.results) < self.result_cache_size:
                            bundle.results[key] = list(result.items)
                return result
            finally:
                if lead_event is not None:
                    with bundle.results_mutex:
                        bundle.inflight.pop(key, None)
                    lead_event.set()
        finally:
            self._release_bundle(bundle)

    def _result_key(self, request: _Request) -> tuple | None:
        """The result-cache key for *request*, or None when uncacheable.

        Cacheable means: caching is on, the call wants a plain result
        (no per-call stats/explain evidence), and every binding is an
        immutable atomic — a Node binding pins store identity and a
        mutable value could change between equal-looking requests, so
        both bypass the cache (correct, just uncached).
        """
        if self.result_cache_size <= 0:
            return None
        options = request.options
        if options.collect_stats or options.explain:
            return None
        merged: dict = {}
        if options.bindings:
            merged.update(options.bindings)
        if request.bindings:
            merged.update(request.bindings)
        for value in merged.values():
            if not isinstance(value, (str, int, float)):
                return None
        return (
            request.query,
            options.semantics,
            tuple(sorted(merged.items())),
        )

    def _acquire_bundle(self) -> _SnapshotBundle:
        """Pin the current bundle (building a fresh one if stale).

        Pinning (refs) keeps the snapshot registered with the store —
        still receiving pre-images — until the last in-flight reader
        releases it; releasing the snapshot while a reader is mid-query
        would let subsequent writes go unrecorded and tear its view."""
        store = self.engine.store
        with self._bundle_mutex:
            bundle = self._bundle
            if bundle is None or not self._bundle_fresh(bundle, store):
                bundle = self._build_bundle_locked()
            bundle.refs += 1
            return bundle

    def _release_bundle(self, bundle: _SnapshotBundle) -> None:
        with self._bundle_mutex:
            bundle.refs -= 1
            if bundle.retired and bundle.refs == 0:
                self.engine.store.release_snapshot(bundle.snapshot)

    def _bundle_fresh(self, bundle: _SnapshotBundle, store) -> bool:
        if bundle.snapshot.detached:
            return False
        if bundle.version != store._version:
            return False
        if bundle.next_id != store._next_id:
            return False
        # New global names (engine.bind of a fresh name, a module import
        # declaring library variables) without any node construction slip
        # past the version checks; the cheap length compare catches them.
        if len(bundle.evaluator.globals) != len(
            self.engine.evaluator.globals
        ):
            return False
        if self.max_snapshot_age_ms is not None:
            age_ms = (time.perf_counter() - bundle.created_at) * 1000.0
            if age_ms > self.max_snapshot_age_ms:
                return False
        return True

    def _build_bundle_locked(self) -> _SnapshotBundle:
        """Build a fresh bundle; caller holds ``_bundle_mutex``.

        The store write lock is held for the (O(1) + globals-copy) build
        so no mutator is mid-record and the globals/documents copies are
        mutually consistent with the snapshot."""
        engine = self.engine
        store = engine.store
        with store.lock.write_locked():
            self._drop_bundle_locked()
            snapshot = store.begin_snapshot()
            bundle = _SnapshotBundle(
                snapshot,
                rehandled_fork(engine.evaluator, snapshot),
                version=store._version,
                next_id=store._next_id,
            )
        self.tracer.count("concurrent.snapshots_built")
        self._bundle = bundle
        return bundle

    def _maybe_refresh_bundle_locked(self) -> None:
        """After a write: retire a stale bundle so readers re-snapshot.

        (Lazily — the next reader builds the new one; back-to-back
        writes then cost one snapshot, not one each.)"""
        bundle = self._bundle
        if bundle is not None and not self._bundle_fresh(
            bundle, self.engine.store
        ):
            self._drop_bundle_locked()

    def _drop_bundle_locked(self) -> None:
        bundle = self._bundle
        if bundle is not None:
            bundle.retired = True
            if bundle.refs == 0:
                self.engine.store.release_snapshot(bundle.snapshot)
            self._bundle = None
