"""The paper's Web-service use case (Section 2), as a reusable library.

An XQuery! module implements the service calls; this wrapper owns the
engine, loads the auction data and exposes Python methods.  The module
text below is the paper's code (Sections 2.2–2.5) completed with the
pieces the paper elides (``archivelog``), and exercises every XQuery!
feature the use case motivates:

* an update (the log insert) *inside a function that also returns a value*
  — Section 2.2;
* ``snap`` to make the insert visible to the rollover check in the same
  call — Section 2.3;
* a nested-snap counter (``nextid``) usable under any outer snap —
  Section 2.5.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING

from repro.concurrent.control import CancelToken
from repro.concurrent.executor import ConcurrentExecutor
from repro.engine import Engine, QueryResult
from repro.xmark import XMarkConfig, generate_auction_xml

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability import DurableEngine

SERVICE_MODULE = """
declare variable $d := element counter { 0 };

declare function nextid() as xs:integer {
  snap { replace { $d/text() } with { $d + 1 },
         $d }
};

declare function archivelog($log, $archive) {
  snap insert { <batch size="{count($log/logentry)}">{ $log/logentry }</batch> }
       into { $archive }
};

declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return (
    (::: Logging code :::)
    let $name := $auction//person[@id = $userid]/name
    return
      (snap insert { <logentry id="{nextid()}"
                      user="{$name}"
                      itemid="{$itemid}"/> }
            into { $log },
       if (count($log/logentry) >= $maxlog)
       then (archivelog($log, $archive),
             snap delete { $log/logentry })
       else ()),
    (::: End logging code :::)
    $item
  )
};

declare function get_item_nolog($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return $item
};

declare function bids_for($bids, $itemid) {
  $bids/bid[@itemid = $itemid]
};

declare function highest_bid($bids, $itemid) {
  max(for $b in $bids/bid[@itemid = $itemid]
      return number($b/@amount))
};

declare function watchers($watchlist, $itemid) {
  $watchlist/watch[@itemid = $itemid]
};
"""


class AuctionService:
    """A tiny auction 'Web service' whose calls are XQuery! functions.

    Parameters:
        auction_xml: the auction document; generated at a small default
            scale when omitted.
        maxlog: rollover threshold — after this many log entries the log
            is summarized into the archive (Section 2.3).
        durable_path: when given, the service state (auction document,
            log, archive, counter) lives in a durable directory — every
            committed snap is journaled before the call returns, and
            restarting the service against the same path recovers the
            log and counter exactly where the last acknowledged call
            left them (see :mod:`repro.durability`).  If the directory
            already holds a store, *auction_xml* and *maxlog* are
            ignored in favour of the recovered state.
        durable_options: forwarded to
            :class:`~repro.durability.DurableEngine` (``fsync``,
            compaction thresholds, ``resilience=`` — a
            :class:`~repro.resilience.ResiliencePolicy` puts a circuit
            breaker on the journal, so a failing disk degrades the
            service to read-only instead of failing every call the
            hard way, ...).
    """

    def __init__(
        self,
        auction_xml: str | None = None,
        maxlog: int = 10,
        durable_path: str | None = None,
        **durable_options,
    ):
        self.durable: "DurableEngine | None" = None
        if durable_path is not None:
            from repro.durability import DurableEngine
            from repro.durability import manifest as _manifest

            if _manifest.exists(durable_path):
                # Recovery: the checkpoint+journal pair holds the store,
                # the documents and the global bindings, but *functions*
                # are not persisted — re-register them by reloading the
                # module on the inner engine (no auto-checkpoint), then
                # put back the recovered bindings that the module's
                # variable initializers clobbered ($d must keep its
                # counter, not reset to 0).  The corrected state is then
                # folded into a fresh checkpoint so a crash right after
                # restart recovers the same thing.
                self.durable = DurableEngine(durable_path, **durable_options)
                inner = self.durable.engine
                # Held copies: the reload frees what no binding holds.
                recovered_globals = {
                    name: inner.variable(name)
                    for name in list(inner.evaluator.globals)
                }
                inner.load_module(SERVICE_MODULE)
                inner.evaluator.globals.update(recovered_globals)
                # Directories persisted before the bid/watchlist
                # endpoints existed lack these roots; give them empty
                # ones so the transactional endpoints work post-upgrade.
                for name, fragment in (
                    ("bids", "<bids/>"),
                    ("watchlist", "<watchlist/>"),
                ):
                    if name not in inner.evaluator.globals:
                        inner.bind(name, inner.parse_fragment(fragment))
                self.durable.checkpoint()
                self.engine = self.durable
            else:
                inner = Engine()
                self._setup(inner, auction_xml, maxlog)
                self.durable = DurableEngine(
                    durable_path, engine=inner, **durable_options
                )
                self.engine = self.durable
        else:
            self.engine = Engine()
            self._setup(self.engine, auction_xml, maxlog)
        # Server discipline: each service call is one *prepared*,
        # parameterized query — the frontend runs once here, and per-call
        # arguments are bound as data, never spliced into query text (the
        # XQJ bindString idiom; immune to query injection by construction).
        self._get_item = self.engine.prepare("get_item($itemid, $userid)")
        self._get_item_nolog = self.engine.prepare(
            "get_item_nolog($itemid, $userid)"
        )
        self._next_id = self.engine.prepare("data(nextid())")

    @staticmethod
    def _setup(engine: Engine, auction_xml: str | None, maxlog: int) -> None:
        if auction_xml is None:
            auction_xml = generate_auction_xml(XMarkConfig())
        engine.load_document("auction", auction_xml)
        engine.bind("log", engine.parse_fragment("<log/>"))
        engine.bind("archive", engine.parse_fragment("<archive/>"))
        engine.bind("bids", engine.parse_fragment("<bids/>"))
        engine.bind("watchlist", engine.parse_fragment("<watchlist/>"))
        engine.bind("maxlog", maxlog)
        engine.load_module(SERVICE_MODULE)

    def close(self) -> None:
        """Close the durable backend, if any (no-op otherwise)."""
        if self.durable is not None:
            self.durable.close()

    def health(self):
        """The backing engine's health report (durable or in-memory)."""
        return self.engine.health()

    # -- service calls ----------------------------------------------------

    def get_item(self, itemid: str, userid: str) -> QueryResult:
        """The logged service call of Section 2.2/2.3."""
        result = self._get_item.execute(
            bindings={"itemid": itemid, "userid": userid}
        )
        # Prepared execution bypasses DurableEngine.execute, so the
        # journal-size check rides on the service call instead.
        if self.durable is not None:
            self.durable.maybe_compact()
        return result

    def get_item_nolog(self, itemid: str, userid: str) -> QueryResult:
        """The original, log-free implementation (baseline)."""
        return self._get_item_nolog.execute(
            bindings={"itemid": itemid, "userid": userid}
        )

    def next_id(self) -> int:
        """Expose the nested-snap counter of Section 2.5."""
        value = int(self._next_id.execute().strings()[0])
        if self.durable is not None:
            self.durable.maybe_compact()
        return value

    # -- transactional endpoints ------------------------------------------

    def place_bid(self, itemid: str, userid: str, amount: float) -> bool:
        """Place a bid — accepted only if it beats every existing bid.

        The read (current high bid) and the conditional write (the
        insert) run in **one MVCC transaction**: two racing bidders each
        see a consistent snapshot, and the first committer wins — the
        loser's commit aborts with
        :class:`~repro.errors.TransactionConflictError` (REPR0008,
        transient: retry re-reads the new high bid).  On a durable
        service the accepted bid is journaled atomically before this
        returns True.  Returns False for a bid that does not beat the
        current high (the transaction rolls back; no trace anywhere).
        """
        with self.engine.session() as session:
            with session.transaction() as txn:
                beaten = txn.execute(
                    "count($bids/bid[@itemid = $itemid]"
                    "[number(@amount) >= $amount])",
                    bindings={"itemid": itemid, "amount": float(amount)},
                ).first_value()
                if int(beaten) > 0:
                    txn.rollback()
                    return False
                txn.execute(
                    'snap insert { <bid itemid="{$itemid}" '
                    'user="{$userid}" amount="{$amount}"/> } '
                    "into { $bids }",
                    bindings={
                        "itemid": itemid,
                        "userid": userid,
                        "amount": float(amount),
                    },
                )
            return True

    def add_watch(self, itemid: str, userid: str) -> bool:
        """Add *userid* to *itemid*'s watch list, transactionally.

        Idempotent: returns False (and writes nothing) when the pair is
        already present.  The duplicate check and the insert share one
        snapshot, so two racing adds of the same pair cannot both land —
        the second either sees the first (returns False) or conflicts on
        commit (REPR0008, retry then sees it).
        """
        with self.engine.session() as session:
            with session.transaction() as txn:
                present = txn.execute(
                    "count($watchlist/watch[@itemid = $itemid]"
                    "[@user = $userid])",
                    bindings={"itemid": itemid, "userid": userid},
                ).first_value()
                if int(present) > 0:
                    txn.rollback()
                    return False
                txn.execute(
                    'snap insert { <watch itemid="{$itemid}" '
                    'user="{$userid}"/> } into { $watchlist }',
                    bindings={"itemid": itemid, "userid": userid},
                )
            return True

    def highest_bid(self, itemid: str) -> float | None:
        """The current high bid for *itemid* (None when no bids)."""
        value = self.engine.execute(
            "highest_bid($bids, $itemid)", bindings={"itemid": itemid}
        ).first_value()
        return None if value is None else float(value)

    def bid_count(self, itemid: str) -> int:
        return int(
            self.engine.execute(
                "count(bids_for($bids, $itemid))",
                bindings={"itemid": itemid},
            ).first_value()
        )

    def watchers(self, itemid: str) -> list[str]:
        return self.engine.execute(
            "for $w in watchers($watchlist, $itemid) "
            "return string($w/@user)",
            bindings={"itemid": itemid},
        ).strings()

    # -- observability ------------------------------------------------------

    def log_entries(self) -> int:
        return int(self.engine.execute("count($log/logentry)").first_value())

    def archive_batches(self) -> int:
        return int(self.engine.execute("count($archive/batch)").first_value())

    def archived_entries(self) -> int:
        return int(
            self.engine.execute(
                "count($archive/batch/logentry)"
            ).first_value()
        )

    def log_xml(self) -> str:
        return self.engine.execute("$log").serialize()

    def archive_xml(self) -> str:
        return self.engine.execute("$archive").serialize()


class AuctionFrontEnd:
    """A concurrent serving layer over :class:`AuctionService`.

    The paper frames the auction service as a Web service handling many
    client requests; this front end adds the serving half the paper
    leaves implicit: a worker pool with a bounded request queue,
    per-request deadlines, and graceful degradation under load.

    * ``get_item_nolog`` is provably read-only, so the executor routes
      it to the lock-free snapshot path — concurrent lookups share one
      frozen view and its memoized derived data.
    * ``get_item`` inserts a log entry (and may roll the log over), so
      it serializes through the store's write lock; its snaps stay
      atomic and readers never see a torn log.
    * An overloaded queue sheds requests fast with a *structured*
      :class:`~repro.errors.ServiceOverloadedError` — queue depth,
      capacity, the request's wait budget and a ``retry_after_ms``
      backoff hint, all machine-readable via ``to_dict()`` — instead of
      building an unbounded backlog.  A request that exceeds its
      deadline fails with :class:`~repro.errors.QueryTimeoutError` —
      queued or mid-execution — leaving the store untouched by its
      pending Δ.
    * With a ``resilience`` policy, admission limits bound what one
      request may consume, load shedding becomes latency-aware, and
      transient durability faults are retried with backoff (see
      :class:`~repro.resilience.ResiliencePolicy`).
    * Reads flow through a transport-agnostic
      :class:`~repro.cluster.QueryRouter`: with no ``cluster`` the
      router holds a single in-process backend and behaves
      byte-for-byte like the pre-cluster executor path; with a
      :class:`~repro.cluster.ClusterSupervisor` the provably read-only
      calls may be served by replica processes within a staleness
      bound (``max_lag_seq``), and after a failover writes are routed
      to the promoted replica — one code path for both topologies.

    Aggregated serving evidence (queue depth, lock waits, snapshot age,
    shed/timeout counts) is at :attr:`metrics`; :meth:`health` reports
    the whole stack — serving, admission, durability, circuit state.
    """

    def __init__(
        self,
        service: AuctionService | None = None,
        workers: int = 4,
        queue_size: int = 64,
        default_timeout_ms: float | None = 1000.0,
        reads: str = "snapshot",
        resilience=None,
        cluster=None,
        max_lag_seq: int | None = None,
    ):
        self.service = service if service is not None else AuctionService()
        self.executor = ConcurrentExecutor(
            self.service.engine,
            workers=workers,
            queue_size=queue_size,
            default_timeout_ms=default_timeout_ms,
            reads=reads,
            resilience=resilience,
        )
        self.metrics = self.executor.metrics
        self.cluster = cluster
        from repro.cluster.router import InProcessBackend, QueryRouter

        # One read path for both topologies: the in-process backend's
        # readiness tracks the supervisor's view of the primary, so a
        # dead primary's (still-running) worker pool never serves.
        self.router = QueryRouter(
            InProcessBackend(
                self.executor,
                is_ready=(
                    (lambda: cluster.primary_alive)
                    if cluster is not None
                    else None
                ),
            ),
            supervisor=cluster,
            default_max_lag_seq=max_lag_seq,
        )
        from repro.resilience.retry import RetryPolicy

        # Transactional endpoints retry on OCC aborts (REPR0008 is in
        # the default transient whitelist): each attempt reruns the
        # whole read-check-write transaction on a fresh snapshot.
        self._txn_retry = (
            resilience.retry
            if resilience is not None and resilience.retry is not None
            else RetryPolicy()
        )

    def health(self):
        """Whole-stack health: serving + admission + engine sections
        (plus durability and circuit state on a durable service)."""
        return self.executor.health()

    # -- asynchronous service calls ---------------------------------------

    def submit_query(
        self,
        query: str,
        bindings: dict | None = None,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        max_lag_seq: int | None = None,
    ) -> "Future[QueryResult]":
        """Submit arbitrary *query* text through the serving stack.

        Caller-supplied values go in *bindings* — bound as data through
        the parameter-binding boundary, never spliced into the query
        text.  This is the load driver's entry point; admission control
        and queue bounds apply exactly as for the named service calls.
        A *max_lag_seq* bound marks the query as a routable read: it
        may then be served by a replica within that staleness bound.
        """
        if max_lag_seq is not None:
            return self.router.submit_read(
                query,
                bindings,
                timeout_ms=timeout_ms,
                cancel=cancel,
                max_lag_seq=max_lag_seq,
            )
        return self.executor.submit(
            query,
            bindings=bindings,
            timeout_ms=timeout_ms,
            cancel=cancel,
        )

    def submit_get_item(
        self,
        itemid: str,
        userid: str,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
    ) -> "Future[QueryResult]":
        if self.cluster is not None and not self.cluster.primary_alive:
            # Failover write path: the promoted replica serves writes
            # over its channel; a router-pool thread waits on it.
            return self.router.submit_call(
                self.cluster.execute_write,
                "get_item($itemid, $userid)",
                {"itemid": itemid, "userid": userid},
                timeout_ms=timeout_ms,
            )
        return self.executor.submit(
            "get_item($itemid, $userid)",
            bindings={"itemid": itemid, "userid": userid},
            timeout_ms=timeout_ms,
            cancel=cancel,
        )

    def submit_get_item_nolog(
        self,
        itemid: str,
        userid: str,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        max_lag_seq: int | None = None,
    ) -> "Future[QueryResult]":
        return self.router.submit_read(
            "get_item_nolog($itemid, $userid)",
            {"itemid": itemid, "userid": userid},
            timeout_ms=timeout_ms,
            cancel=cancel,
            max_lag_seq=max_lag_seq,
        )

    # -- blocking convenience wrappers ------------------------------------

    def get_item(self, itemid: str, userid: str, **kwargs) -> QueryResult:
        return self.submit_get_item(itemid, userid, **kwargs).result()

    def get_item_nolog(self, itemid: str, userid: str, **kwargs) -> QueryResult:
        return self.submit_get_item_nolog(itemid, userid, **kwargs).result()

    # -- transactional endpoints -------------------------------------------

    def place_bid(self, itemid: str, userid: str, amount: float) -> bool:
        """Transactional bid (see :meth:`AuctionService.place_bid`),
        with OCC aborts retried under the front end's retry policy.
        Runs in the caller's thread: statements read a private snapshot
        without occupying a worker; only the commit takes the write
        lock."""
        return self._txn_retry.call(
            lambda: self.service.place_bid(itemid, userid, amount),
            tracer=self.executor.tracer,
        )

    def add_watch(self, itemid: str, userid: str) -> bool:
        """Transactional watch-list add, OCC-retried like
        :meth:`place_bid`."""
        return self._txn_retry.call(
            lambda: self.service.add_watch(itemid, userid),
            tracer=self.executor.tracer,
        )

    def shutdown(self, wait: bool = True) -> None:
        self.router.shutdown(wait=wait)
        self.executor.shutdown(wait=wait)

    def __enter__(self) -> "AuctionFrontEnd":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
