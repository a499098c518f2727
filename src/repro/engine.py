"""The public engine facade.

Typical use::

    from repro import Engine

    engine = Engine()
    engine.load_document("auction", xmark_xml_text)
    engine.bind("log", engine.parse_fragment("<log/>"))
    result = engine.execute('count($auction//person)')
    print(result.first_value())

``execute`` runs the full pipeline of the paper's Section 4.2: parse →
normalize → compile to the algebra and rewrite → evaluate, with the
implicit top-level ``snap`` wrapped around the query body (Section 2.3).
A body runs as a plan only where a guarded rewrite fired; every other
body runs as written.  Both run lowered to closures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Optional, Union

from repro.concurrent.control import CancelToken
from repro.errors import DynamicError, StaticError, XQueryError
from repro.lang import core_ast as core
from repro.lang.normalize import normalize, normalize_module
from repro.lang.simplify import simplify_module
from repro.lang.parser import parse_module
from repro.obs.report import ExplainReport, QueryStats, SlowQueryRecord
from repro.obs.tracer import Tracer, maybe_span
from repro.prepared import PreparedQuery, PreparedQueryCache, run_module
from repro.semantics.context import FunctionRegistry
from repro.semantics.evaluator import Evaluator
from repro.semantics.functions import default_registry
from repro.semantics.update import ApplySemantics
from repro.xdm.nodes import Node, held
from repro.xdm.store import Store
from repro.xdm.values import AtomicValue, Item, Sequence, item_string
from repro.xmlio.parser import parse_document, parse_fragment
from repro.xmlio.serializer import serialize_sequence


PythonValue = Union[None, bool, int, float, str, Node, AtomicValue, list, tuple]


@dataclass(frozen=True, kw_only=True)
class ExecutionOptions:
    """Per-call execution options, accepted uniformly by
    :meth:`Engine.execute`, :meth:`Engine.prepare`,
    :meth:`Engine.compile` and :meth:`PreparedQuery.execute`.

    All fields are keyword-only and the object is immutable, so an options
    value can be built once and shared across calls::

        opts = ExecutionOptions(use_indexes=False, collect_stats=True)
        result = engine.execute(query, options=opts)
        result.stats.phase_times_ms  # parse/compile/evaluate/snap-apply ...

    Individual keyword arguments on the engine methods override the
    corresponding field for that one call.

    Attributes:
        semantics: update-application semantics for this call's implicit
            top-level snap — 'ordered', 'nondeterministic' or
            'conflict-detection' (None = the engine default).
        bindings: values for free ``$variables``, visible to this call
            only (prepared-statement style).
        collect_stats: record phase spans, counters and observations;
            the result's ``stats`` is a :class:`~repro.obs.report.QueryStats`.
        explain: attach an :class:`~repro.obs.report.ExplainReport` to the
            result (plan before/after rewriting, rule firings, purity).
        timeout_ms: cooperative execution deadline in milliseconds.  The
            evaluator and the algebra's tuple pipeline poll the deadline
            at iteration boundaries; when it fires the call raises
            :class:`~repro.errors.QueryTimeoutError` and the pending
            update list is discarded (never half-applied).  None (the
            default) disables the check entirely.
        cancel: a :class:`~repro.concurrent.CancelToken`; firing it from
            any thread makes the call raise
            :class:`~repro.errors.QueryCancelledError` at its next check
            point, with the same discard-the-Δ guarantee.
        use_indexes: answer eligible descendant steps and value
            predicates from the store's structural and value indexes
            (see :mod:`repro.index`).  On by default; turning it off
            forces the sequential paths — results are identical either
            way (the equivalence the property suite checks).
        max_lag_seq: staleness bound for routed reads, in journal
            records behind the primary's committed watermark.  Only
            consulted by :class:`~repro.cluster.QueryRouter`: a read
            may be served by a replica at most this many records
            stale; when no backend qualifies the call fails with a
            transient :class:`~repro.errors.ReplicaLagError` rather
            than silently serving staler data.  ``0`` demands
            fully-caught-up state; None (the default) accepts any
            healthy backend.  Ignored on the in-process path (lag is
            zero by definition).
    """

    semantics: str | ApplySemantics | None = None
    bindings: Mapping[str, "PythonValue"] | None = None
    collect_stats: bool = False
    explain: bool = False
    timeout_ms: float | None = None
    cancel: "CancelToken | None" = None
    use_indexes: bool = True
    max_lag_seq: int | None = None

    def __post_init__(self) -> None:
        if self.semantics is not None and not isinstance(
            self.semantics, ApplySemantics
        ):
            ApplySemantics(self.semantics)  # raises ValueError when invalid
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive (or None)")
        if self.max_lag_seq is not None and self.max_lag_seq < 0:
            raise ValueError("max_lag_seq must be >= 0 (or None)")

    @property
    def resolved_semantics(self) -> ApplySemantics | None:
        """The semantics field as an :class:`ApplySemantics` (or None)."""
        if self.semantics is None or isinstance(self.semantics, ApplySemantics):
            return self.semantics
        return ApplySemantics(self.semantics)


_DEFAULT_OPTIONS = ExecutionOptions()


def _merge_options(
    options: ExecutionOptions | None, **overrides
) -> ExecutionOptions:
    """Resolve an options object against explicit keyword overrides.

    Explicit keywords (non-None) take precedence over the options object;
    omitted keywords fall back to the options fields, then to the
    :class:`ExecutionOptions` defaults.
    """
    base = options if options is not None else _DEFAULT_OPTIONS
    updates = {
        name: value for name, value in overrides.items() if value is not None
    }
    if updates:
        base = replace(base, **updates)
    return base


def to_sequence(value: PythonValue) -> Sequence:
    """Coerce a Python value into an XDM sequence."""
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        out: Sequence = []
        for item in value:
            out.extend(to_sequence(item))
        return out
    if isinstance(value, (Node, AtomicValue)):
        return [value]
    if isinstance(value, bool):
        return [AtomicValue.boolean(value)]
    if isinstance(value, int):
        return [AtomicValue.integer(value)]
    if isinstance(value, float):
        return [AtomicValue.double(value)]
    from decimal import Decimal

    if isinstance(value, Decimal):
        return [AtomicValue.decimal(value)]
    if isinstance(value, str):
        return [AtomicValue.string(value)]
    raise XQueryError(f"cannot convert {type(value).__name__} to an XDM value")


class QueryResult:
    """The value of a query, with conveniences for tests and examples.

    ``stats`` is a :class:`~repro.obs.report.QueryStats` when the query ran
    with ``collect_stats=True`` (None otherwise); ``explain`` is an
    :class:`~repro.obs.report.ExplainReport` when requested.

    The result's nodes are host handles: they share one pin, so their
    trees survive reclamation for as long as the host holds any of them
    (see :meth:`Engine.gc`).
    """

    # A host may keep many results (the benchmark harness keeps every
    # one), and each now carries a pin: without a per-instance dict a
    # kept result is no larger than before pins existed.
    __slots__ = ("items", "_engine", "stats", "explain")

    def __init__(
        self,
        items: Sequence,
        engine: "Engine",
        stats: Optional[QueryStats] = None,
        explain: Optional[ExplainReport] = None,
    ):
        self.items = held(items)
        self._engine = engine
        self.stats = stats
        self.explain = explain

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def serialize(self, indent: bool = False) -> str:
        """XML serialization of the result sequence."""
        return serialize_sequence(self.items, indent)

    def strings(self) -> list[str]:
        """fn:string of every item."""
        return [item_string(item) for item in self.items]

    def first_value(self):
        """The Python value of the first item (None when empty)."""
        if not self.items:
            return None
        item = self.items[0]
        if isinstance(item, AtomicValue):
            return item.value
        return item

    def values(self) -> list:
        """Python values of all atomic items; nodes stay as handles."""
        return [
            item.value if isinstance(item, AtomicValue) else item
            for item in self.items
        ]

    def __repr__(self) -> str:
        return f"QueryResult({self.serialize()!r})"


class Engine:
    """An XQuery! processor instance: one store, one set of bindings.

    Parameters:
        default_semantics: update-application semantics for the implicit
            top-level snap and any ``snap`` without an explicit keyword —
            'ordered' (default), 'nondeterministic' or 'conflict-detection'.
        trace_sink: callable receiving fn:trace messages.
        atomic_snaps: roll the store back when a snap's update list fails
            a precondition mid-application (failure containment).
        static_checks: validate variable scoping and function resolution
            before evaluating (catches typos before any update fires).
        prepared_cache_size: capacity of the prepared-query LRU that
            ``execute`` is transparently routed through (see ``prepare``).
        on_slow_query: callable receiving a
            :class:`~repro.obs.report.SlowQueryRecord` whenever a query
            (prepared or direct) takes at least ``slow_query_ms``
            milliseconds of wall time.  The record carries the query's
            stats when the call collected them.
        slow_query_ms: threshold for ``on_slow_query`` (default 100 ms).
        journal: a :class:`~repro.durability.Journal`; every snap
            application appends one durable record before it is
            acknowledged.  Usually installed by
            :class:`~repro.durability.DurableEngine`, which also owns
            recovery and checkpoint compaction.
    """

    def __init__(
        self,
        default_semantics: str = "ordered",
        trace_sink: Callable[[str], None] | None = None,
        atomic_snaps: bool = False,
        static_checks: bool = False,
        prepared_cache_size: int = 128,
        on_slow_query: Callable[[SlowQueryRecord], None] | None = None,
        slow_query_ms: float = 100.0,
        journal=None,
    ):
        self.store = Store()
        self.functions: FunctionRegistry = default_registry()
        self.evaluator = Evaluator(
            self.store, self.functions, trace_sink, atomic_snaps=atomic_snaps
        )
        self.evaluator.journal = journal
        self.default_semantics = ApplySemantics(default_semantics)
        self.static_checks = static_checks
        # Library-module system: uri -> source text, plus load bookkeeping.
        self._module_library: dict[str, str] = {}
        self._loaded_modules: dict[str, tuple[list, str | None]] = {}
        self._loading: set[str] = set()
        self.prepared_cache = PreparedQueryCache(prepared_cache_size)
        self.on_slow_query = on_slow_query
        self.slow_query_ms = slow_query_ms
        # Serializes preparation (frontend + prolog registration) and
        # module loading.  Two threads preparing the same query must not
        # each register the prolog's functions — the second registration
        # would bump the registry generation and evict every cached
        # prepared query, including the first thread's.  Reentrant:
        # preparing can recursively load imported modules.
        self._prepare_lock = threading.RLock()
        # OCC bookkeeping for sessions/transactions, created on first use.
        self._txn_manager = None
        # Statements running on the live store, in any thread; the
        # first id of those that ended without collecting; and the lock
        # that guards both (see _statement).
        self._statements_open = 0
        self._unswept: int | None = None
        self._statement_lock = threading.Lock()

    @property
    def journal(self):
        """The write-ahead journal snap applications commit to (or None).

        Lives on the evaluator so every apply path — direct, prepared,
        algebra-driven — sees it without extra plumbing, the same
        discipline as the tracer and execution control.
        """
        return self.evaluator.journal

    @journal.setter
    def journal(self, journal) -> None:
        self.evaluator.journal = journal

    def _maybe_check(self, module: core.CModule) -> None:
        if self.static_checks:
            from repro.lang.static_check import check_module

            check_module(
                module, self.functions, set(self.evaluator.globals)
            )

    # ------------------------------------------------------------------
    # Data loading and variable binding
    # ------------------------------------------------------------------

    def _held(self) -> set[int]:
        """The engine's part of the reclamation root set: the fn:doc
        catalog and the global bindings."""
        evaluator = self.evaluator
        ids = {node.nid for node in evaluator.documents.values()}
        for value in evaluator.globals.values():
            for item in value:
                if isinstance(item, Node):
                    ids.add(item.nid)
        return ids

    def _statement(
        self, run: Callable[[], QueryResult], collect: bool = True
    ) -> QueryResult:
        """``run()`` as one statement on the live store: when it ends
        with no other statement open, in this thread or another, free
        the trees left unreachable since the last collection
        (:meth:`Store.reclaim`).  A statement run inside another, by a
        callback the outer one makes, frees nothing: the outer one may
        still hold what the inner one sees as garbage; so does one that
        ends while another thread's is open, whose trees in the making
        look unreachable.  The collection holds the count's lock, so no
        statement starts during it.

        With *collect* False the statement never collects: a module an
        executor's reader thread loads through :meth:`prepare` runs
        without the store's write lock, so it leaves its garbage to the
        next statement that holds it.  A statement that does not
        collect passes its construction on: the next one that does
        looks at every id allocated since the first of them."""
        store = self.store
        with self._statement_lock:
            self._statements_open += 1
            since = store._next_id
        try:
            return run()
        finally:
            with self._statement_lock:
                self._statements_open -= 1
                if self._unswept is not None:
                    since = min(since, self._unswept)
                if collect and not self._statements_open:
                    self._unswept = None
                    store.reclaim(self._held(), since)
                else:
                    self._unswept = since

    def load_document(self, name: str, xml_text: str) -> Node:
        """Parse *xml_text* into the store, bind ``$name`` to the document
        node and register it in the fn:doc catalog under *name*."""
        doc = parse_document(xml_text, self.store)
        self.bind(name, doc)
        self.evaluator.documents[name] = doc
        return doc

    def parse_fragment(self, xml_text: str) -> Node:
        """Parse a single element into this engine's store (parentless)."""
        return parse_fragment(xml_text, self.store)

    def bind(self, name: str, value: PythonValue) -> None:
        """Bind the global variable ``$name``."""
        self.evaluator.globals[name] = to_sequence(value)

    def variable(self, name: str) -> Sequence:
        """Current value of a global variable.

        Raises :class:`~repro.errors.DynamicError` (XPDY0002) when the
        variable is not bound, naming the variable.  Its nodes are host
        handles, valid after the variable is rebound.
        """
        try:
            return held(self.evaluator.globals[name])
        except KeyError:
            raise DynamicError(f"variable ${name} is not bound") from None

    # ------------------------------------------------------------------
    # Modules
    # ------------------------------------------------------------------

    def register_module(self, uri: str, text: str) -> None:
        """Make a library module available to ``import module namespace
        p = "uri"``.  The text is parsed lazily on first import.

        Invalidates the prepared-query cache: a newly available module can
        change how an ``import`` (and hence name resolution) resolves."""
        with self._prepare_lock:
            self._module_library[uri] = text
            self.prepared_cache.clear()

    def _register_prolog(self, module: core.CModule) -> None:
        """Resolve *module*'s imports and register its prolog functions."""
        for prefix, uri in module.imports:
            self._import_module(prefix, uri)
        for decl in module.declarations:
            if isinstance(decl, core.CFunction):
                self.functions.register_user(decl)

    def _import_module(self, prefix: str, uri: str) -> None:
        if uri in self._loading:
            raise DynamicError(f"circular module import of {uri!r}")
        if uri not in self._loaded_modules:
            text = self._module_library.get(uri)
            if text is None:
                raise DynamicError(
                    f"no module registered for namespace {uri!r}; call "
                    "Engine.register_module(uri, text) first"
                )
            self._loading.add(uri)
            try:
                library, _ = self._load(text, collect=False)
                functions = [
                    decl
                    for decl in library.declarations
                    if isinstance(decl, core.CFunction)
                ]
                self._loaded_modules[uri] = (functions, library.declared_prefix)
            finally:
                self._loading.discard(uri)
        functions, lib_prefix = self._loaded_modules[uri]
        # Expose the library's functions and variables under the
        # *importer's* prefix.
        for function in functions:
            local = function.name.split(":")[-1]
            self.functions.register_user_as(f"{prefix}:{local}", function)
        if lib_prefix:
            for name, value in list(self.evaluator.globals.items()):
                if name.startswith(f"{lib_prefix}:"):
                    local = name.split(":", 1)[1]
                    self.evaluator.globals.setdefault(
                        f"{prefix}:{local}", value
                    )

    def load_module(self, text: str) -> Optional[QueryResult]:
        """Load a module: register its functions, evaluate its variable
        declarations in order (each under the implicit snap), and run the
        query body if there is one.

        Invalidates the prepared-query cache: newly declared functions can
        change name resolution and the optimizer's purity verdicts for
        queries prepared earlier."""
        with self._prepare_lock:
            self.prepared_cache.clear()
            module, result = self._load(text)
        return result if module.body is not None else None

    def _load(
        self, text: str, collect: bool = True
    ) -> tuple[core.CModule, QueryResult]:
        """Parse *text*, register its prolog and run it with no bindings:
        its variable declarations bind straight into the engine's
        globals.  *collect* as for :meth:`_statement`."""
        module = simplify_module(normalize_module(parse_module(text)))
        self._register_prolog(module)
        self._maybe_check(module)
        prepared = PreparedQuery(
            self, text, module, None, self.functions.generation
        )
        shared = self.evaluator
        run = self._statement(lambda: run_module(
            shared.fork(self.store, shared.globals), prepared
        ), collect)
        return module, run

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def execute(
        self,
        query: str,
        *,
        semantics: str | ApplySemantics | None = None,
        bindings: Mapping[str, PythonValue] | None = None,
        collect_stats: bool | None = None,
        explain: bool | None = None,
        timeout_ms: float | None = None,
        cancel: CancelToken | None = None,
        use_indexes: bool | None = None,
        options: ExecutionOptions | None = None,
    ) -> QueryResult:
        """Parse, normalize and evaluate *query* (which may include a
        prolog).  The query body runs as its rewritten algebra plan when a
        guarded rewrite fired at prepare time (Section 4), else on the
        evaluator.

        All options are keyword-only; an :class:`ExecutionOptions` can be
        passed via ``options=`` and individual keywords override its
        fields.  ``bindings`` supplies values for free ``$variables`` for
        this call only; ``collect_stats=True`` attaches a
        :class:`~repro.obs.report.QueryStats` to the result and
        ``explain=True`` an :class:`~repro.obs.report.ExplainReport`.

        Transparently routed through the prepared-query cache: repeating
        the same query text skips the whole frontend (see ``prepare``).
        Dynamic prolog steps — variable-declaration initializers under the
        implicit snap — still run on every call."""
        opts = _merge_options(
            options,
            semantics=semantics,
            bindings=bindings,
            collect_stats=collect_stats,
            explain=explain,
            timeout_ms=timeout_ms,
            cancel=cancel,
            use_indexes=use_indexes,
        )
        tracer = Tracer() if opts.collect_stats else None
        prepared = self._prepare(query, opts.resolved_semantics, tracer)
        return prepared.execute(options=opts, _tracer=tracer)

    def prepare(
        self,
        query: str,
        *,
        semantics: str | ApplySemantics | None = None,
        options: ExecutionOptions | None = None,
    ) -> PreparedQuery:
        """Run the frontend once — parse → normalize → simplify → static
        check → compile and rewrite to the algebra — and return a reusable
        :class:`PreparedQuery`, which runs its body as the rewritten plan
        when a rewrite fired and as written otherwise.

        Results are cached in a bounded LRU keyed by ``(query text, snap
        semantics)``; ``register_module`` and
        ``load_module`` invalidate the cache, as does any change to the
        set of registered user functions.  ``bindings``/``collect_stats``/
        ``explain`` options take effect per *execution*, so they are
        accepted here (inside ``options=``) but only read by
        :meth:`PreparedQuery.execute`.

        Per-call parameters bind free ``$variables`` at execute time::

            pq = engine.prepare('get_item($itemid, $userid)')
            pq.execute(bindings={"itemid": "item3", "userid": "person7"})
        """
        opts = _merge_options(options, semantics=semantics)
        return self._prepare(query, opts.resolved_semantics)

    def compile(
        self,
        query: str,
        *,
        semantics: str | ApplySemantics | None = None,
        options: ExecutionOptions | None = None,
    ):
        """The algebra plan :meth:`prepare` runs for *query* — None when
        no rewrite applies and the body runs as written.  Useful for
        inspecting rewrites; the query is prepared (and cached) but not
        run."""
        return self.prepare(query, semantics=semantics, options=options)._plan

    def explain(self, query: str) -> ExplainReport:
        """The optimizer's decisions for *query*, without running it.

        Returns an :class:`~repro.obs.report.ExplainReport` with the plan
        before and after rewriting, every rewrite rule considered (fired or
        not, with the guard detail) and the per-clause purity verdicts the
        guards were based on.  Side-effect-free: prolog function
        registrations are rolled back afterwards, under the prepare lock
        so a concurrent prepare's registrations survive the rollback."""
        from repro.algebra import compile as algebra
        from repro.algebra.plan import Snap, plan_operators, pretty_plan

        with self._prepare_lock:
            snapshot = self.functions.snapshot()
            try:
                module = self._frontend(query, None)
                self._register_prolog(module)
                self._maybe_check(module)
                if module.body is None:
                    raise DynamicError("query has no body to explain")
                tracer = Tracer()
                plan = algebra.compile_query(module.body, self, tracer=tracer)
            finally:
                self.functions.restore(snapshot)
        pipeline = algebra.decompose_pipeline(module.body)
        naive = None
        if pipeline is not None:
            naive = Snap(
                input=algebra.naive_plan(pipeline),
                mode=self.default_semantics.value,
            )
        return ExplainReport(
            query_text=query,
            plan_before=pretty_plan(naive),
            plan_after=pretty_plan(plan),
            operators_before=plan_operators(naive),
            operators_after=plan_operators(plan),
            rules=list(tracer.rules),
            purity=list(tracer.purity),
            costs=list(tracer.costs),
        )

    def _frontend(
        self, query: str, tracer: Tracer | None
    ) -> core.CModule:
        """parse → normalize → simplify, with per-phase spans when traced."""
        with maybe_span(tracer, "parse"):
            module = parse_module(query)
        with maybe_span(tracer, "normalize"):
            module = normalize_module(module)
        with maybe_span(tracer, "simplify"):
            module = simplify_module(module)
        return module

    def _prepare(
        self,
        query: str,
        semantics: ApplySemantics | None = None,
        tracer: Tracer | None = None,
    ) -> PreparedQuery:
        resolved = semantics or self.default_semantics
        key = (query, resolved.value)
        # The whole lookup-or-build runs under the prepare lock: when two
        # threads race on the same uncached query, the second must find
        # the first's entry instead of re-registering the prolog (which
        # would bump the registry generation and evict every cached
        # entry).  Uncontended acquisition is noise next to execution.
        with self._prepare_lock:
            cached = self.prepared_cache.lookup(key, self.functions.generation)
            if cached is not None:
                if tracer is not None:
                    tracer.count("prepared_cache.hits")
                return cached
            if tracer is not None:
                tracer.count("prepared_cache.misses")
            return self._prepare_locked(query, resolved, tracer, key)

    def _prepare_locked(
        self,
        query: str,
        resolved: ApplySemantics,
        tracer: Tracer | None,
        key: tuple,
    ) -> PreparedQuery:
        snapshot = self.functions.snapshot()
        try:
            module = self._frontend(query, tracer)
            self._register_prolog(module)
            with maybe_span(tracer, "static-check"):
                self._maybe_check(module)
            plan = None
            if module.body is not None:
                from repro.algebra.compile import compile_query

                with maybe_span(tracer, "compile"):
                    plan = compile_query(
                        module.body, self, semantics=resolved, tracer=tracer
                    )
            # Lowered here, under this guard: a module that cannot lower
            # is refused now, never switched to another evaluator later.
            prepared = PreparedQuery(
                engine=self,
                query_text=query,
                module=module,
                plan=plan,
                generation=self.functions.generation,
                semantics=resolved,
            )
        except RecursionError:
            # Hostile depth past the parser's guard: the normalize /
            # simplify / static-check / compile phases are recursive too,
            # so depth that survives parsing must still end as a typed
            # refusal with the registry restored, never a stack crash.
            self.functions.restore(snapshot)
            raise StaticError(
                "query nests too deeply to prepare; refused"
            ) from None
        except Exception:
            # Scoped prolog registration: a query that fails to prepare
            # leaves the function registry (and its generation, hence the
            # prepared cache) exactly as it found them.
            self.functions.restore(snapshot)
            raise
        self.prepared_cache.store(key, prepared)
        return prepared

    # ------------------------------------------------------------------
    # Sessions and transactions (multi-query atomicity)
    # ------------------------------------------------------------------

    @property
    def txn_manager(self):
        """The engine's :class:`~repro.txn.TransactionManager` (lazy).

        Shared by every session opened on this engine; once it exists,
        autocommitted (non-session) Δs are published to it too, so open
        transactions validate against direct writes as well.
        """
        if self._txn_manager is None:
            from repro.txn.session import TransactionManager

            self._txn_manager = TransactionManager()
            self.evaluator.txn_log = self._txn_manager
        return self._txn_manager

    def session(
        self,
        *,
        semantics: str | ApplySemantics | None = None,
        tracer: Tracer | None = None,
        limits=None,
        on_commit: Callable[[], None] | None = None,
    ):
        """Open a :class:`~repro.txn.Session` on this engine.

        The one transactional surface shared by ``Engine``,
        ``DurableEngine``, ``ConcurrentExecutor`` and the auction
        service: ``session.execute(...)`` buffers statements on a
        private MVCC snapshot (read-your-writes), ``session.commit()``
        validates optimistically (first-committer-wins, §3.2 rules)
        and applies atomically — as one journal frame group when the
        engine is durable.  Keyword-only knobs: *semantics* (default
        snap semantics for the session's statements), *tracer*
        (receives ``txn.*`` counters and spans), *limits* (an
        :class:`~repro.resilience.admission.AdmissionLimits` bounding
        the merged Δ at commit), *on_commit* (post-commit hook, e.g.
        compaction).
        """
        from repro.txn import Session

        return Session(
            self,
            semantics=semantics,
            tracer=tracer,
            limits=limits,
            on_commit=on_commit,
        )

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------

    def health(self):
        """A structured liveness report for this engine.

        The base engine is in-memory and always HEALTHY; the report
        carries an ``engine`` section (store size, bindings, prepared
        cache) that wrappers — :class:`~repro.durability.DurableEngine`,
        :class:`~repro.concurrent.ConcurrentExecutor` — extend with
        durability and serving sections and may downgrade.
        """
        from repro.resilience.health import HealthReport

        report = HealthReport()
        report.sections["engine"] = {
            "store_nodes": len(self.store._records),
            "next_node_id": self.store._next_id,
            "globals": len(self.evaluator.globals),
            "documents": len(self.evaluator.documents),
            "prepared_cached": len(self.prepared_cache),
            "journal_attached": self.evaluator.journal is not None,
        }
        return report

    def serialize(self, items: Iterable[Item], indent: bool = False) -> str:
        """Serialize any sequence of items from this engine's store."""
        return serialize_sequence(list(items), indent)

    def gc(self) -> int:
        """Free every tree no node of which is in the root set: the
        fn:doc catalog, the global bindings, an open transaction's view
        and every node the host still holds a handle to (a result, a
        navigation property, a parse).  Each statement already does
        this for the trees it left unreachable; this applies the same
        rule to every tree.  Returns the number of records freed; 0 while
        a statement is open (called from a ``trace`` sink, or from
        another thread), which may still hold what looks unreachable."""
        with self._statement_lock:
            if self._statements_open:
                return 0
            return self.store.gc(self._held())
