"""Prepared queries: compile once, execute many times.

The paper's motivating workload (Section 2: the auction Web service with
``get_item``, logging and snap-controlled archiving) is a *server*
scenario — the same handful of updating queries runs over and over
against a live store.  Re-running the full frontend (lex → parse →
normalize → simplify → static check → compile) on every call makes the
per-request cost frontend-bound instead of store/Δ-bound.

:class:`PreparedQuery` holds the frontend's output — the normalized core
module and, when a guarded rewrite fired, the rewritten algebra plan — so
repeated execution pays only the dynamic cost.  :class:`PreparedQueryCache`
is the bounded LRU the engine routes ``execute()`` through, keyed by
``(query_text, snap semantics)``.

Parameter binding follows the prepared-statement idiom (the
``XQPreparedExpression.bindString`` pattern of XQJ): a query references
free ``$variables`` and each :meth:`PreparedQuery.execute` call supplies
their values out-of-band, so user input is never spliced into query text
and can never change the query's structure::

    pq = engine.prepare('get_item($itemid, $userid)')
    pq.execute(bindings={"itemid": "item3", "userid": "person7"})

Bindings are scoped to the call: they live in the globals of the call's
own :meth:`~repro.semantics.evaluator.Evaluator.fork` (visible to the
body *and* to called functions, which read module globals) and never in
the engine's, so concurrent calls cannot see each other's values.

:func:`run_module` is the one implementation of the paper's judgment for
a program (Section 2.3): each prolog variable initializer under the
implicit top-level snap, then the body.  Every surface — ``execute``,
the concurrent executor's snapshot reads, transaction statements and
module loading — calls it on a fork of its own.

Durability note: a prepared query needs no extra plumbing to be durable —
the journal hook lives on the evaluator
(:attr:`~repro.semantics.evaluator.Evaluator.journal`), which every
execution path shares, so snaps committed through a
:class:`~repro.durability.DurableEngine` are journaled whether the query
went through ``execute()`` or a long-lived :class:`PreparedQuery`.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Mapping, Optional

from repro.concurrent.control import ExecutionControl
from repro.errors import DynamicError, StaticError
from repro.lang import core_ast as core
from repro.obs.tracer import Tracer, maybe_span
from repro.semantics.compiled import CompiledModule
from repro.semantics.context import DynamicContext
from repro.xdm.nodes import Node

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.algebra.plan import Plan
    from repro.engine import Engine, ExecutionOptions, PythonValue, QueryResult
    from repro.semantics.evaluator import Evaluator
    from repro.semantics.update import ApplySemantics


class PreparedQuery:
    """A query with its frontend work done once.

    Instances are created by :meth:`Engine.prepare`; they stay tied to the
    engine that prepared them (plans embed that engine's store handles and
    function registry).  Executing re-runs only the *dynamic* prolog steps
    the paper's semantics require per run — variable-declaration
    initializers evaluate under the implicit snap on every call, exactly
    as a fresh ``Engine.execute`` would — while parse trees and plans are
    reused untouched.
    """

    __slots__ = (
        "_engine",
        "_module",
        "_plan",
        "query_text",
        "_generation",
        "_semantics",
        "_readonly",
        "_compiled",
    )

    def __init__(
        self,
        engine: "Engine",
        query_text: str,
        module: core.CModule,
        plan: Optional["Plan"],
        generation: int,
        semantics: Optional["ApplySemantics"] = None,
    ):
        self._engine = engine
        self._module = module
        self._plan = plan
        self.query_text = query_text
        # Function-registry generation at prepare time; the engine cache
        # re-prepares when new user functions change name resolution.
        self._generation = generation
        # Update-application semantics resolved at prepare time (a plan
        # bakes the snap mode in; the cache key includes it).  None means
        # "the engine's default at execute time".
        self._semantics = semantics
        # Lazily computed purity verdict (see is_readonly).
        self._readonly: bool | None = None
        # The lowered module (see compiled).
        self._compiled = self._lower()

    @property
    def external_variables(self) -> tuple[str, ...]:
        """Names of ``declare variable $x external;`` declarations (the
        variables a caller is expected to supply via *bindings*).  Free
        variables that are never declared do not appear here — they
        resolve against engine globals or per-call bindings at runtime."""
        return tuple(
            decl.name
            for decl in self._module.declarations
            if isinstance(decl, core.CVarDecl) and decl.expr is None
        )

    def is_readonly(self) -> bool:
        """Conservative purity verdict for the whole prepared module.

        True only when the effect analysis (:mod:`repro.algebra.properties`)
        proves that neither the query body, nor any variable-declaration
        initializer, may update the store or contain an explicit ``snap``.
        The concurrent executor uses this to route a query to the
        lock-free snapshot path; "don't know" safely reports False.
        """
        cached = self._readonly
        if cached is not None:
            return cached
        from repro.algebra.properties import EffectAnalyzer

        analyzer = EffectAnalyzer(self._engine.functions)
        verdict = True
        for decl in self._module.declarations:
            if isinstance(decl, core.CVarDecl) and decl.expr is not None:
                if not analyzer.analyze(decl.expr).pure:
                    verdict = False
                    break
        if verdict and self._module.body is not None:
            verdict = analyzer.analyze(self._module.body).pure
        self._readonly = verdict
        return verdict

    def compiled(self) -> CompiledModule:
        """The module's expressions compiled to closures
        (:mod:`repro.semantics.compiled`), lowered when the query was
        prepared.  A change to the user functions lowers them again:
        effect verdicts and name resolution depend on them."""
        current = self._compiled
        if current.key is not self._engine.functions.compiled:
            current = self._compiled = self._lower()
        return current

    def _lower(self) -> CompiledModule:
        """The prolog initializers and the body (or plan), lowered; a
        module nested too deeply to lower is refused as XPST0003."""
        try:
            return CompiledModule(
                self._engine.functions, self._module, self._plan
            )
        except RecursionError:
            raise StaticError(
                "query nests too deeply to compile; refused"
            ) from None

    def execute(
        self,
        bindings: Mapping[str, "PythonValue"] | None = None,
        *,
        options: Optional["ExecutionOptions"] = None,
        _tracer: Tracer | None = None,
        _control: ExecutionControl | None = None,
    ) -> "QueryResult":
        """Run the prepared query against the engine's live store.

        *bindings* maps variable names (without ``$``) to Python values;
        they are coerced with :func:`repro.engine.to_sequence` and visible
        to this call only.  The query text is never touched — bound values
        are data, not syntax.  Values the prolog declares stay bound in
        the engine afterwards, as they would after a fresh ``execute``.

        *options* carries the per-execution fields of
        :class:`~repro.engine.ExecutionOptions` (see :func:`run_module`);
        ``semantics`` was fixed at prepare time and is ignored here.
        ``_tracer`` and ``_control`` are engine-internal handoffs: a
        tracer that already recorded the frontend phases, and a control
        whose deadline started before this call.
        """
        engine = self._engine
        # Imports and function registration are idempotent after the
        # first call (dict writes of the same objects) but keep the
        # exact visible behavior of a fresh execute: a later module
        # load that shadowed one of this query's prolog functions is
        # overridden back for this query, as re-parsing would.
        engine._register_prolog(self._module)
        shared = engine.evaluator
        return engine._statement(lambda: run_module(
            shared.fork(engine.store, dict(shared.globals)),
            self,
            bindings,
            options,
            tracer=_tracer,
            control=_control,
            publish=shared.globals,
        ))

    def __repr__(self) -> str:
        head = self.query_text.strip().splitlines()[0][:60]
        return (
            f"PreparedQuery({head!r}, "
            f"plan={'yes' if self._plan is not None else 'no'})"
        )


def rehandle(value, store) -> list:
    """Copy a sequence, pointing every Node handle at *store*."""
    out = []
    for item in value:
        if isinstance(item, Node):
            out.append(Node(store, item.nid))
        else:
            out.append(item)
    return out


def rehandled_fork(evaluator: "Evaluator", store) -> "Evaluator":
    """A fork over *store* — a snapshot or transaction view of
    *evaluator*'s store — whose globals and fn:doc catalog hold handles
    into *store*.  Callers hold the store's write lock, so the copies
    agree with the view."""
    fork = evaluator.fork(
        store,
        {
            name: rehandle(value, store)
            for name, value in evaluator.globals.items()
        },
    )
    fork.documents = {
        name: Node(store, node.nid)
        for name, node in evaluator.documents.items()
    }
    return fork


def run_module(
    evaluator: "Evaluator",
    prepared: PreparedQuery,
    bindings: Mapping[str, "PythonValue"] | None = None,
    options: Optional["ExecutionOptions"] = None,
    *,
    tracer: Tracer | None = None,
    control: ExecutionControl | None = None,
    publish: dict | None = None,
) -> "QueryResult":
    """Run *prepared*'s prolog and body on *evaluator*.

    *evaluator* is a fork private to this call (see
    :meth:`~repro.semantics.evaluator.Evaluator.fork`); its store and
    globals decide what the module reads and where its snaps apply.  In
    order:

    * *bindings* merge over ``options.bindings`` and are bound in the
      fork's globals, node handles pointed at the fork's store;
    * every ``declare variable $x external`` must be bound by now;
    * each variable initializer runs under the implicit top-level snap
      and binds its name in the fork's globals (and in *publish*, when
      given);
    * the body runs as the rewritten plan when a rewrite fired at prepare
      time (its own top-level snap), else under the implicit snap;
    * every expression runs lowered to closures
      (:meth:`PreparedQuery.compiled`);
    * ``collect_stats`` attaches :class:`~repro.obs.report.QueryStats`
      (*tracer*, when given, already holds the frontend phases) and
      ``explain`` an :class:`~repro.obs.report.ExplainReport`;
    * the engine's slow-query hook fires, on whichever thread ran the call.

    *control* overrides the one ``options.timeout_ms``/``cancel`` would
    build, for callers whose deadline started earlier.
    """
    from repro.engine import QueryResult, to_sequence

    engine = prepared._engine
    module = prepared._module
    store = evaluator.store
    globals_ = evaluator.globals
    if options is not None:
        if options.bindings:
            merged = dict(options.bindings)
            if bindings:
                merged.update(bindings)
            bindings = merged
        if tracer is None and options.collect_stats:
            tracer = Tracer()
        if control is None:
            control = ExecutionControl.from_options(options)
    hook = engine.on_slow_query
    start = (
        time.perf_counter() if (hook is not None and tracer is None) else None
    )
    if bindings:
        for name, value in bindings.items():
            globals_[name] = rehandle(to_sequence(value), store)
    evaluator.tracer = tracer
    evaluator.control = control
    if tracer is not None:
        created, detached = store.nodes_created, store.nodes_detached
    semantics = prepared._semantics or engine.default_semantics
    compiled = prepared.compiled()
    with maybe_span(tracer, "prolog"):
        for decl, initializer in compiled.prolog:
            if initializer is None:
                if decl.name not in globals_:
                    raise DynamicError(
                        f"external variable ${decl.name} is not bound; pass "
                        "it via bindings={...} or Engine.bind()"
                    )
                continue
            value = evaluator.run_snapped(
                initializer, DynamicContext(globals_=globals_), semantics
            )
            globals_[decl.name] = value
            if publish is not None:
                publish[decl.name] = value
    if compiled.body is None:
        items: list = []
    elif prepared._plan is not None:
        from repro.algebra.execute import execute_plan

        items = execute_plan(prepared._plan, evaluator, compiled.body)
    else:
        items = evaluator.run_snapped(
            compiled.body, DynamicContext(globals_=globals_), semantics
        )
    result = QueryResult(items, engine)
    if tracer is not None:
        from repro.obs.report import QueryStats

        for name, count in (
            ("store.nodes_created", store.nodes_created - created),
            ("store.nodes_detached", store.nodes_detached - detached),
        ):
            if count:
                tracer.count(name, count)
        result.stats = QueryStats.from_tracer(tracer)
    if options is not None and options.explain and module.body is not None:
        result.explain = engine.explain(prepared.query_text)
    if hook is not None:
        elapsed_ms = (
            tracer.elapsed_ms()
            if tracer is not None
            else (time.perf_counter() - start) * 1000.0
        )
        if elapsed_ms >= engine.slow_query_ms:
            from repro.obs.report import SlowQueryRecord

            hook(
                SlowQueryRecord(
                    query_text=prepared.query_text,
                    duration_ms=elapsed_ms,
                    threshold_ms=engine.slow_query_ms,
                    stats=result.stats,
                    timestamp=SlowQueryRecord.now(),
                )
            )
    return result


class CacheStats:
    """Counters for the prepared-query cache (mutable, engine-lifetime)."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


class PreparedQueryCache:
    """A bounded LRU of :class:`PreparedQuery` objects.

    Keys are ``(query_text, semantics)`` — the inputs that
    change what the frontend produces.  Entries also remember the
    function-registry generation they were built against; a lookup whose
    entry predates a registry change is treated as a miss (new user
    functions can change name resolution and the optimizer's purity
    verdicts), mirroring how ``register_module``/``load_module`` clear the
    cache wholesale.
    """

    def __init__(self, maxsize: int = 128):
        from collections import OrderedDict

        if maxsize < 1:
            raise ValueError("prepared-query cache needs maxsize >= 1")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, PreparedQuery]" = OrderedDict()
        self.stats = CacheStats()
        # OrderedDict.move_to_end during a concurrent re-link corrupts the
        # LRU order (unlike plain dict ops it is a multi-step re-link), so
        # every cache operation takes this mutex.  Uncontended acquisition
        # is tens of nanoseconds — noise next to a query execution.
        self._mutex = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def lookup(self, key: tuple, generation: int) -> PreparedQuery | None:
        """Return the cached entry for *key* if still valid, else None."""
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            if entry._generation != generation:
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def store(self, key: tuple, prepared: PreparedQuery) -> None:
        with self._mutex:
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry (counted as invalidations); returns how many."""
        with self._mutex:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def keys(self) -> list[tuple]:
        """Cache keys, least- to most-recently used (for tests/REPL)."""
        with self._mutex:
            return list(self._entries)

    def __repr__(self) -> str:
        return (
            f"PreparedQueryCache(size={len(self)}/{self.maxsize}, "
            f"{self.stats!r})"
        )
