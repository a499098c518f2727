"""The dynamic semantics of XQuery! core.

Implements the paper's evaluation judgment (Section 3.4):

    store0; dynEnv |- Expr  =>  value; Δ; store1

Each ``_eval_*`` method returns ``EvalResult(value, delta)``; the store is
threaded implicitly (it is the single mutable object), which matches the
formal rules exactly: an expression may modify the store (through node
construction or a nested ``snap``) *and* return pending update requests
that have not been applied yet.

Evaluation order is fully specified, left-to-right, as the rules of Figs. 2
and 3 require — the premises of each rule are executed top-to-bottom.
``and`` / ``or`` short-circuit left-to-right (a *defined* order, hence
permissible under the paper's "precise evaluation order" stance).

Prepared queries run as closures compiled from the same rules
(:mod:`repro.semantics.compiled`), which share the value functions and
update requests defined at the end of this module; the tree-walker runs
what nests too deeply to compile, and is the reference the tests compare
the closures with.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import (
    DynamicError,
    ResourceLimitError,
    TypeError_,
    UpdateTargetError,
)
from repro.lang import core_ast as core
from repro.obs.tracer import maybe_span
from repro.semantics.arithmetic import arithmetic
from repro.semantics.context import (
    DynamicContext,
    FunctionRegistry,
    no_context_item,
)
from repro.semantics.deltarope import EMPTY as _EMPTY_DELTA
from repro.semantics.deltarope import Delta
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    SetValueRequest,
    UpdateList,
    apply_update_list,
    next_group,
)
from repro.semantics.types import cast_atomic, matches_sequence_type
from repro.xdm.compare import (
    compare_atomic,
    general_compare,
    nodes_in_document_order,
    value_compare,
)
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind, Store
from repro.xdm.values import (
    XS_INTEGER,
    XS_STRING,
    XS_UNTYPED,
    AtomicValue,
    Sequence,
    UntypedAtomic,
    atomize,
    atomize_optional,
    atomize_single,
    cast_to_number,
    effective_boolean_value,
    is_numeric,
    node_sequence,
    sequence_string,
    single_node,
    to_double,
)


class EvalResult(NamedTuple):
    """The (value, Δ) pair of the evaluation judgment.

    Δ is a :class:`~repro.semantics.deltarope.Delta` rope — the paper's
    Section 4.1 "specialized tree structure": concatenation is O(1), so
    the pervasive Δ-concatenation of the Fig. 2/3 rules costs linear time
    overall instead of O(|Δ| x nesting depth).
    """

    value: Sequence
    delta: Delta


_EMPTY = _EMPTY_DELTA

#: How deeply user-function calls may nest in one execution.  Under
#: Python's default limit of 1,000 frames, a simple recursion such as
#: ``1 + local:f($n - 1)`` or ``$s[1] + local:sum(subsequence($s, 2))``
#: completes up to 164 open calls on either evaluator from a script's
#: main thread or an executor worker, and up to 158 under a test
#: runner's deeper stack; 150 stays under both with room for a deeper
#: caller still.  A body that spends more frames per level and exhausts
#: the Python stack first is refused the same way (see
#: Evaluator.enter_call).
MAX_CALL_DEPTH = 150


class Evaluator:
    """Tree-walking evaluator over core expressions.

    One evaluator instance owns one store; the dynamic context is passed
    per call.  ``globals`` holds the module-level variable bindings visible
    inside function bodies.  An engine keeps one long-lived evaluator and
    runs every query on a :meth:`fork` of it.
    """

    def __init__(
        self,
        store: Store,
        functions: FunctionRegistry | None = None,
        trace_sink: Callable[[str], None] | None = None,
        atomic_snaps: bool = False,
        use_name_index: bool = True,
    ):
        self.store = store
        if functions is None:
            from repro.semantics.functions import default_registry

            functions = default_registry()
        self.functions = functions
        self.globals: dict[str, Sequence] = {}
        # fn:doc catalog: document name -> document node handle.
        self.documents: dict[str, Node] = {}
        self.trace_sink = trace_sink or (lambda message: None)
        # With atomic_snaps, every snap rolls back on a failed application
        # (failure containment; see apply_update_list).
        self.atomic_snaps = atomic_snaps
        # Use the store's element-name index to answer descendant::name
        # steps (O(candidates x depth) instead of an O(subtree) walk).
        self.use_name_index = use_name_index
        # Use the value indexes (repro.index) for equality and contains
        # probes on descendant steps.  Set on each fork from
        # ExecutionOptions(use_indexes=...); with False the evaluator
        # runs the generic scan paths — the reference semantics the
        # equivalence property compares against.
        self.use_indexes = use_name_index
        # Observability: a repro.obs.Tracer on the fork of a traced
        # execution, else None (the default — hot paths guard on None).
        self.tracer = None
        # Execution control: a repro.concurrent.ExecutionControl on the
        # fork of a deadline/cancellable execution, else None.  Polled
        # at iteration boundaries (guarded on None, same discipline as
        # the tracer) so a fired deadline stops the query cooperatively
        # without ever landing inside a snap application.
        self.control = None
        # Durability: a repro.durability.Journal while the engine is
        # journaled, else None (same None-guard discipline).  Every snap
        # application — top-level, nested, algebra-driven — threads it
        # into apply_update_list, which appends one record per non-empty
        # Δ before the snap is acknowledged.
        self.journal = None
        # Transactions: the engine's TransactionManager once sessions are
        # in use, else None.  A fully applied autocommit Δ is published to
        # it so open MVCC transactions validate against direct writes.
        # Session-private evaluators (which apply to a TransactionView,
        # not the live store) leave this None.
        self.txn_log = None
        # User-function calls currently open (see enter_call).
        self.call_depth = 0
        # The innermost open snap's Δ while compiled closures run: they
        # append their update requests here, in evaluation order, which
        # is the order of Figs. 2-3 (see repro.semantics.compiled).
        self.pending: list = []

    def fork(self, store: Store, globals_: dict[str, Sequence]) -> "Evaluator":
        """A per-execution evaluator over *store* with *globals_*.

        The fork shares the function registry, the fn:doc catalog, the
        journal and the transaction log; its ``tracer`` and ``control``
        start empty and ``use_indexes`` starts at this evaluator's value.
        Setting any of them on the fork leaves this evaluator untouched,
        so concurrent executions never see each other's state.
        """
        child = object.__new__(Evaluator)
        child.__dict__.update(self.__dict__)
        child.store = store
        child.globals = globals_
        child.tracer = None
        child.control = None
        child.call_depth = 0
        child.pending = []
        return child

    def enter_call(self, name: str) -> int:
        """Open one user-function call level; return the new depth.

        Past ``MAX_CALL_DEPTH`` the execution is refused with
        ``ResourceLimitError`` (REPR0007, ``max_call_depth``), like any
        execution-control interruption: the pending Δ is discarded.  The
        caller closes the level with ``call_depth = depth - 1`` and
        passes a ``RecursionError`` at depth 1 to :meth:`stack_exhausted`.
        """
        depth = self.call_depth + 1
        if depth > MAX_CALL_DEPTH:
            raise ResourceLimitError(
                f"user-function calls nest deeper than "
                f"{MAX_CALL_DEPTH} (calling {name}); refused",
                limit_name="max_call_depth",
                limit=MAX_CALL_DEPTH,
                observed=depth,
            )
        self.call_depth = depth
        return depth

    def stack_exhausted(self, name: str) -> ResourceLimitError:
        """The refusal for a call chain that ran out of Python stack
        below ``MAX_CALL_DEPTH``."""
        return ResourceLimitError(
            f"user-function calls exhausted the stack below depth "
            f"{MAX_CALL_DEPTH} (calling {name}); refused",
            limit_name="max_call_depth",
            limit=MAX_CALL_DEPTH,
        )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def evaluate(self, expr: core.CoreExpr, context: DynamicContext) -> EvalResult:
        """Evaluate *expr*, returning its value and pending update list."""
        method = _DISPATCH.get(type(expr))
        if method is None:
            raise DynamicError(f"no evaluation rule for {type(expr).__name__}")
        return method(self, expr, context)

    def run_snapped(
        self,
        expr: core.CoreExpr,
        context: DynamicContext,
        mode: ApplySemantics = ApplySemantics.ORDERED,
    ) -> Sequence:
        """Evaluate under the implicit top-level snap (Section 2.3: "a snap
        is always implicitly present around the top-level query").  A
        compiled *expr* (:mod:`repro.semantics.compiled`) runs as its
        closure, anything else on the tree-walker."""
        tracer = self.tracer
        with maybe_span(tracer, "evaluate"):
            if type(expr) is core.CCompiled:
                delta = self.pending = []
                value = list(expr.call_in(self, context))
            else:
                value, delta = self.evaluate(expr, context)
        # Last check before committing: a fired deadline discards the
        # pending Δ here, so a timed-out query never half-applies.
        if self.control is not None:
            self.control.check()
        with maybe_span(tracer, "snap-apply"):
            self.apply_updates(delta, mode)
        return value

    def apply_updates(self, delta, mode: ApplySemantics) -> None:
        """Apply a closing snap's Δ (the caller has polled the control)."""
        apply_update_list(
            self.store, delta, mode,
            atomic=self.atomic_snaps, tracer=self.tracer,
            journal=self.journal, control=self.control,
            txn_log=self.txn_log,
        )

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------

    def _eval_literal(self, expr: core.CLiteral, context: DynamicContext) -> EvalResult:
        return EvalResult([expr.value], _EMPTY)

    def _eval_var(self, expr: core.CVar, context: DynamicContext) -> EvalResult:
        return EvalResult(list(context.variable(expr.name)), _EMPTY)

    def _eval_context(self, expr: core.CContext, context: DynamicContext) -> EvalResult:
        return EvalResult([context.require_context_item()], _EMPTY)

    def _eval_empty(self, expr: core.CEmpty, context: DynamicContext) -> EvalResult:
        return EvalResult([], _EMPTY)

    def _eval_root(self, expr: core.CRoot, context: DynamicContext) -> EvalResult:
        return EvalResult(root_value(context.require_context_item()), _EMPTY)

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------

    def _eval_sequence(self, expr: core.CSequence, context: DynamicContext) -> EvalResult:
        """Fig. 3 sequence rule: Expr1 fully evaluated before Expr2; values
        and deltas concatenated in order."""
        value: Sequence = []
        delta = _EMPTY
        for item_expr in expr.items:
            item_value, item_delta = self.evaluate(item_expr, context)
            value.extend(item_value)
            delta = delta + item_delta
        return EvalResult(value, delta)

    def _eval_range(self, expr: core.CRange, context: DynamicContext) -> EvalResult:
        lo_value, delta1 = self.evaluate(expr.lo, context)
        hi_value, delta2 = self.evaluate(expr.hi, context)
        return EvalResult(range_value(lo_value, hi_value), delta1 + delta2)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _eval_arith(self, expr: core.CArith, context: DynamicContext) -> EvalResult:
        left_value, delta1 = self.evaluate(expr.left, context)
        right_value, delta2 = self.evaluate(expr.right, context)
        value = arith_value(expr.op, left_value, right_value)
        return EvalResult(value, delta1 + delta2)

    def _eval_unary(self, expr: core.CUnary, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.operand, context)
        return EvalResult(unary_value(expr.op, value), delta)

    # ------------------------------------------------------------------
    # Comparisons and logic
    # ------------------------------------------------------------------

    def _eval_comparison(self, expr: core.CComparison, context: DynamicContext) -> EvalResult:
        left_value, delta1 = self.evaluate(expr.left, context)
        right_value, delta2 = self.evaluate(expr.right, context)
        value = compare_value(self.store, expr, left_value, right_value)
        return EvalResult(value, delta1 + delta2)

    def _eval_bool(self, expr: core.CBool, context: DynamicContext) -> EvalResult:
        left_value, delta = self.evaluate(expr.left, context)
        left = effective_boolean_value(left_value)
        if expr.op == "and" and not left:
            return EvalResult([AtomicValue.boolean(False)], delta)
        if expr.op == "or" and left:
            return EvalResult([AtomicValue.boolean(True)], delta)
        right_value, delta2 = self.evaluate(expr.right, context)
        right = effective_boolean_value(right_value)
        return EvalResult([AtomicValue.boolean(right)], delta + delta2)

    def _eval_set(self, expr: core.CSet, context: DynamicContext) -> EvalResult:
        left_value, delta1 = self.evaluate(expr.left, context)
        right_value, delta2 = self.evaluate(expr.right, context)
        value = set_value(expr.op, left_value, right_value)
        return EvalResult(value, delta1 + delta2)

    # ------------------------------------------------------------------
    # Control (Fig. 3)
    # ------------------------------------------------------------------

    def _eval_if(self, expr: core.CIf, context: DynamicContext) -> EvalResult:
        cond_value, delta1 = self.evaluate(expr.cond, context)
        branch = expr.then if effective_boolean_value(cond_value) else expr.orelse
        value, delta2 = self.evaluate(branch, context)
        return EvalResult(value, delta1 + delta2)

    def _eval_for(self, expr: core.CFor, context: DynamicContext) -> EvalResult:
        """Fig. 3 for rule: the source delta first, then per-iteration
        deltas in binding order."""
        source_value, delta = self.evaluate(expr.source, context)
        value: Sequence = []
        control = self.control
        for index, item in enumerate(source_value):
            if control is not None:
                control.check()
            inner = context.bind(expr.var, [item])
            if expr.position_var is not None:
                inner = inner.bind(
                    expr.position_var, [AtomicValue.integer(index + 1)]
                )
            item_value, item_delta = self.evaluate(expr.body, inner)
            value.extend(item_value)
            delta = delta + item_delta
        return EvalResult(value, delta)

    def _eval_let(self, expr: core.CLet, context: DynamicContext) -> EvalResult:
        source_value, delta1 = self.evaluate(expr.source, context)
        inner = context.bind(expr.var, source_value)
        value, delta2 = self.evaluate(expr.body, inner)
        return EvalResult(value, delta1 + delta2)

    def _eval_ordered_flwor(
        self, expr: core.COrderedFLWOR, context: DynamicContext
    ) -> EvalResult:
        """FLWOR with order by: generate the tuple stream, filter, sort,
        then evaluate the return clause in sorted order.  Deltas from the
        generation phase come first (generation order), then return-clause
        deltas in sorted order."""
        delta = _EMPTY
        control = self.control
        tuples: list[DynamicContext] = [context]
        for clause in expr.clauses:
            new_tuples: list[DynamicContext] = []
            if isinstance(clause, core.CForClause):
                for tup in tuples:
                    if control is not None:
                        control.check()
                    source_value, source_delta = self.evaluate(clause.source, tup)
                    delta = delta + source_delta
                    for index, item in enumerate(source_value):
                        bound = tup.bind(clause.var, [item])
                        if clause.position_var is not None:
                            bound = bound.bind(
                                clause.position_var,
                                [AtomicValue.integer(index + 1)],
                            )
                        new_tuples.append(bound)
            else:
                for tup in tuples:
                    if control is not None:
                        control.check()
                    source_value, source_delta = self.evaluate(clause.source, tup)
                    delta = delta + source_delta
                    new_tuples.append(tup.bind(clause.var, source_value))
            tuples = new_tuples
        if expr.where is not None:
            kept: list[DynamicContext] = []
            for tup in tuples:
                cond_value, cond_delta = self.evaluate(expr.where, tup)
                delta = delta + cond_delta
                if effective_boolean_value(cond_value):
                    kept.append(tup)
            tuples = kept
        # Compute the sort keys for every tuple.
        keyed: list[tuple[list, DynamicContext]] = []
        for tup in tuples:
            keys: list = []
            for spec in expr.specs:
                key_value, key_delta = self.evaluate(spec.expr, tup)
                delta = delta + key_delta
                keys.append(atomize_optional(key_value, "order by key"))
            keyed.append((keys, tup))
        value: Sequence = []
        for _, tup in sort_keyed(keyed, expr.specs):
            if control is not None:
                control.check()
            ret_value, ret_delta = self.evaluate(expr.ret, tup)
            value.extend(ret_value)
            delta = delta + ret_delta
        return EvalResult(value, delta)

    def _eval_quantified(self, expr: core.CQuantified, context: DynamicContext) -> EvalResult:
        """some/every with left-to-right, short-circuit evaluation."""
        delta = _EMPTY
        want = expr.kind == "some"

        def recurse(bindings: list[tuple[str, core.CoreExpr]], ctx: DynamicContext) -> bool:
            nonlocal delta
            if not bindings:
                value, inner_delta = self.evaluate(expr.satisfies, ctx)
                delta = delta + inner_delta
                return effective_boolean_value(value)
            var, source = bindings[0]
            source_value, source_delta = self.evaluate(source, ctx)
            delta = delta + source_delta
            control = self.control
            for item in source_value:
                if control is not None:
                    control.check()
                result = recurse(bindings[1:], ctx.bind(var, [item]))
                if result == want:
                    return want
            return not want

        result = recurse(expr.bindings, context)
        return EvalResult([AtomicValue.boolean(result)], delta)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def _eval_axis_step(self, expr: core.CAxisStep, context: DynamicContext) -> EvalResult:
        item = step_context(context.context_item, expr.axis)
        predicates = expr.predicates
        delta = _EMPTY
        if predicates and self.use_indexes:
            shape = probe_shape(expr.axis, expr.test, predicates[0])
            probed = None
            if shape is not None:
                probed = self._indexed_predicate_step(
                    item, shape, self._probe_comparand(shape, context)
                )
            if probed is not None:
                # The probed predicate is boolean-valued, so the probe
                # result is exactly what the scan keeps after it, in axis
                # (= document) order: the remaining predicates count
                # positions over the same list, and filtering keeps it
                # in document order.
                probed, delta = self._filter(
                    probed, predicates[1:], context, delta, fast=False
                )
                return EvalResult(self._nodes(probed), delta)
        candidates, delta = self._filter(
            self._axis_candidates(
                item, expr.axis, expr.test, node_test(expr.test, expr.axis)
            ),
            predicates, context, delta,
        )
        store = item.store
        candidates = store.sort_document_order(candidates)
        return EvalResult([Node(store, nid) for nid in candidates], delta)

    def _nodes(self, nids: list[int]) -> list[Node]:
        store = self.store
        return [Node(store, nid) for nid in nids]

    def _comparand(
        self, operand: core.CoreExpr, context: DynamicContext
    ) -> Callable[[], Sequence]:
        return lambda: self.evaluate(operand, context).value

    def _probe_comparand(
        self, shape: "ProbeShape", context: DynamicContext
    ) -> Callable[[], Sequence]:
        """The comparand thunk of a probe: one value, or for a range
        shape the list of its bounds' values."""
        if shape.kind == "range":
            return lambda: [
                self.evaluate(operand, context).value
                for operand in shape.operand
            ]
        return self._comparand(shape.operand, context)

    def _filter(
        self,
        nids: list[int],
        predicates: list[core.CoreExpr],
        context: DynamicContext,
        delta: Delta,
        fast: bool = True,
    ) -> tuple[list[int], Delta]:
        """Filter one step's candidates (in axis order) by its predicates;
        the first goes through the attribute-compare fast path when it
        has that shape (and *fast*)."""
        rest = predicates
        if fast and predicates and nids:
            shape = attr_filter_shape(predicates[0])
            if shape is not None:
                kept = self._attr_compare_filter(
                    shape, nids, self._comparand(shape.operand, context)
                )
                if kept is not None:
                    nids, rest = kept, predicates[1:]
        for predicate in rest:
            nids, delta = self._apply_predicate(
                predicate, nids, context, delta, self.store
            )
        return nids, delta

    def _attr_compare_filter(
        self,
        shape: "AttrShape",
        nids: list[int],
        comparand: Callable[[], Sequence],
    ) -> list[int] | None:
        """Direct-store filtering for the key-lookup predicate shape
        ``step[@name <op> $var]`` (either operand order; literals too).

        The generic path pays a focus round trip per candidate; here the
        attribute value is read straight off the store record and
        compared with the exact ``general_compare`` semantics, so the
        result (value, Δ = empty, errors) is identical — the comparison
        is boolean-valued (never positional), both operands are
        effect-free, and a missing attribute compares as the empty
        sequence, i.e. false.  *comparand* yields the other operand's
        value.  Returns None when a candidate is not an element.
        """
        store = self.store
        if any(store.kind(nid) is not NodeKind.ELEMENT for nid in nids):
            return None
        other_value = comparand()
        name, op = shape.name, shape.op
        kept = []
        if (
            op == "eq"  # symmetric: operand order is irrelevant
            and len(other_value) == 1
            and isinstance(other_value[0], AtomicValue)
            and other_value[0].type in (XS_STRING, XS_UNTYPED)
        ):
            # The key-lookup case: untyped attribute content against a
            # string/untyped value compares as raw strings (_coerce_pair),
            # so the whole comparison collapses to one str equality.
            target = str(other_value[0].value)
            for nid in nids:
                aid = store.attribute_named(nid, name)
                if aid is None:
                    continue
                raw = store.value(aid)
                if ("" if raw is None else raw) == target:
                    kept.append(nid)
            return kept
        for nid in nids:
            aid = store.attribute_named(nid, name)
            attr_value: Sequence = (
                [] if aid is None else [UntypedAtomic(store.value(aid) or "")]
            )
            if shape.flipped:
                matched = general_compare(op, other_value, attr_value)
            else:
                matched = general_compare(op, attr_value, other_value)
            if matched:
                kept.append(nid)
        return kept

    # ------------------------------------------------------------------
    # Value-index probe fast paths (repro.index)
    #
    # XPathLog's reading of E[@a = $v] as a keyed relation lookup: a
    # step's *first* predicate, when it has one of four boolean shapes
    # (see probe_shape), goes through the store's value indexes instead
    # of materializing every candidate node and filtering:
    #
    #   (A)  name[@attr = $v]            — attribute-value hash probe, on
    #                                      child and descendant(-or-self)
    #   (B)  name[contains(string(.), $v)] — token-index probe
    #   (C)  name[child = $v]            — token-prefix probe on the
    #                                      child's full string value
    #   (D)  name[number(c) op $v]       — numeric-column bisection, one
    #        (op in = < <= > >=) or two     bound or an ``and`` of two on
    #                                      the same c; live store only
    #
    # (B) and (C) are descendant(-or-self) only.  A child-axis (A) or (D)
    # probe declines when it has more hits than the context has
    # children, so it never costs more than the scan.  The remaining
    # predicates filter the probe result (see _eval_axis_step), so
    # positional tails like [@a = $v][1] count exactly as the scan.
    #
    # Each probe yields a candidate *superset* (the indexes are store-
    # wide; on the live store (A) reads only the postings whose owner,
    # and on the child axis whose owner's parent, bears the step's
    # names); candidates
    # are verified against the exact predicate semantics before
    # acceptance, so results are identical to the generic path — only
    # the work is proportional to matches, not to the subtree.  The
    # live store, a snapshot and a transaction view
    # answer (A)-(C) through the same probe calls (a view adds its
    # buffered writes to the candidates); (D) declines on both, as its
    # columns describe only the live store.  (D) answers only while the
    # column's certificate proves that the scan could neither raise nor
    # match an element the column lacks (see repro.index.manager).  A
    # probe declines (returns None) whenever a dynamic precondition is
    # not met: non-string comparand, non-numeric bound, unanchorable
    # needle, a context inside a read-only snapshot's construction space
    # (no index covers it), or the guards above.  The
    # shape itself is a property of the expression, decided by the caller
    # (once per compiled step).
    # ------------------------------------------------------------------

    def _indexed_predicate_step(
        self,
        item: Node,
        shape: "ProbeShape",
        comparand: Callable[[], Sequence],
    ) -> list[int] | None:
        """The ids a step with probe *shape* keeps from *item*, sorted
        into document order, or None when the probe declines.
        *comparand* yields the compared variable's or literal's value."""
        store = self.store
        if item.store is not store:
            return None
        blind = getattr(store, "_probes_blind_below", None)
        if blind is not None and blind(item.nid):
            return None
        value = comparand()
        if shape.kind == "contains":
            return self._probe_contains(store, item.nid, shape, value)
        if shape.kind == "attr":
            return self._probe_attr_eq(store, item.nid, shape, value)
        if shape.kind == "range":
            return self._probe_range(store, item.nid, shape, value)
        return self._probe_child_eq(store, item.nid, shape, value)

    @staticmethod
    def _string_target(other_value: Sequence) -> str | None:
        """The raw-string comparand of the key-lookup collapse case (see
        _attr_compare_filter): a singleton string/untyped atomic, or a
        singleton node whose typed value is one (general ``=`` atomizes
        it, and compares an untyped value with the key as a string)."""
        if len(other_value) != 1:
            return None
        item = other_value[0]
        if not isinstance(item, AtomicValue):
            atoms = atomize(other_value)
            if len(atoms) != 1:
                return None
            item = atoms[0]
        if item.type in (XS_STRING, XS_UNTYPED):
            return str(item.value)
        return None

    @staticmethod
    def _contained(store, nid: int, root: int, or_self: bool) -> bool:
        if nid == root:
            return or_self
        cur = store.parent(nid)
        while cur is not None:
            if cur == root:
                return True
            cur = store.parent(cur)
        return False

    @staticmethod
    def _ancestor_chain(store, tid: int, root: int) -> list[int] | None:
        """Ancestors of *tid* from its parent up to and including *root*;
        None when *tid* is not in *root*'s subtree."""
        chain: list[int] = []
        cur = store.parent(tid)
        while cur is not None:
            chain.append(cur)
            if cur == root:
                return chain
            cur = store.parent(cur)
        return None

    def counted(self, ids: tuple[int, ...] | None) -> tuple[int, ...] | None:
        """Record an answered index probe on the tracer; pass *ids* on."""
        if ids is not None and self.tracer is not None:
            self.tracer.count("index.probes")
            self.tracer.count("index.hits", len(ids))
        return ids

    def _probe_attr_eq(self, store, root, shape, value) -> list[int] | None:
        target = self._string_target(value)
        if target is None:
            return None
        # Only postings owned by a `name` element can match; on the
        # child axis the owner's parent is the context node, so its name
        # is known too.  There the scan reads one list: probe only when
        # the postings are no more (both lengths are O(1) to read).
        if shape.axis == "child":
            limit = store.child_count(root)
            path = (shape.name, store.name(root))
        else:
            limit, path = None, (shape.name,)
        aids = self.counted(
            store.attr_eq_probe(shape.key, target, limit, path)
        )
        if aids is None:
            return None
        return probe_owners(store, aids, shape.name, root, shape.axis)

    def _probe_child_eq(self, store, root, shape, value) -> list[int] | None:
        target = self._string_target(value)
        if not target:  # empty string: no text to witness it — scan
            return None
        tids = self.counted(store.text_eq_probe(target))
        if tids is None:
            return None
        name, child_name = shape.name, shape.key
        or_self = shape.axis == "descendant-or-self"
        candidates: set[int] = set()
        for tid in tids:
            chain = self._ancestor_chain(store, tid, root)
            if chain is None:
                continue
            for i in range(len(chain) - 1):
                child, parent = chain[i], chain[i + 1]
                if (
                    store.name(child) == child_name
                    and store.kind(child) is NodeKind.ELEMENT
                    and store.name(parent) == name
                    and store.kind(parent) is NodeKind.ELEMENT
                    and (parent != root or or_self)
                ):
                    candidates.add(parent)
        out = []
        for nid in candidates:
            for cid in store.children(nid):
                if (
                    store.kind(cid) is NodeKind.ELEMENT
                    and store.name(cid) == child_name
                    and store.string_value(cid) == target
                ):
                    out.append(nid)
                    break
        return store.sort_document_order(out)

    def _probe_range(self, store, root, shape, values) -> list[int] | None:
        bounds = []
        for op, value in zip(shape.ops, values):
            if (
                len(value) != 1
                or not isinstance(value[0], AtomicValue)
                or not is_numeric(value[0])
            ):
                return None
            bounds.append((op, to_double(value[0].value)))
        child = shape.axis == "child"
        limit = store.child_count(root) if child else None
        cids = self.counted(
            store.numeric_range_probe(shape.key, bounds, limit)
        )
        if cids is None:
            return None
        return probe_owners(store, cids, shape.name, root, shape.axis)

    def _probe_contains(self, store, root, shape, value) -> list[int] | None:
        if len(value) != 1 or not isinstance(value[0], AtomicValue):
            return None
        needle = value[0].lexical()
        if not needle:  # contains(s, "") is uniformly true — scan
            return None
        tids = self.counted(store.token_probe(needle))
        if tids is None:
            return None
        or_self = shape.axis == "descendant-or-self"
        candidates: set[int] = set()
        for tid in tids:
            chain = self._ancestor_chain(store, tid, root)
            if chain is None:
                continue
            for nid in chain:
                if nid == root and not or_self:
                    continue
                if (
                    store.kind(nid) is NodeKind.ELEMENT
                    and store.name(nid) == shape.name
                ):
                    candidates.add(nid)
        out = [
            nid for nid in candidates if needle in store.string_value(nid)
        ]
        return store.sort_document_order(out)

    def _axis_candidates(
        self,
        item: Node,
        axis: str,
        test: core.CNodeTest,
        matches: Callable[[Store, int], bool],
    ) -> list[int]:
        """Ids of the step's axis passing its node test, in axis order.

        For ``descendant(-or-self)::name`` steps the store's element-name
        index answers the question without walking the subtree; the result
        is doc-order sorted, which *is* axis order for forward axes.
        """
        store = item.store
        named = test.kind == "name" and test.name != "*"
        if axis == "child" and named:
            return store.children_named(item.nid, test.name)
        if axis == "attribute" and named:
            aid = store.attribute_named(item.nid, test.name)
            return [] if aid is None else [aid]
        if (
            self.use_name_index
            and axis in ("descendant", "descendant-or-self")
            and named
            and test.name is not None
            and store is self.store
        ):
            ids = store.descendants_named(item.nid, test.name)
            if (
                axis == "descendant-or-self"
                and store.kind(item.nid) is NodeKind.ELEMENT
                and store.name(item.nid) == test.name
            ):
                ids.append(item.nid)
            return store.sort_document_order(ids)
        return [nid for nid in _axis_ids(store, item.nid, axis)
                if matches(store, nid)]

    def _apply_predicate(
        self,
        predicate: core.CoreExpr,
        items: list,
        context: DynamicContext,
        delta: Delta,
        store: Store | None = None,
    ) -> tuple[list, Delta]:
        """Filter *items* (node ids of *store* when it is given) by one
        predicate with positional semantics; the enclosing variables
        remain visible inside the predicate.  Returns the kept items and
        the delta extended with predicate effects."""
        kept = []
        size = len(items)
        for position, item in enumerate(items, start=1):
            focus = context.with_focus(
                item if store is None else Node(store, item), position, size
            )
            pred_value, pred_delta = self.evaluate(predicate, focus)
            delta = delta + pred_delta
            if _predicate_truth(pred_value, position):
                kept.append(item)
        return kept, delta

    def _grouped_child_path(
        self,
        base_nodes: list[Node],
        name: str,
        probe: "ProbeShape | None",
        comparand: Callable[[], Sequence],
        filter_group: Callable[[list[int], int], list[int]],
    ) -> list[int]:
        """``B//name[P1]...[Pn]`` in one pass over the named descendants.

        ``B//name[P...]`` is ``CPath(CPath(B, descendant-or-self::node()),
        child::name[P...])``, which the simplifier leaves alone when some
        predicate may be positional: one child step per node of B's
        subtrees.  Only the parents of B's ``name`` descendants have
        candidates, so those come from the element-name index (or, when
        ``P1`` has the *probe* shape, from one descendant probe per base
        node: ``P1`` is boolean, so it keeps the same children per
        parent), are grouped by parent, and each group is filtered by
        ``filter_group(ids, first)`` — predicates ``first...`` as that
        parent's child step filters them.  Groups run in parent document
        order, the order of the child steps, so every predicate sees the
        same (item, position, size), Δ comes out in the same order and the
        first error is the same one.  A predicate that may apply a nested
        snap could restructure the tree between two groups, so such a
        path never takes this route (see CGroupedPath).
        """
        store = self.store
        found = None
        if probe is not None and self.use_indexes:
            found = self._probe_descendants(base_nodes, probe, comparand)
        first = 0
        if found is None:
            found = set()
            for node in base_nodes:
                found.update(store.descendants_named(node.nid, name))
        else:
            first = 1
        groups: dict[int, list] = {}
        for nid in store.sort_document_order(found):
            groups.setdefault(store.parent(nid), []).append(nid)
        results: list = []
        for parent in store.sort_document_order(groups):
            results.extend(filter_group(groups[parent], first))
        return store.sort_document_order(results)

    def _probe_descendants(
        self,
        base_nodes: list[Node],
        probe: "ProbeShape",
        comparand: Callable[[], Sequence],
    ) -> set[int] | None:
        """The ``descendant::name[P1]`` ids of every base node, from the
        value indexes; None when some probe declines."""
        found: set[int] = set()
        for node in base_nodes:
            probed = self._indexed_predicate_step(node, probe, comparand)
            if probed is None:
                return None
            found.update(probed)
        return found

    def _eval_grouped_path(
        self, expr: core.CGroupedPath, context: DynamicContext
    ) -> EvalResult:
        if not self.use_name_index:
            return self._eval_path(expr, context)
        step = expr.step
        base_value, delta = self.evaluate(expr.base.base, context)
        base_nodes = node_sequence(base_value, "path step input")
        predicates = step.predicates
        probe = None
        if predicates:
            probe = probe_shape("descendant", step.test, predicates[0])

        def filter_group(nids: list[int], first: int) -> list[int]:
            nonlocal delta
            kept, delta = self._filter(
                nids, predicates[first:], context, delta
            )
            return kept

        comparand = (
            None if probe is None else self._probe_comparand(probe, context)
        )
        nids = self._grouped_child_path(
            base_nodes, step.test.name, probe, comparand, filter_group
        )
        return EvalResult(self._nodes(nids), delta)

    def _eval_path(self, expr: core.CPath, context: DynamicContext) -> EvalResult:
        base_value, delta = self.evaluate(expr.base, context)
        base_nodes = node_sequence(base_value, "path step input")
        base_nodes = list(nodes_in_document_order(base_nodes))
        results: Sequence = []
        size = len(base_nodes)
        for position, node in enumerate(base_nodes, start=1):
            focus = context.with_focus(node, position, size)
            step_value, step_delta = self.evaluate(expr.step, focus)
            results.extend(step_value)
            delta = delta + step_delta
        return EvalResult(path_result(results), delta)

    def _eval_filter(self, expr: core.CFilter, context: DynamicContext) -> EvalResult:
        items, delta = self.evaluate(expr.base, context)
        for predicate in expr.predicates:
            items, delta = self._apply_predicate(
                predicate, items, context, delta
            )
        return EvalResult(list(items), delta)

    # ------------------------------------------------------------------
    # Function calls (Fig. 3)
    # ------------------------------------------------------------------

    def _eval_call(self, expr: core.CCall, context: DynamicContext) -> EvalResult:
        resolved = self.functions.resolve(expr.name, len(expr.args))
        # Fig. 3: arguments are evaluated left to right, their deltas are
        # concatenated, then the body delta follows.
        arg_values: list[Sequence] = []
        delta = _EMPTY
        for arg in expr.args:
            arg_value, arg_delta = self.evaluate(arg, context)
            arg_values.append(arg_value)
            delta = delta + arg_delta
        if isinstance(resolved, core.CFunction):
            from repro.semantics.compiled import compiled_function

            body = compiled_function(self.functions, resolved)
            depth = self.enter_call(expr.name)
            try:
                if type(body) is core.CCompiled:
                    # The closure appends its requests to a sink of its
                    # own, which becomes this call's body Δ.
                    outer, self.pending = self.pending, []
                    try:
                        body_value = list(body.invoke(self, arg_values))
                        body_delta = Delta.from_iterable(self.pending)
                    finally:
                        self.pending = outer
                    return EvalResult(body_value, delta + body_delta)
                body_context = DynamicContext(
                    dict(zip(resolved.params, arg_values)),
                    globals_=self.globals,
                )
                body_value, body_delta = self.evaluate(body, body_context)
            except RecursionError:
                if depth > 1:
                    raise
                raise self.stack_exhausted(expr.name) from None
            finally:
                self.call_depth = depth - 1
            return EvalResult(body_value, delta + body_delta)
        # Built-in: pure by construction (no update requests).
        return EvalResult(resolved(self, context, arg_values), delta)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    def _resolve_ctor_name(
        self, name: str | core.CoreExpr, context: DynamicContext, what: str
    ) -> tuple[str, UpdateList]:
        if isinstance(name, str):
            return name, _EMPTY
        value, delta = self.evaluate(name, context)
        return ctor_name(value, what), delta

    def _eval_elem(self, expr: core.CElem, context: DynamicContext) -> EvalResult:
        """Element construction: content nodes are deep-copied into the new
        element (the XQuery 1.0 copy semantics the paper leans on in its
        normalization rule); content is processed per enclosed expression
        (see _populate_element)."""
        name, delta = self._resolve_ctor_name(expr.name, context, "element")
        parts: list[tuple[Sequence, bool]] = []
        for content_expr in expr.content:
            content_value, content_delta = self.evaluate(content_expr, context)
            parts.append((content_value, is_fresh(content_expr)))
            delta = delta + content_delta
        return EvalResult(self.make_element(name, parts), delta)

    def make_element(
        self, name: str, parts: list[tuple[Sequence, bool]]
    ) -> Sequence:
        element = self.store.create_element(name)
        self._populate_element(element, parts)
        return [Node(self.store, element)]

    def _populate_element(
        self, element: int, parts: list[tuple[Sequence, bool]]
    ) -> None:
        """Attach content to a new element or document (XQuery 1.0
        §3.7.1.3).  *parts* holds one (value, fresh) pair per enclosed
        expression: adjacent atomics of one value become one
        space-separated text, adjacent texts merge with no separator,
        empty texts are dropped and a document contributes its children.
        Nodes are copied unless *fresh* says a constructor made them for
        this content alone (then the copy is the node itself, §3.3).  Two
        attributes with one name raise XQDY0025."""
        store = self.store
        # The pending run of adjacent text: (text, node id) pieces, the id
        # set only for a fresh text node, which a run of one reuses.
        run: list[tuple[str, int | None]] = []
        seen_content = False

        def flush() -> None:
            text = "".join(piece for piece, _ in run)
            if text:
                nid = run[0][1] if len(run) == 1 else None
                if nid is None:
                    nid = store.create_text(text)
                store.append_child(element, nid)
            run.clear()

        for value, fresh in parts:
            atomics: list[str] = []
            for item in value:
                if isinstance(item, AtomicValue):
                    seen_content = True
                    atomics.append(item.lexical())
                    continue
                if atomics:
                    run.append((" ".join(atomics), None))
                    atomics = []
                kind, nid = item.kind, item.nid
                if kind is NodeKind.ATTRIBUTE:
                    if seen_content:
                        raise TypeError_(
                            "attribute constructors must precede other "
                            "element content (XQTY0024)"
                        )
                    name = store.name(nid)
                    if store.attribute_named(element, name) is not None:
                        raise DynamicError(
                            f"element constructor has two attributes "
                            f"named {name!r} (XQDY0025)",
                            code="XQDY0025",
                        )
                    store.set_attribute(
                        element, nid if fresh else store.deep_copy(nid)
                    )
                    continue
                seen_content = True
                if kind is NodeKind.DOCUMENT:
                    for child in store.children(nid):
                        if store.kind(child) is NodeKind.TEXT:
                            run.append((store.value(child) or "", None))
                        else:
                            flush()
                            store.append_child(
                                element, store.deep_copy(child)
                            )
                elif kind is NodeKind.TEXT:
                    run.append(
                        (store.value(nid) or "", nid if fresh else None)
                    )
                else:
                    flush()
                    store.append_child(
                        element, nid if fresh else store.deep_copy(nid)
                    )
            if atomics:
                run.append((" ".join(atomics), None))
        flush()

    def _eval_attr(self, expr: core.CAttr, context: DynamicContext) -> EvalResult:
        name, delta = self._resolve_ctor_name(expr.name, context, "attribute")
        parts: list[str] = []
        for part in expr.parts:
            if isinstance(part, str):
                parts.append(part)
            else:
                part_value, part_delta = self.evaluate(part, context)
                delta = delta + part_delta
                parts.append(sequence_string(part_value))
        attr = self.store.create_attribute(name, "".join(parts))
        return EvalResult([Node(self.store, attr)], delta)

    def _eval_text(self, expr: core.CText, context: DynamicContext) -> EvalResult:
        if expr.content is None:
            return EvalResult([], _EMPTY)
        value, delta = self.evaluate(expr.content, context)
        return EvalResult(self.make_text(value), delta)

    def make_text(self, value: Sequence) -> Sequence:
        if not value:
            return []
        node = self.store.create_text(sequence_string(value))
        return [Node(self.store, node)]

    def _eval_comment(self, expr: core.CComment, context: DynamicContext) -> EvalResult:
        if expr.content is None:
            return EvalResult([], _EMPTY)
        value, delta = self.evaluate(expr.content, context)
        node = self.store.create_comment(sequence_string(value))
        return EvalResult([Node(self.store, node)], delta)

    def _eval_doc(self, expr: core.CDoc, context: DynamicContext) -> EvalResult:
        doc = self.store.create_document()
        delta = _EMPTY
        if expr.content is not None:
            value, delta = self.evaluate(expr.content, context)
            # Content is processed like element content (one enclosed
            # expression); attributes are rejected by the store
            # (documents cannot carry them).
            self._populate_element(doc, [(value, False)])
        return EvalResult([Node(self.store, doc)], delta)

    def _eval_pi(self, expr: core.CPI, context: DynamicContext) -> EvalResult:
        target, delta = self._resolve_ctor_name(expr.target, context, "PI")
        text = ""
        if expr.content is not None:
            value, content_delta = self.evaluate(expr.content, context)
            delta = delta + content_delta
            text = sequence_string(value)
        node = self.store.create_processing_instruction(target, text)
        return EvalResult([Node(self.store, node)], delta)

    # ------------------------------------------------------------------
    # XQuery! operations (Fig. 2)
    # ------------------------------------------------------------------

    def _eval_copy(self, expr: core.CCopy, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.source, context)
        return EvalResult(self.copy(value, is_fresh(expr.source)), delta)

    def copy(self, value: Sequence, fresh: bool) -> Sequence:
        """copy{Expr}: deep copy via the data-model operation; atomic items
        pass through unchanged.  A node a constructor just made (*fresh*)
        is reachable from nothing else, so its copy is the node itself:
        the §3.3 normalization copy of ``insert { <a/> }`` allocates
        nothing."""
        if fresh:
            return value
        copied: Sequence = []
        for item in value:
            if isinstance(item, Node):
                copied.append(Node(self.store, self.store.deep_copy(item.nid)))
            else:
                copied.append(item)
        return copied

    def _eval_insert(self, expr: core.CInsert, context: DynamicContext) -> EvalResult:
        """Fig. 2 insert rule: evaluate the (already copy-wrapped) source,
        then the target, then run the InsertLocation judgment and emit the
        insert request (see :func:`insert_request`)."""
        source_value, delta1 = self.evaluate(expr.source, context)
        target_value, delta2 = self.evaluate(expr.target, context)
        request = insert_request(
            self.store, expr.position, source_value, target_value
        )
        return EvalResult([], delta1 + delta2 + Delta.leaf(request))

    def _eval_delete(self, expr: core.CDelete, context: DynamicContext) -> EvalResult:
        """Fig. 2 delete rule, generalized to node sequences (the paper's
        own use case deletes ``$log/logentry``, a sequence)."""
        value, delta = self.evaluate(expr.target, context)
        return EvalResult(
            [], delta + Delta.from_iterable(delete_requests(value))
        )

    def _eval_replace(self, expr: core.CReplace, context: DynamicContext) -> EvalResult:
        """Fig. 2 replace rule:
        Δ3 = (Δ1, Δ2, insert(nodeseq, nodepar, node), delete(node))."""
        target_value, delta1 = self.evaluate(expr.target, context)
        source_value, delta2 = self.evaluate(expr.source, context)
        insert, delete = replace_requests(
            self.store, target_value, source_value
        )
        return EvalResult(
            [], delta1 + delta2 + Delta.leaf(insert) + Delta.leaf(delete)
        )

    def _eval_replace_value(
        self, expr: core.CReplaceValue, context: DynamicContext
    ) -> EvalResult:
        """replace value of {t} with {s}: atomize the source to a string
        and request a content overwrite of the target node."""
        target_value, delta1 = self.evaluate(expr.target, context)
        source_value, delta2 = self.evaluate(expr.source, context)
        request = set_value_request(target_value, source_value)
        return EvalResult([], delta1 + delta2 + Delta.leaf(request))

    def _eval_rename(self, expr: core.CRename, context: DynamicContext) -> EvalResult:
        target_value, delta1 = self.evaluate(expr.target, context)
        name_value, delta2 = self.evaluate(expr.name, context)
        request = rename_request(target_value, name_value)
        return EvalResult([], delta1 + delta2 + Delta.leaf(request))

    def _eval_snap(self, expr: core.CSnap, context: DynamicContext) -> EvalResult:
        """Fig. 2 snap rule: evaluate the body, apply its Δ to the (possibly
        already modified) store, return the value with an empty Δ.  The
        stack-like nesting behaviour falls out of the recursion."""
        value, delta = self.evaluate(expr.body, context)
        # Check before applying: an interrupt must discard this snap's Δ,
        # never land mid-application.
        if self.control is not None:
            self.control.check()
        self.apply_updates(delta, ApplySemantics.from_keyword(expr.mode))
        return EvalResult(value, _EMPTY)

    def _eval_typeswitch(self, expr: core.CTypeswitch, context: DynamicContext) -> EvalResult:
        """typeswitch: operand evaluated once; first matching case wins;
        untaken branches are not evaluated (their effects never fire)."""
        operand_value, delta = self.evaluate(expr.operand, context)
        for case in expr.cases:
            if matches_sequence_type(operand_value, case.type_):
                inner = context
                if case.var is not None:
                    inner = context.bind(case.var, operand_value)
                value, case_delta = self.evaluate(case.ret, inner)
                return EvalResult(value, delta + case_delta)
        inner = context
        if expr.default_var is not None:
            inner = context.bind(expr.default_var, operand_value)
        value, default_delta = self.evaluate(expr.default, inner)
        return EvalResult(value, delta + default_delta)

    # ------------------------------------------------------------------
    # Dynamic typing operators
    # ------------------------------------------------------------------

    def _eval_instance_of(self, expr: core.CInstanceOf, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.operand, context)
        result = matches_sequence_type(value, expr.type_)
        return EvalResult([AtomicValue.boolean(result)], delta)

    def _eval_treat(self, expr: core.CTreat, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.operand, context)
        return EvalResult(treat_value(expr.type_, value), delta)

    def _eval_cast(self, expr: core.CCast, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.operand, context)
        return EvalResult(cast_value(expr, value), delta)


# ----------------------------------------------------------------------
# Axis iteration and node tests (on node ids)
# ----------------------------------------------------------------------

def _axis_ids(store, nid: int, axis: str):
    """The node ids of *axis* from *nid*, in axis order (reverse axes
    nearest-first; steps sort them into document order afterwards)."""
    if axis == "child":
        return store.children(nid)
    if axis == "descendant":
        return store.descendants(nid)
    if axis == "descendant-or-self":
        return store.descendants(nid, include_self=True)
    if axis == "attribute":
        return store.attributes(nid)
    if axis == "self":
        return (nid,)
    if axis == "parent":
        parent = store.parent(nid)
        return () if parent is None else (parent,)
    if axis == "ancestor":
        return store.ancestors(nid)
    if axis == "ancestor-or-self":
        return store.ancestors(nid, include_self=True)
    if axis == "following-sibling":
        return _sibling_ids(store, nid, after=True)
    if axis == "preceding-sibling":
        return _sibling_ids(store, nid, after=False)[::-1]
    if axis == "following":
        return _following_ids(store, nid)
    if axis == "preceding":
        return _preceding_ids(store, nid)[::-1]
    raise DynamicError(f"unsupported axis {axis!r}")


# Axes whose axis order is document order without duplicates: a step on
# one of them from a single context node needs no sort.
FORWARD_AXES = frozenset((
    "child", "descendant", "descendant-or-self", "attribute", "self",
    "following-sibling", "following",
))


def _sibling_ids(store, nid: int, after: bool) -> list[int]:
    parent = store.parent(nid)
    if parent is None or store.kind(nid) is NodeKind.ATTRIBUTE:
        return []
    siblings = store.children(parent)
    index = siblings.index(nid)
    return list(siblings[index + 1:] if after else siblings[:index])


def _following_ids(store, nid: int) -> list[int]:
    out: list[int] = []
    for ancestor in store.ancestors(nid, include_self=True):
        for sibling in _sibling_ids(store, ancestor, after=True):
            out.extend(store.descendants(sibling, include_self=True))
    return out


def _preceding_ids(store, nid: int) -> list[int]:
    ancestor_ids = set(store.ancestors(nid))
    out: list[int] = []
    for ancestor in store.ancestors(nid, include_self=True):
        for sibling in _sibling_ids(store, ancestor, after=False):
            if sibling in ancestor_ids:
                continue
            out.extend(store.descendants(sibling, include_self=True))
    return out


_KIND_TESTS = {
    "text": NodeKind.TEXT,
    "comment": NodeKind.COMMENT,
    "document-node": NodeKind.DOCUMENT,
}


def node_test(
    test: core.CNodeTest, axis: str
) -> Callable[[Store, int], bool]:
    """The step's node test as a predicate on (store, node id)."""
    kind, name = test.kind, test.name
    if kind == "node":
        return lambda store, nid: True
    if kind in _KIND_TESTS:
        want = _KIND_TESTS[kind]
        return lambda store, nid: store.kind(nid) is want
    if kind in ("name", "element", "attribute"):
        if kind == "name":
            want = (
                NodeKind.ATTRIBUTE if axis == "attribute" else NodeKind.ELEMENT
            )
            wild = name == "*"
        else:
            want = (
                NodeKind.ELEMENT if kind == "element" else NodeKind.ATTRIBUTE
            )
            wild = name in (None, "*")
        if wild:
            return lambda store, nid: store.kind(nid) is want
        return lambda store, nid: (
            store.kind(nid) is want and store.name(nid) == name
        )
    if kind == "processing-instruction":
        pi = NodeKind.PROCESSING_INSTRUCTION
        return lambda store, nid: store.kind(nid) is pi and (
            name is None or store.name(nid) == name
        )

    def unsupported(store, nid):
        raise DynamicError(f"unsupported node test {kind!r}")

    return unsupported


def step_context(item, axis: str) -> Node:
    """The node an axis step starts from: the focus, which must be a
    node."""
    if item is None:
        raise no_context_item()
    if not isinstance(item, Node):
        raise TypeError_(f"axis step {axis}::... requires a node context item")
    return item


def root_value(item) -> Sequence:
    if item is None:
        raise no_context_item()
    if not isinstance(item, Node):
        raise TypeError_("'/' requires the context item to be a node")
    return [Node(item.store, item.store.root(item.nid))]


def path_result(results: Sequence) -> Sequence:
    """A path's step results: nodes in document order, or atomics."""
    has_nodes = any(isinstance(item, Node) for item in results)
    has_atomics = any(not isinstance(item, Node) for item in results)
    if has_nodes and has_atomics:
        raise TypeError_(
            "path step produced both nodes and atomic values"
        )
    if has_nodes:
        return list(nodes_in_document_order(results))
    return results


# ----------------------------------------------------------------------
# Step shapes: properties of the expression, decided once per compiled
# step (and per evaluation by the tree-walker)
# ----------------------------------------------------------------------

class ProbeShape(NamedTuple):
    """A step whose first predicate the value indexes can answer."""

    kind: str  # "attr" (A), "contains" (B), "child" (C) or "range" (D)
    name: str  # the step's element name
    axis: str
    key: str | None  # the compared attribute or child element name
    # The variable or literal compared with; for "range", a tuple of
    # them, one per bound, each compared by the op at the same place in
    # *ops* as ``number(key) op operand``.
    operand: core.CoreExpr | tuple[core.CoreExpr, ...]
    ops: tuple[str, ...] = ()


class AttrShape(NamedTuple):
    """A ``step[@name <op> $var]`` predicate (``flipped``: ``$var`` is
    the left operand)."""

    name: str
    op: str
    flipped: bool
    operand: core.CoreExpr


def probe_owners(
    store,
    ids,
    name: str,
    root: int,
    axis: str = "descendant",
    via: str | None = None,
) -> list[int]:
    """The elements named *name* on *axis* from *root* whose child is an
    index hit in *ids* (an attribute, or a range probe's ``c``), or with
    *via* whose child named *via* has it, deduplicated in document
    order.  The value indexes are store-wide and also list detached
    nodes, so each hit's names and place are checked here."""

    def element(nid: int | None, wanted: str) -> bool:
        return (
            nid is not None
            and store.name(nid) == wanted
            and store.kind(nid) is NodeKind.ELEMENT
        )

    or_self = axis == "descendant-or-self"
    out = []
    for nid in ids:
        owner = store.parent(nid)
        if via is not None:
            if not element(owner, via):
                continue
            owner = store.parent(owner)
        if not element(owner, name):
            continue
        if axis == "child":
            if store.parent(owner) == root:
                out.append(owner)
        elif Evaluator._contained(store, owner, root, or_self):
            out.append(owner)
    return store.sort_document_order(out)


def bare_step_name(expr: core.CoreExpr, axis: str) -> str | None:
    """The name when *expr* is a predicate-free ``axis::name`` step."""
    if (
        isinstance(expr, core.CAxisStep)
        and expr.axis == axis
        and expr.test.kind == "name"
        and expr.test.name not in (None, "*")
        and not expr.predicates
    ):
        return expr.test.name
    return None


def _attr_compare_operand(side: core.CoreExpr) -> str | None:
    """The attribute name when *side* is a bare ``@name`` step."""
    return bare_step_name(side, "attribute")


def _child_step_operand(side: core.CoreExpr) -> str | None:
    """The element name when *side* is a bare ``child`` name step."""
    return bare_step_name(side, "child")


def _eq_comparand(
    predicate: core.CComparison, operand_of: Callable
) -> tuple[str, core.CoreExpr, bool] | None:
    """Match one side of a general comparison with *operand_of* (a bare
    ``@attr`` or ``child`` step recognizer) when the other side is a
    variable or literal; the flag says the step is the right side."""
    left = operand_of(predicate.left)
    if left is not None and isinstance(
        predicate.right, (core.CVar, core.CLiteral)
    ):
        return left, predicate.right, False
    right = operand_of(predicate.right)
    if right is not None and isinstance(
        predicate.left, (core.CVar, core.CLiteral)
    ):
        return right, predicate.left, True
    return None


def _is_context_string(expr: core.CoreExpr) -> bool:
    """``.`` or ``string(.)``/``string()`` — shapes whose value under a
    node focus is exactly the node's string value."""
    if isinstance(expr, core.CContext):
        return True
    return (
        isinstance(expr, core.CCall)
        and expr.name == "string"
        and (
            not expr.args
            or (
                len(expr.args) == 1
                and isinstance(expr.args[0], core.CContext)
            )
        )
    )


#: The op of ``X op number(c)`` restated as ``number(c) op' X``.
_FLIPPED = {"eq": "eq", "lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}


def _number_bound(
    predicate: core.CoreExpr,
) -> tuple[str, str, core.CoreExpr] | None:
    """``(c, op, X)`` when *predicate* is the general comparison
    ``number(c) op X`` or ``X op number(c)`` with op one of = < <= > >=
    (never ``!=``: NaN != X is true) and X a variable or literal; the
    op is restated with ``number(c)`` on the left."""
    if not (
        isinstance(predicate, core.CComparison)
        and predicate.style == "general"
        and predicate.op in _FLIPPED
    ):
        return None
    for side, other, op in (
        (predicate.left, predicate.right, predicate.op),
        (predicate.right, predicate.left, _FLIPPED[predicate.op]),
    ):
        if (
            isinstance(side, core.CCall)
            and side.name == "number"
            and len(side.args) == 1
            and isinstance(other, (core.CVar, core.CLiteral))
        ):
            name = _child_step_operand(side.args[0])
            if name is not None:
                return name, op, other
    return None


def _range_shape(
    axis: str, name: str, predicate: core.CoreExpr
) -> ProbeShape | None:
    """Shape (D): one ``number(c)`` bound, or an ``and`` of two on the
    same ``c``."""
    if isinstance(predicate, core.CBool) and predicate.op == "and":
        bounds = [
            _number_bound(predicate.left), _number_bound(predicate.right)
        ]
    else:
        bounds = [_number_bound(predicate)]
    if None in bounds or len({bound[0] for bound in bounds}) != 1:
        return None
    return ProbeShape(
        "range",
        name,
        axis,
        bounds[0][0],
        tuple(bound[2] for bound in bounds),
        tuple(bound[1] for bound in bounds),
    )


def probe_shape(
    axis: str, test: core.CNodeTest, predicate: core.CoreExpr
) -> ProbeShape | None:
    """The probe shape of ``axis::test[predicate...]``, or None."""
    if axis not in ("child", "descendant", "descendant-or-self"):
        return None
    if test.kind != "name" or test.name in (None, "*"):
        return None
    shape = _range_shape(axis, test.name, predicate)
    if shape is not None:
        return shape
    if isinstance(predicate, core.CComparison):
        if predicate.style != "general" or predicate.op != "eq":
            return None
        contains = False
    elif (
        isinstance(predicate, core.CCall)
        and predicate.name == "contains"
        and len(predicate.args) == 2
        and axis != "child"
    ):
        contains = True
    else:
        return None
    if contains:
        haystack, needle = predicate.args
        if not _is_context_string(haystack) or not isinstance(
            needle, (core.CVar, core.CLiteral)
        ):
            return None
        return ProbeShape("contains", test.name, axis, None, needle)
    # '=' is symmetric in the collapse case: operand order is irrelevant.
    matched = _eq_comparand(predicate, _attr_compare_operand)
    if matched is not None:
        return ProbeShape("attr", test.name, axis, matched[0], matched[1])
    if axis != "child":
        matched = _eq_comparand(predicate, _child_step_operand)
        if matched is not None:
            return ProbeShape(
                "child", test.name, axis, matched[0], matched[1]
            )
    return None


def attr_filter_shape(predicate: core.CoreExpr) -> AttrShape | None:
    """The attribute-compare fast-path shape of a predicate, or None."""
    if not (
        isinstance(predicate, core.CComparison)
        and predicate.style == "general"
    ):
        return None
    matched = _eq_comparand(predicate, _attr_compare_operand)
    if matched is None:
        return None
    name, operand, flipped = matched
    return AttrShape(name, predicate.op, flipped, operand)


# ----------------------------------------------------------------------
# Value rules, shared by the tree-walker and the compiled closures
# ----------------------------------------------------------------------

def _predicate_truth(value: Sequence, position: int) -> bool:
    """Positional semantics: a numeric singleton predicate selects by
    position; anything else goes through the effective boolean value."""
    if len(value) == 1 and isinstance(value[0], AtomicValue) and is_numeric(value[0]):
        return to_double(value[0].value) == position
    return effective_boolean_value(value)


def _require_integer(av: AtomicValue, what: str) -> int:
    av = cast_to_number(av)
    if av.type == XS_INTEGER:
        return int(av.value)
    if float(av.value).is_integer():
        return int(av.value)
    raise TypeError_(f"{what} must be an integer, got {av.lexical()}")


def range_value(lo_value: Sequence, hi_value: Sequence) -> Sequence:
    lo = atomize_optional(lo_value, "range start")
    hi = atomize_optional(hi_value, "range end")
    if lo is None or hi is None:
        return []
    lo_n = _require_integer(lo, "range start")
    hi_n = _require_integer(hi, "range end")
    return [AtomicValue.integer(i) for i in range(lo_n, hi_n + 1)]


def arith_value(
    op: str, left_value: Sequence, right_value: Sequence
) -> Sequence:
    left = atomize_optional(left_value, "left operand")
    right = atomize_optional(right_value, "right operand")
    if left is None or right is None:
        return []
    return [arithmetic(op, left, right)]


def unary_value(op: str, value: Sequence) -> Sequence:
    av = atomize_optional(value, "unary operand")
    if av is None:
        return []
    av = cast_to_number(av)
    if op == "-":
        # Negation preserves the numeric type (int/Decimal/float all
        # support unary minus directly).
        return [AtomicValue(av.type, -av.value)]
    return [av]


def compare_value(
    store: Store, expr: core.CComparison, left_value: Sequence,
    right_value: Sequence,
) -> Sequence:
    if expr.style == "general":
        result = general_compare(expr.op, left_value, right_value)
        return [AtomicValue.boolean(result)]
    if expr.style == "value":
        return value_compare(expr.op, left_value, right_value)
    # Node comparison: is, <<, >>.
    if not left_value or not right_value:
        return []
    left_node = single_node(left_value, "node comparison operand")
    right_node = single_node(right_value, "node comparison operand")
    if expr.op == "is":
        result = left_node == right_node
    else:
        order = store.compare_order(left_node.nid, right_node.nid)
        result = order < 0 if expr.op == "precedes" else order > 0
    return [AtomicValue.boolean(result)]


def set_value(
    op: str, left_value: Sequence, right_value: Sequence
) -> Sequence:
    left_nodes = node_sequence(left_value, f"{op} operand")
    right_nodes = node_sequence(right_value, f"{op} operand")
    if op == "union":
        combined = left_nodes + right_nodes
    elif op == "intersect":
        right_ids = {n.nid for n in right_nodes}
        combined = [n for n in left_nodes if n.nid in right_ids]
    else:  # except
        right_ids = {n.nid for n in right_nodes}
        combined = [n for n in left_nodes if n.nid not in right_ids]
    return list(nodes_in_document_order(combined))


def ctor_name(value: Sequence, what: str) -> str:
    av = atomize_single(value, f"{what} name")
    text = av.lexical().strip()
    if not text:
        raise TypeError_(f"empty {what} name")
    return text


def treat_value(type_, value: Sequence) -> Sequence:
    """treat as: identity when the value matches, XPDY0050 otherwise."""
    if not matches_sequence_type(value, type_):
        raise TypeError_(
            f"treat as {type_}: value does not match", code="XPDY0050"
        )
    return value


def cast_value(expr: core.CCast, value: Sequence) -> Sequence:
    av = atomize_optional(value, "cast operand")
    if av is None:
        if expr.castable:
            return [AtomicValue.boolean(expr.optional)]
        if expr.optional:
            return []
        raise TypeError_("cast of an empty sequence requires '?'")
    if expr.castable:
        try:
            cast_atomic(av, expr.type_name)
            return [AtomicValue.boolean(True)]
        except TypeError_:
            return [AtomicValue.boolean(False)]
    return [cast_atomic(av, expr.type_name)]


def content_ids(store: Store, value: Sequence) -> tuple[int, ...]:
    """An insert/replace source as node ids: runs of adjacent atomics
    become one space-joined text node each (as in element content
    construction), nodes pass through."""
    ids: list[int] = []
    pending: list[str] = []
    for item in value:
        if isinstance(item, AtomicValue):
            pending.append(item.lexical())
            continue
        if pending:
            ids.append(store.create_text(" ".join(pending)))
            pending = []
        ids.append(item.nid)
    if pending:
        ids.append(store.create_text(" ".join(pending)))
    return tuple(ids)


def insert_request(
    store: Store, position: str, source_value: Sequence,
    target_value: Sequence,
) -> InsertRequest:
    """The request of ``insert {source} <position> {target}``.  The
    *target* is validated now; the exact slot (e.g. which child is
    currently last) resolves at application time — see
    :mod:`repro.semantics.update` for why the paper's own Section 3.4
    example requires this."""
    nodes = content_ids(store, source_value)
    target = single_node(target_value, "insert target")
    if position in ("first", "last"):
        if target.kind not in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            raise UpdateTargetError(
                "insert into requires an element or document target"
            )
    elif store.parent(target.nid) is None:
        raise UpdateTargetError(
            f"insert {position} requires a target with a parent"
        )
    return InsertRequest(nodes=nodes, position=position, target=target.nid)


def delete_requests(value: Sequence) -> list[DeleteRequest]:
    nodes = node_sequence(value, "delete target")
    return [DeleteRequest(node.nid) for node in nodes]


def replace_requests(
    store: Store, target_value: Sequence, source_value: Sequence
) -> tuple[InsertRequest, DeleteRequest]:
    """Fig. 2's ``insert(nodeseq, nodepar, node)`` then ``delete(node)``
    of one replace, sharing a group token so the conflict checker treats
    the pair as a single logical write."""
    target = single_node(target_value, "replace target")
    nodes = content_ids(store, source_value)
    parent = store.parent(target.nid)
    if parent is None:
        raise UpdateTargetError("replace target must have a parent")
    group = next_group()
    if target.kind is NodeKind.ATTRIBUTE:
        # The new nodes become attributes of the parent element; there
        # is no sibling anchor.
        insert = InsertRequest(
            nodes=nodes, position="last", target=parent, group=group
        )
    else:
        # The new nodes land right after the node being replaced.
        insert = InsertRequest(
            nodes=nodes, position="after", target=target.nid, group=group
        )
    return insert, DeleteRequest(target.nid, group=group)


def set_value_request(
    target_value: Sequence, source_value: Sequence
) -> SetValueRequest:
    target = single_node(target_value, "replace value of target")
    return SetValueRequest(target.nid, sequence_string(source_value))


def rename_request(
    target_value: Sequence, name_value: Sequence
) -> RenameRequest:
    target = single_node(target_value, "rename target")
    name = atomize_single(name_value, "rename name").lexical().strip()
    if not name:
        raise UpdateTargetError("rename requires a non-empty name")
    return RenameRequest(target.nid, name)


def sort_keyed(keyed: list, specs: list[core.COrderSpec]) -> list:
    """Stable multi-key order-by sort of ``(keys, payload)`` pairs, in
    place: by the last key first."""
    for index in range(len(specs) - 1, -1, -1):
        spec = specs[index]
        keyed.sort(
            key=lambda pair: _OrderKey(pair[0][index], spec),
            reverse=spec.descending,
        )
    return keyed


# Constructors whose value is a node made for the enclosing expression
# alone (never a document: element content takes a document's children).
_FRESH_NODE = frozenset(
    (core.CElem, core.CAttr, core.CText, core.CComment, core.CPI)
)


def is_fresh(expr: core.CoreExpr) -> bool:
    """True when every node *expr* returns is one its own constructors
    made for this value alone, so copying it copies nothing anyone else
    can see: a constructor, ``()``, a ``for``/``let``/ordered FLWOR whose
    return is fresh, an ``if`` whose branches are, or a sequence of fresh
    items.  A variable is never fresh: ``let $a := <a/> return $a``
    copies, because ``$a`` may be read again."""
    kind = type(expr)
    if kind in _FRESH_NODE or kind is core.CEmpty:
        return True
    if kind is core.CFor or kind is core.CLet:
        return is_fresh(expr.body)
    if kind is core.COrderedFLWOR:
        return is_fresh(expr.ret)
    if kind is core.CIf:
        return is_fresh(expr.then) and is_fresh(expr.orelse)
    if kind is core.CSequence or kind is core.CSequenced:
        return all(is_fresh(item) for item in expr.items)
    return False


# Evaluation rule per core node type, shared by every evaluator and fork.
_DISPATCH = {
    core.CLiteral: Evaluator._eval_literal,
    core.CVar: Evaluator._eval_var,
    core.CContext: Evaluator._eval_context,
    core.CEmpty: Evaluator._eval_empty,
    core.CRoot: Evaluator._eval_root,
    core.CSequence: Evaluator._eval_sequence,
    core.CSequenced: Evaluator._eval_sequence,  # ';' == ',' dynamically
    core.CRange: Evaluator._eval_range,
    core.CArith: Evaluator._eval_arith,
    core.CUnary: Evaluator._eval_unary,
    core.CComparison: Evaluator._eval_comparison,
    core.CBool: Evaluator._eval_bool,
    core.CSet: Evaluator._eval_set,
    core.CIf: Evaluator._eval_if,
    core.CFor: Evaluator._eval_for,
    core.CLet: Evaluator._eval_let,
    core.COrderedFLWOR: Evaluator._eval_ordered_flwor,
    core.CQuantified: Evaluator._eval_quantified,
    core.CAxisStep: Evaluator._eval_axis_step,
    core.CPath: Evaluator._eval_path,
    core.CGroupedPath: Evaluator._eval_grouped_path,
    core.CFilter: Evaluator._eval_filter,
    core.CCall: Evaluator._eval_call,
    core.CElem: Evaluator._eval_elem,
    core.CAttr: Evaluator._eval_attr,
    core.CText: Evaluator._eval_text,
    core.CComment: Evaluator._eval_comment,
    core.CDoc: Evaluator._eval_doc,
    core.CPI: Evaluator._eval_pi,
    core.CCopy: Evaluator._eval_copy,
    core.CInsert: Evaluator._eval_insert,
    core.CDelete: Evaluator._eval_delete,
    core.CReplace: Evaluator._eval_replace,
    core.CReplaceValue: Evaluator._eval_replace_value,
    core.CRename: Evaluator._eval_rename,
    core.CSnap: Evaluator._eval_snap,
    core.CInstanceOf: Evaluator._eval_instance_of,
    core.CCast: Evaluator._eval_cast,
    core.CTypeswitch: Evaluator._eval_typeswitch,
    core.CTreat: Evaluator._eval_treat,
}


class _OrderKey:
    """Comparable wrapper for order-by keys with empty-sequence handling.

    The comparison is defined in *ascending semantic space*: with ``empty
    least`` (the default) the empty sequence is less than every value, with
    ``empty greatest`` it is greater.  ``list.sort(reverse=True)`` then
    realizes descending order — which correctly puts an 'empty least' key
    *last* on a descending sort, per the XQuery rules.
    """

    __slots__ = ("av", "spec")

    def __init__(self, av: AtomicValue | None, spec: core.COrderSpec):
        self.av = av
        self.spec = spec

    def _empty_is_least(self) -> bool:
        return True if self.spec.empty_least is None else self.spec.empty_least

    def __lt__(self, other: "_OrderKey") -> bool:
        if self.av is None and other.av is None:
            return False
        if self.av is None:
            return self._empty_is_least()
        if other.av is None:
            return not self._empty_is_least()
        try:
            return compare_atomic(self.av, other.av) < 0
        except TypeError_:
            return False
