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
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from repro.errors import (
    DynamicError,
    TypeError_,
    UpdateTargetError,
)
from repro.lang import core_ast as core
from repro.semantics.arithmetic import arithmetic
from repro.semantics.context import DynamicContext, FunctionRegistry
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
    atomize_optional,
    atomize_single,
    cast_to_number,
    effective_boolean_value,
    is_numeric,
    node_sequence,
    sequence_string,
    single_node,
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


class Evaluator:
    """Tree-walking evaluator over core expressions.

    One evaluator instance owns one store; the dynamic context is passed
    per call.  ``globals`` holds the module-level variable bindings visible
    inside function bodies.
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
        # probes on descendant steps.  Installed per call from
        # ExecutionOptions(use_indexes=...); with False the evaluator
        # runs the generic scan paths — the reference semantics the
        # equivalence property compares against.
        self.use_indexes = use_name_index
        # Observability: a repro.obs.Tracer while a traced execution is in
        # flight, else None (the default — hot paths guard on None).
        self.tracer = None
        # Execution control: a repro.concurrent.ExecutionControl while a
        # deadline/cancellable execution is in flight, else None.  Polled
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
        self._dispatch = {
            core.CLiteral: self._eval_literal,
            core.CVar: self._eval_var,
            core.CContext: self._eval_context,
            core.CEmpty: self._eval_empty,
            core.CRoot: self._eval_root,
            core.CSequence: self._eval_sequence,
            core.CSequenced: self._eval_sequence,  # ';' == ',' dynamically
            core.CRange: self._eval_range,
            core.CArith: self._eval_arith,
            core.CUnary: self._eval_unary,
            core.CComparison: self._eval_comparison,
            core.CBool: self._eval_bool,
            core.CSet: self._eval_set,
            core.CIf: self._eval_if,
            core.CFor: self._eval_for,
            core.CLet: self._eval_let,
            core.COrderedFLWOR: self._eval_ordered_flwor,
            core.CQuantified: self._eval_quantified,
            core.CAxisStep: self._eval_axis_step,
            core.CPath: self._eval_path,
            core.CFilter: self._eval_filter,
            core.CCall: self._eval_call,
            core.CElem: self._eval_elem,
            core.CAttr: self._eval_attr,
            core.CText: self._eval_text,
            core.CComment: self._eval_comment,
            core.CDoc: self._eval_doc,
            core.CPI: self._eval_pi,
            core.CCopy: self._eval_copy,
            core.CInsert: self._eval_insert,
            core.CDelete: self._eval_delete,
            core.CReplace: self._eval_replace,
            core.CReplaceValue: self._eval_replace_value,
            core.CRename: self._eval_rename,
            core.CSnap: self._eval_snap,
            core.CInstanceOf: self._eval_instance_of,
            core.CCast: self._eval_cast,
            core.CTypeswitch: self._eval_typeswitch,
            core.CTreat: self._eval_treat,
        }

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def evaluate(self, expr: core.CoreExpr, context: DynamicContext) -> EvalResult:
        """Evaluate *expr*, returning its value and pending update list."""
        method = self._dispatch.get(type(expr))
        if method is None:
            raise DynamicError(f"no evaluation rule for {type(expr).__name__}")
        return method(expr, context)

    def run_snapped(
        self,
        expr: core.CoreExpr,
        context: DynamicContext,
        mode: ApplySemantics = ApplySemantics.ORDERED,
    ) -> Sequence:
        """Evaluate under the implicit top-level snap (Section 2.3: "a snap
        is always implicitly present around the top-level query")."""
        tracer = self.tracer
        if tracer is None:
            value, delta = self.evaluate(expr, context)
            # Last check before committing: a fired deadline discards the
            # pending Δ here, so a timed-out query never half-applies.
            if self.control is not None:
                self.control.check()
            apply_update_list(
                self.store, delta, mode,
                atomic=self.atomic_snaps, journal=self.journal,
                control=self.control, txn_log=self.txn_log,
            )
            return value
        with tracer.span("evaluate"):
            value, delta = self.evaluate(expr, context)
        if self.control is not None:
            self.control.check()
        with tracer.span("snap-apply"):
            apply_update_list(
                self.store, delta, mode,
                atomic=self.atomic_snaps, tracer=tracer,
                journal=self.journal, control=self.control,
                txn_log=self.txn_log,
            )
        return value

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
        item = context.require_context_item()
        if not isinstance(item, Node):
            raise TypeError_("'/' requires the context item to be a node")
        return EvalResult([item.root], _EMPTY)

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
        delta = delta1 + delta2
        lo = atomize_optional(lo_value, "range start")
        hi = atomize_optional(hi_value, "range end")
        if lo is None or hi is None:
            return EvalResult([], delta)
        lo_n = _require_integer(lo, "range start")
        hi_n = _require_integer(hi, "range end")
        value = [AtomicValue.integer(i) for i in range(lo_n, hi_n + 1)]
        return EvalResult(value, delta)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _eval_arith(self, expr: core.CArith, context: DynamicContext) -> EvalResult:
        left_value, delta1 = self.evaluate(expr.left, context)
        right_value, delta2 = self.evaluate(expr.right, context)
        delta = delta1 + delta2
        left = atomize_optional(left_value, "left operand")
        right = atomize_optional(right_value, "right operand")
        if left is None or right is None:
            return EvalResult([], delta)
        return EvalResult([arithmetic(expr.op, left, right)], delta)

    def _eval_unary(self, expr: core.CUnary, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.operand, context)
        av = atomize_optional(value, "unary operand")
        if av is None:
            return EvalResult([], delta)
        av = cast_to_number(av)
        if expr.op == "-":
            # Negation preserves the numeric type (int/Decimal/float all
            # support unary minus directly).
            result = AtomicValue(av.type, -av.value)
        else:
            result = av
        return EvalResult([result], delta)

    # ------------------------------------------------------------------
    # Comparisons and logic
    # ------------------------------------------------------------------

    def _eval_comparison(self, expr: core.CComparison, context: DynamicContext) -> EvalResult:
        left_value, delta1 = self.evaluate(expr.left, context)
        right_value, delta2 = self.evaluate(expr.right, context)
        delta = delta1 + delta2
        if expr.style == "general":
            result = general_compare(expr.op, left_value, right_value)
            return EvalResult([AtomicValue.boolean(result)], delta)
        if expr.style == "value":
            return EvalResult(value_compare(expr.op, left_value, right_value), delta)
        # Node comparison: is, <<, >>.
        if not left_value or not right_value:
            return EvalResult([], delta)
        left_node = single_node(left_value, "node comparison operand")
        right_node = single_node(right_value, "node comparison operand")
        if expr.op == "is":
            result = left_node == right_node
        else:
            order = self.store.compare_order(left_node.nid, right_node.nid)
            result = order < 0 if expr.op == "precedes" else order > 0
        return EvalResult([AtomicValue.boolean(result)], delta)

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
        delta = delta1 + delta2
        left_nodes = node_sequence(left_value, f"{expr.op} operand")
        right_nodes = node_sequence(right_value, f"{expr.op} operand")
        if expr.op == "union":
            combined = left_nodes + right_nodes
        elif expr.op == "intersect":
            right_ids = {n.nid for n in right_nodes}
            combined = [n for n in left_nodes if n.nid in right_ids]
        else:  # except
            right_ids = {n.nid for n in right_nodes}
            combined = [n for n in left_nodes if n.nid not in right_ids]
        return EvalResult(list(nodes_in_document_order(combined)), delta)

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
        # Stable multi-key sort: sort by the last key first.
        for index in range(len(expr.specs) - 1, -1, -1):
            spec = expr.specs[index]
            keyed.sort(
                key=lambda pair: _OrderKey(pair[0][index], spec),
                reverse=spec.descending,
            )
        value: Sequence = []
        for _, tup in keyed:
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
        item = context.require_context_item()
        if not isinstance(item, Node):
            raise TypeError_(
                f"axis step {expr.axis}::... requires a node context item"
            )
        predicates = expr.predicates
        delta = _EMPTY
        if predicates and self.use_indexes:
            probed = self._indexed_predicate_step(
                item, expr.axis, expr.test, predicates[0], context
            )
            if probed is not None:
                # The probed predicate is boolean-valued, so the probe
                # result is exactly what the scan keeps after it, in axis
                # (= document) order: the remaining predicates count
                # positions over the same list, and filtering keeps it
                # in document order.
                for predicate in predicates[1:]:
                    probed, delta = self._apply_predicate(
                        predicate, probed, context, delta
                    )
                return EvalResult(probed, delta)
        candidates = self._axis_candidates(item, expr)
        rest = predicates
        if predicates and candidates:
            kept = self._attr_compare_filter(predicates[0], candidates, context)
            if kept is not None:
                candidates, rest = kept, predicates[1:]
        for predicate in rest:
            candidates, delta = self._apply_predicate(
                predicate, candidates, context, delta
            )
        value = list(nodes_in_document_order(candidates))
        return EvalResult(value, delta)

    @staticmethod
    def _attr_compare_operand(side: core.CoreExpr) -> str | None:
        """The attribute name when *side* is a bare ``@name`` step."""
        if (
            isinstance(side, core.CAxisStep)
            and side.axis == "attribute"
            and side.test.kind == "name"
            and side.test.name not in (None, "*")
            and not side.predicates
        ):
            return side.test.name
        return None

    def _attr_compare_filter(
        self,
        predicate: core.CoreExpr,
        items: list,
        context: DynamicContext,
    ) -> list | None:
        """Direct-store filtering for the key-lookup predicate shape
        ``step[@name <op> $var]`` (either operand order; literals too).

        The generic path pays a dynamic-context + dispatch round trip per
        candidate; here the attribute value is read straight off the store
        record and compared with the exact ``general_compare`` semantics,
        so the result (value, Δ = empty, errors) is identical — the
        comparison is boolean-valued (never positional), both operands are
        effect-free, and a missing attribute compares as the empty
        sequence, i.e. false.  Returns None when the shape doesn't apply.
        """
        if not (
            isinstance(predicate, core.CComparison)
            and predicate.style == "general"
        ):
            return None
        left_name = self._attr_compare_operand(predicate.left)
        right_name = self._attr_compare_operand(predicate.right)
        if left_name is not None and isinstance(
            predicate.right, (core.CVar, core.CLiteral)
        ):
            name, other, flipped = left_name, predicate.right, False
        elif right_name is not None and isinstance(
            predicate.left, (core.CVar, core.CLiteral)
        ):
            name, other, flipped = right_name, predicate.left, True
        else:
            return None
        if any(node.kind is not NodeKind.ELEMENT for node in items):
            return None
        other_value, _ = self.evaluate(other, context)
        store = self.store
        op = predicate.op
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
            for node in items:
                aid = store.attribute_named(node.nid, name)
                if aid is None:
                    continue
                raw = store.value(aid)
                if ("" if raw is None else raw) == target:
                    kept.append(node)
            return kept
        for node in items:
            aid = store.attribute_named(node.nid, name)
            attr_value: Sequence = (
                [] if aid is None else [UntypedAtomic(store.value(aid) or "")]
            )
            if flipped:
                matched = general_compare(op, other_value, attr_value)
            else:
                matched = general_compare(op, attr_value, other_value)
            if matched:
                kept.append(node)
        return kept

    # ------------------------------------------------------------------
    # Value-index probe fast paths (repro.index)
    #
    # XPathLog's reading of E[@a = $v] as a keyed relation lookup: a
    # step's *first* predicate, when it has one of three boolean shapes,
    # goes through the store's value indexes instead of materializing
    # every candidate node and filtering:
    #
    #   (A)  name[@attr = $v]            — attribute-value hash probe, on
    #                                      child and descendant(-or-self)
    #   (B)  name[contains(string(.), $v)] — token-index probe
    #   (C)  name[child = $v]            — token-index probe on the
    #                                      child's full string value
    #
    # (B) and (C) are descendant(-or-self) only: a token probe reads the
    # whole vocabulary, which a child list rarely outweighs.  A child-axis
    # (A) probe declines when the posting list is longer than the
    # context's child list, so it never costs more than the scan.  The
    # remaining predicates filter the probe result (see _eval_axis_step),
    # so positional tails like [@a = $v][1] count exactly as the scan.
    #
    # Each probe yields a candidate *superset* (the indexes are content-
    # keyed and store-wide); candidates are verified against the exact
    # predicate semantics before acceptance, so results are identical to
    # the generic path — only the work is proportional to matches, not
    # to the subtree.  The live store, a snapshot and a transaction view
    # answer through the same probe calls (a view adds its buffered
    # writes to the candidates).  Every shape falls back (returns None)
    # whenever any precondition is not met: non-string comparand,
    # unanchorable needle, a context inside a read-only snapshot's
    # construction space (no index covers it), or the guard above.
    # ------------------------------------------------------------------

    def _indexed_predicate_step(
        self,
        item,
        axis: str,
        test: core.CNodeTest,
        predicate: core.CoreExpr,
        context: DynamicContext,
    ) -> list | None:
        # The predicate's shape first: it rejects most steps (positional
        # and other predicates) before anything else is looked at.
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
        if axis not in ("child", "descendant", "descendant-or-self"):
            return None
        if test.kind != "name" or test.name in (None, "*"):
            return None
        store = self.store
        blind = getattr(store, "_probes_blind_below", None)
        if blind is not None and blind(item.nid):
            return None
        name = test.name
        or_self = axis == "descendant-or-self"
        if contains:
            return self._probe_contains(
                store, item, name, or_self, predicate, context
            )
        out = self._probe_attr_eq(store, item, name, axis, predicate, context)
        if out is None and axis != "child":
            out = self._probe_child_eq(
                store, item, name, or_self, predicate, context
            )
        return out

    @staticmethod
    def _eq_comparand(
        predicate: core.CComparison, operand_of: Callable
    ) -> tuple[str, core.CoreExpr] | None:
        """Match one side of a general '=' with *operand_of* (a bare
        ``@attr`` or ``child`` step recognizer) when the other side is a
        variable or literal; '=' is symmetric in the collapse case."""
        left = operand_of(predicate.left)
        if left is not None and isinstance(
            predicate.right, (core.CVar, core.CLiteral)
        ):
            return left, predicate.right
        right = operand_of(predicate.right)
        if right is not None and isinstance(
            predicate.left, (core.CVar, core.CLiteral)
        ):
            return right, predicate.left
        return None

    def _string_target(
        self, other: core.CoreExpr, context: DynamicContext
    ) -> str | None:
        """The raw-string comparand of the key-lookup collapse case (see
        _attr_compare_filter): a singleton string/untyped atomic."""
        other_value, _ = self.evaluate(other, context)
        if (
            len(other_value) == 1
            and isinstance(other_value[0], AtomicValue)
            and other_value[0].type in (XS_STRING, XS_UNTYPED)
        ):
            return str(other_value[0].value)
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

    @staticmethod
    def _probe_result(store, nids) -> list:
        return [Node(store, nid) for nid in store.sort_document_order(nids)]

    def _indexed_descendant_path(
        self, expr: core.CPath, context: DynamicContext
    ) -> EvalResult | None:
        """The uncollapsed ``B//name[P]`` shape.

        ``B//name[P]`` compiles to
        ``CPath(CPath(B, descendant-or-self::node()), child::name[P])``
        and the simplifier leaves it that way when it cannot prove ``P``
        non-positional.  The probe shapes recognized by
        :meth:`_indexed_predicate_step` are all boolean-valued, for
        which the composition is exactly ``B/descendant::name[P]`` — so
        the same index fast paths apply.  ``B`` is restricted to
        variable/context/root references: they are pure and idempotent,
        so falling back to the generic path after evaluating them here
        cannot duplicate side effects.
        """
        inner = expr.base
        if not isinstance(inner, core.CPath):
            return None
        if not isinstance(inner.base, (core.CVar, core.CContext, core.CRoot)):
            return None
        dos = inner.step
        if not (
            isinstance(dos, core.CAxisStep)
            and dos.axis == "descendant-or-self"
            and dos.test.kind == "node"
            and not dos.predicates
        ):
            return None
        step = expr.step
        if not (
            isinstance(step, core.CAxisStep)
            and step.axis == "child"
            and step.test.kind == "name"
            and len(step.predicates) == 1
        ):
            return None
        base_value, delta = self.evaluate(inner.base, context)
        base_nodes = node_sequence(base_value, "path step input")
        base_nodes = list(nodes_in_document_order(base_nodes))
        results: Sequence = []
        size = len(base_nodes)
        for position, node in enumerate(base_nodes, start=1):
            focus = DynamicContext(context.variables, node, position, size)
            fast = self._indexed_predicate_step(
                node, "descendant", step.test, step.predicates[0], focus
            )
            if fast is None:
                return None
            results.extend(fast)
        return EvalResult(list(nodes_in_document_order(results)), delta)

    def _probe_attr_eq(
        self, store, item, name, axis, predicate, context
    ) -> list | None:
        matched = self._eq_comparand(predicate, self._attr_compare_operand)
        if matched is None:
            return None
        attr_name, other = matched
        target = self._string_target(other, context)
        if target is None:
            return None
        child = axis == "child"
        # On the child axis the scan reads one list: probe only when the
        # posting list is no longer (both lengths are O(1) to read).
        limit = store.child_count(item.nid) if child else None
        aids = store.attr_eq_probe(attr_name, target, limit)
        if aids is None:
            return None
        or_self = axis == "descendant-or-self"
        out = []
        for aid in aids:
            owner = store.parent(aid)
            if owner is None or store.name(owner) != name:
                continue
            if store.kind(owner) is not NodeKind.ELEMENT:
                continue
            if child:
                if store.parent(owner) == item.nid:
                    out.append(owner)
            elif self._contained(store, owner, item.nid, or_self):
                out.append(owner)
        return self._probe_result(store, out)

    @staticmethod
    def _child_step_operand(side: core.CoreExpr) -> str | None:
        """The element name when *side* is a bare ``child`` name step."""
        if (
            isinstance(side, core.CAxisStep)
            and side.axis == "child"
            and side.test.kind == "name"
            and side.test.name not in (None, "*")
            and not side.predicates
        ):
            return side.test.name
        return None

    def _probe_child_eq(
        self, store, item, name, or_self, predicate, context
    ) -> list | None:
        matched = self._eq_comparand(predicate, self._child_step_operand)
        if matched is None:
            return None
        child_name, other = matched
        target = self._string_target(other, context)
        if not target:  # empty string: no text to witness it — scan
            return None
        tids = store.token_probe(target)
        if tids is None:
            return None
        candidates: set[int] = set()
        for tid in tids:
            chain = self._ancestor_chain(store, tid, item.nid)
            if chain is None:
                continue
            for i in range(len(chain) - 1):
                child, parent = chain[i], chain[i + 1]
                if (
                    store.name(child) == child_name
                    and store.kind(child) is NodeKind.ELEMENT
                    and store.name(parent) == name
                    and store.kind(parent) is NodeKind.ELEMENT
                    and (parent != item.nid or or_self)
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
        return self._probe_result(store, out)

    @staticmethod
    def _is_context_string(expr: core.CoreExpr) -> bool:
        """``.`` or ``string(.)``/``string()`` — shapes whose value under
        a node focus is exactly the node's string value."""
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

    def _probe_contains(
        self, store, item, name, or_self, predicate, context
    ) -> list | None:
        haystack, needle_expr = predicate.args
        if not self._is_context_string(haystack):
            return None
        if not isinstance(needle_expr, (core.CVar, core.CLiteral)):
            return None
        needle_value, _ = self.evaluate(needle_expr, context)
        if len(needle_value) != 1 or not isinstance(
            needle_value[0], AtomicValue
        ):
            return None
        needle = needle_value[0].lexical()
        if not needle:  # contains(s, "") is uniformly true — scan
            return None
        tids = store.token_probe(needle)
        if tids is None:
            return None
        candidates: set[int] = set()
        for tid in tids:
            chain = self._ancestor_chain(store, tid, item.nid)
            if chain is None:
                continue
            for nid in chain:
                if nid == item.nid and not or_self:
                    continue
                if (
                    store.kind(nid) is NodeKind.ELEMENT
                    and store.name(nid) == name
                ):
                    candidates.add(nid)
        out = [
            nid for nid in candidates if needle in store.string_value(nid)
        ]
        return self._probe_result(store, out)

    def _axis_candidates(self, item: Node, expr: core.CAxisStep) -> list:
        """Nodes of the step's axis passing its node test, in axis order.

        For ``descendant(-or-self)::name`` steps the store's element-name
        index answers the question without walking the subtree; the result
        is doc-order sorted, which *is* axis order for forward axes.
        """
        if (
            self.use_name_index
            and expr.axis in ("descendant", "descendant-or-self")
            and expr.test.kind == "name"
            and expr.test.name not in (None, "*")
        ):
            ids = self.store.descendants_named(item.nid, expr.test.name)
            if (
                expr.axis == "descendant-or-self"
                and item.kind is NodeKind.ELEMENT
                and item.name == expr.test.name
            ):
                ids.append(item.nid)
            ids = self.store.sort_document_order(ids)
            return [Node(self.store, nid) for nid in ids]
        return [
            node
            for node in _axis_nodes(item, expr.axis)
            if _node_test(node, expr.axis, expr.test)
        ]

    def _apply_predicate(
        self,
        predicate: core.CoreExpr,
        items: list,
        context: DynamicContext,
        delta: Delta,
    ) -> tuple[list, Delta]:
        """Filter *items* by one predicate with positional semantics; the
        enclosing variables remain visible inside the predicate.  Returns
        the kept items and the delta extended with predicate effects."""
        kept = []
        size = len(items)
        for position, item in enumerate(items, start=1):
            focus = DynamicContext(context.variables, item, position, size)
            pred_value, pred_delta = self.evaluate(predicate, focus)
            delta = delta + pred_delta
            if _predicate_truth(pred_value, position):
                kept.append(item)
        return kept, delta

    def _eval_path(self, expr: core.CPath, context: DynamicContext) -> EvalResult:
        if self.use_indexes:
            fast = self._indexed_descendant_path(expr, context)
            if fast is not None:
                return fast
        base_value, delta = self.evaluate(expr.base, context)
        base_nodes = node_sequence(base_value, "path step input")
        base_nodes = list(nodes_in_document_order(base_nodes))
        results: Sequence = []
        size = len(base_nodes)
        for position, node in enumerate(base_nodes, start=1):
            focus = DynamicContext(context.variables, node, position, size)
            step_value, step_delta = self.evaluate(expr.step, focus)
            results.extend(step_value)
            delta = delta + step_delta
        has_nodes = any(isinstance(item, Node) for item in results)
        has_atomics = any(not isinstance(item, Node) for item in results)
        if has_nodes and has_atomics:
            raise TypeError_(
                "path step produced both nodes and atomic values"
            )
        if has_nodes:
            results = list(nodes_in_document_order(results))
        return EvalResult(results, delta)

    def _eval_filter(self, expr: core.CFilter, context: DynamicContext) -> EvalResult:
        value, delta = self.evaluate(expr.base, context)
        items = list(value)
        for predicate in expr.predicates:
            items, delta = self._apply_predicate(predicate, items, context, delta)
        return EvalResult(items, delta)

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
            bindings = dict(zip(resolved.params, arg_values))
            body_context = DynamicContext(dict(self.globals)).bind_many(bindings)
            body_value, body_delta = self.evaluate(resolved.body, body_context)
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
        av = atomize_single(value, f"{what} name")
        text = av.lexical().strip()
        if not text:
            raise TypeError_(f"empty {what} name")
        return text, delta

    def _eval_elem(self, expr: core.CElem, context: DynamicContext) -> EvalResult:
        """Element construction: content nodes are deep-copied into the new
        element (the XQuery 1.0 copy semantics the paper leans on in its
        normalization rule); adjacent atomics become one text node."""
        name, delta = self._resolve_ctor_name(expr.name, context, "element")
        items: Sequence = []
        for content_expr in expr.content:
            content_value, content_delta = self.evaluate(content_expr, context)
            items.extend(content_value)
            delta = delta + content_delta
        element = self.store.create_element(name)
        self._populate_element(element, items)
        return EvalResult([Node(self.store, element)], delta)

    def _populate_element(self, element: int, items: Sequence) -> None:
        store = self.store
        pending_atomics: list[AtomicValue] = []
        seen_content = False

        def flush_atomics() -> None:
            nonlocal pending_atomics
            if pending_atomics:
                text = " ".join(av.lexical() for av in pending_atomics)
                store.append_child(element, store.create_text(text))
                pending_atomics = []

        for item in items:
            if isinstance(item, AtomicValue):
                seen_content = True
                pending_atomics.append(item)
                continue
            node: Node = item
            kind = node.kind
            if kind is NodeKind.ATTRIBUTE:
                if seen_content:
                    raise TypeError_(
                        "attribute constructors must precede other element "
                        "content (XQTY0024)"
                    )
                copy = store.deep_copy(node.nid)
                store.set_attribute(element, copy)
                continue
            flush_atomics()
            seen_content = True
            if kind is NodeKind.DOCUMENT:
                for child in node.children:
                    store.append_child(element, store.deep_copy(child.nid))
            else:
                store.append_child(element, store.deep_copy(node.nid))
        flush_atomics()

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
        if not value:
            return EvalResult([], delta)
        text = sequence_string(value)
        node = self.store.create_text(text)
        return EvalResult([Node(self.store, node)], delta)

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
            # Content is processed like element content (adjacent atomics
            # merge into one space-separated text node); attributes are
            # rejected by the store (documents cannot carry them).
            self._populate_element(doc, value)
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
        """copy{Expr}: deep copy via the data-model operation; atomic items
        pass through unchanged."""
        value, delta = self.evaluate(expr.source, context)
        copied: Sequence = []
        for item in value:
            if isinstance(item, Node):
                copied.append(Node(self.store, self.store.deep_copy(item.nid)))
            else:
                copied.append(item)
        return EvalResult(copied, delta)

    def _eval_insert(self, expr: core.CInsert, context: DynamicContext) -> EvalResult:
        """Fig. 2 insert rule: evaluate the (already copy-wrapped) source,
        then the target, then run the InsertLocation judgment and emit the
        insert request.  The *target* is validated now; the exact slot
        (e.g. which child is currently last) resolves at application time —
        see :mod:`repro.semantics.update` for why the paper's own Section
        3.4 example requires this."""
        source_value, delta1 = self.evaluate(expr.source, context)
        target_value, delta2 = self.evaluate(expr.target, context)
        nodes = self._content_to_nodes(source_value)
        target = single_node(target_value, "insert target")
        if expr.position in ("first", "last"):
            if target.kind not in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
                raise UpdateTargetError(
                    "insert into requires an element or document target"
                )
        else:
            if self.store.parent(target.nid) is None:
                raise UpdateTargetError(
                    f"insert {expr.position} requires a target with a parent"
                )
        request = InsertRequest(
            nodes=tuple(node.nid for node in nodes),
            position=expr.position,
            target=target.nid,
        )
        return EvalResult([], delta1 + delta2 + Delta.leaf(request))

    def _content_to_nodes(self, value: Sequence) -> list[Node]:
        """Convert an insert/replace source to nodes: atomic values become
        text nodes (runs of adjacent atomics are space-joined, as in
        element content construction), nodes pass through."""
        nodes: list[Node] = []
        pending: list[AtomicValue] = []

        def flush() -> None:
            if pending:
                text = " ".join(av.lexical() for av in pending)
                nodes.append(Node(self.store, self.store.create_text(text)))
                pending.clear()

        for item in value:
            if isinstance(item, AtomicValue):
                pending.append(item)
            else:
                flush()
                nodes.append(item)
        flush()
        return nodes

    def _eval_delete(self, expr: core.CDelete, context: DynamicContext) -> EvalResult:
        """Fig. 2 delete rule, generalized to node sequences (the paper's
        own use case deletes ``$log/logentry``, a sequence)."""
        value, delta = self.evaluate(expr.target, context)
        nodes = node_sequence(value, "delete target")
        requests = [DeleteRequest(node.nid) for node in nodes]
        return EvalResult([], delta + Delta.from_iterable(requests))

    def _eval_replace(self, expr: core.CReplace, context: DynamicContext) -> EvalResult:
        """Fig. 2 replace rule:
        Δ3 = (Δ1, Δ2, insert(nodeseq, nodepar, node), delete(node))."""
        target_value, delta1 = self.evaluate(expr.target, context)
        source_value, delta2 = self.evaluate(expr.source, context)
        target = single_node(target_value, "replace target")
        nodes = self._content_to_nodes(source_value)
        parent = self.store.parent(target.nid)
        if parent is None:
            raise UpdateTargetError("replace target must have a parent")
        # The insert/delete pair of one replace shares a group token so the
        # conflict checker treats it as a single logical write.
        group = next_group()
        if target.kind is NodeKind.ATTRIBUTE:
            # Attribute replacement: the new nodes become attributes of the
            # parent element; there is no sibling anchor.
            request = InsertRequest(
                nodes=tuple(node.nid for node in nodes),
                position="last",
                target=parent,
                group=group,
            )
        else:
            # Fig. 2: insert(nodeseq, nodepar, node) then delete(node) —
            # the new nodes land right after the node being replaced.
            request = InsertRequest(
                nodes=tuple(node.nid for node in nodes),
                position="after",
                target=target.nid,
                group=group,
            )
        delta = (
            delta1
            + delta2
            + Delta.leaf(request)
            + Delta.leaf(DeleteRequest(target.nid, group=group))
        )
        return EvalResult([], delta)

    def _eval_replace_value(
        self, expr: core.CReplaceValue, context: DynamicContext
    ) -> EvalResult:
        """replace value of {t} with {s}: atomize the source to a string
        and request a content overwrite of the target node."""
        target_value, delta1 = self.evaluate(expr.target, context)
        source_value, delta2 = self.evaluate(expr.source, context)
        target = single_node(target_value, "replace value of target")
        text = sequence_string(source_value)
        request = SetValueRequest(target.nid, text)
        return EvalResult([], delta1 + delta2 + Delta.leaf(request))

    def _eval_rename(self, expr: core.CRename, context: DynamicContext) -> EvalResult:
        target_value, delta1 = self.evaluate(expr.target, context)
        name_value, delta2 = self.evaluate(expr.name, context)
        target = single_node(target_value, "rename target")
        name = atomize_single(name_value, "rename name").lexical().strip()
        if not name:
            raise UpdateTargetError("rename requires a non-empty name")
        request = RenameRequest(target.nid, name)
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
        apply_update_list(
            self.store,
            delta,
            ApplySemantics.from_keyword(expr.mode),
            atomic=self.atomic_snaps,
            tracer=self.tracer,
            journal=self.journal,
            control=self.control,
            txn_log=self.txn_log,
        )
        return EvalResult(value, _EMPTY)


    def _eval_typeswitch(self, expr: core.CTypeswitch, context: DynamicContext) -> EvalResult:
        """typeswitch: operand evaluated once; first matching case wins;
        untaken branches are not evaluated (their effects never fire)."""
        from repro.semantics.types import matches_sequence_type

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
        from repro.semantics.types import matches_sequence_type

        value, delta = self.evaluate(expr.operand, context)
        result = matches_sequence_type(value, expr.type_)
        return EvalResult([AtomicValue.boolean(result)], delta)

    def _eval_treat(self, expr: core.CTreat, context: DynamicContext) -> EvalResult:
        """treat as: identity when the value matches, XPDY0050 otherwise."""
        from repro.semantics.types import matches_sequence_type

        value, delta = self.evaluate(expr.operand, context)
        if not matches_sequence_type(value, expr.type_):
            raise TypeError_(
                f"treat as {expr.type_}: value does not match", code="XPDY0050"
            )
        return EvalResult(value, delta)

    def _eval_cast(self, expr: core.CCast, context: DynamicContext) -> EvalResult:
        from repro.semantics.types import cast_atomic

        value, delta = self.evaluate(expr.operand, context)
        av = atomize_optional(value, "cast operand")
        if av is None:
            if expr.castable:
                return EvalResult([AtomicValue.boolean(expr.optional)], delta)
            if expr.optional:
                return EvalResult([], delta)
            raise TypeError_("cast of an empty sequence requires '?'")
        if expr.castable:
            try:
                cast_atomic(av, expr.type_name)
                return EvalResult([AtomicValue.boolean(True)], delta)
            except TypeError_:
                return EvalResult([AtomicValue.boolean(False)], delta)
        return EvalResult([cast_atomic(av, expr.type_name)], delta)


# ----------------------------------------------------------------------
# Axis iteration and node tests
# ----------------------------------------------------------------------

def _axis_nodes(node: Node, axis: str):
    """Yield the nodes of *axis* from *node*, in axis order (reverse axes
    nearest-first; results are doc-order sorted by the step afterwards)."""
    if axis == "child":
        yield from node.children
    elif axis == "descendant":
        yield from node.descendants()
    elif axis == "descendant-or-self":
        yield from node.descendants(include_self=True)
    elif axis == "attribute":
        yield from node.attributes
    elif axis == "self":
        yield node
    elif axis == "parent":
        parent = node.parent
        if parent is not None:
            yield parent
    elif axis == "ancestor":
        yield from node.ancestors()
    elif axis == "ancestor-or-self":
        yield from node.ancestors(include_self=True)
    elif axis == "following-sibling":
        yield from _siblings(node, after=True)
    elif axis == "preceding-sibling":
        yield from reversed(list(_siblings(node, after=False)))
    elif axis == "following":
        yield from _following(node)
    elif axis == "preceding":
        yield from reversed(list(_preceding(node)))
    else:
        raise DynamicError(f"unsupported axis {axis!r}")


def _siblings(node: Node, after: bool):
    parent = node.parent
    if parent is None or node.kind is NodeKind.ATTRIBUTE:
        return
    found = False
    for sibling in parent.children:
        if sibling == node:
            found = True
            continue
        if found == after:
            yield sibling


def _following(node: Node):
    for ancestor in node.ancestors(include_self=True):
        for sibling in _siblings(ancestor, after=True):
            yield sibling
            yield from sibling.descendants()


def _preceding(node: Node):
    ancestor_ids = {a.nid for a in node.ancestors()}
    for ancestor in node.ancestors(include_self=True):
        for sibling in _siblings(ancestor, after=False):
            if sibling.nid in ancestor_ids:
                continue
            yield sibling
            yield from sibling.descendants()


_PRINCIPAL_ATTRIBUTE_AXES = ("attribute",)


def _node_test(node: Node, axis: str, test: core.CNodeTest) -> bool:
    kind = node.kind
    if test.kind == "name":
        if axis in _PRINCIPAL_ATTRIBUTE_AXES:
            if kind is not NodeKind.ATTRIBUTE:
                return False
        elif kind is not NodeKind.ELEMENT:
            return False
        return test.name == "*" or node.name == test.name
    if test.kind == "node":
        return True
    if test.kind == "text":
        return kind is NodeKind.TEXT
    if test.kind == "comment":
        return kind is NodeKind.COMMENT
    if test.kind == "processing-instruction":
        if kind is not NodeKind.PROCESSING_INSTRUCTION:
            return False
        return test.name is None or node.name == test.name
    if test.kind == "element":
        if kind is not NodeKind.ELEMENT:
            return False
        return test.name in (None, "*") or node.name == test.name
    if test.kind == "attribute":
        if kind is not NodeKind.ATTRIBUTE:
            return False
        return test.name in (None, "*") or node.name == test.name
    if test.kind == "document-node":
        return kind is NodeKind.DOCUMENT
    raise DynamicError(f"unsupported node test {test.kind!r}")


# ----------------------------------------------------------------------
# Predicates and ordering keys
# ----------------------------------------------------------------------

def _predicate_truth(value: Sequence, position: int) -> bool:
    """Positional semantics: a numeric singleton predicate selects by
    position; anything else goes through the effective boolean value."""
    if len(value) == 1 and isinstance(value[0], AtomicValue) and is_numeric(value[0]):
        return float(value[0].value) == float(position)
    return effective_boolean_value(value)


def _require_integer(av: AtomicValue, what: str) -> int:
    av = cast_to_number(av)
    if av.type == XS_INTEGER:
        return int(av.value)
    if float(av.value).is_integer():
        return int(av.value)
    raise TypeError_(f"{what} must be an integer, got {av.lexical()}")


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
