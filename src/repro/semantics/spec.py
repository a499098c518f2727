"""The executable specification: the evaluation judgment of Figs. 2-3,
rule by rule.

    store0; dynEnv |- Expr  =>  value; Δ; store1

:func:`evaluate` returns the ``(value, Δ)`` pair of one expression.  The
store is threaded implicitly (it is the single mutable object), which
matches the formal rules exactly: an expression may modify the store
(through node construction or a nested ``snap``) *and* return pending
update requests that have not been applied yet.  Each rule evaluates its
premises top to bottom, left to right, and concatenates their Δs in that
order; ``and``/``or`` short-circuit left to right (a *defined* order,
hence permissible under the paper's "precise evaluation order" stance).
Δ is a :class:`~repro.semantics.deltarope.Delta` rope, so the pervasive
concatenation costs linear time overall.

Production never runs or imports this module: every prepared query runs
as closures (:mod:`repro.semantics.compiled`).  The tests run it as the
reference those closures are compared with (``tests/interpreted.py``,
``on_spec``), so it is written to be plainly right, not fast:

* axes are walked naively (:func:`_axis_ids` and :func:`node_test`): no
  value-index probe, no element-name index, no grouped ``B//name[P]``
  step and no attribute-compare filter;
* no tracer spans and no execution-control polling;
* a user-function call evaluates the function's body as written.

What is not an access path is shared with production: the value rules
and request builders of :mod:`repro.semantics.evaluator` (``arith_value``,
``compare_value``, the casts, ``insert_request`` and the rest,
``sort_keyed``), and from the executing :class:`Evaluator` fork the store,
globals, function registry and fn:doc catalog, element construction, the
call-depth guard (``enter_call``/``stack_exhausted``) and
``apply_updates`` (so the journal, the transaction log and atomic snaps
see a snap applied exactly as production applies it).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.errors import DynamicError
from repro.lang import core_ast as core
from repro.semantics.context import DynamicContext
from repro.semantics.deltarope import EMPTY, Delta
from repro.semantics.evaluator import (
    Evaluator,
    _axis_ids,
    _predicate_truth,
    arith_value,
    cast_value,
    compare_value,
    ctor_name,
    delete_requests,
    insert_request,
    is_fresh,
    node_test,
    path_result,
    range_value,
    rename_request,
    replace_requests,
    root_value,
    set_value,
    set_value_request,
    sort_keyed,
    step_context,
    treat_value,
    unary_value,
)
from repro.semantics.types import matches_sequence_type
from repro.semantics.update import ApplySemantics
from repro.xdm.compare import nodes_in_document_order
from repro.xdm.nodes import Node
from repro.xdm.values import (
    AtomicValue,
    Sequence,
    atomize_optional,
    effective_boolean_value,
    node_sequence,
    sequence_string,
)

Judgment = tuple[Sequence, Delta]


def evaluate(
    ev: Evaluator, expr: core.CoreExpr, ctx: DynamicContext
) -> Judgment:
    """*expr*'s value and pending update list under *ctx* on fork *ev*."""
    rule = RULES.get(type(expr))
    if rule is None:
        raise DynamicError(f"no evaluation rule for {type(expr).__name__}")
    return rule(ev, expr, ctx)


def run_snapped(
    ev: Evaluator,
    expr: core.CoreExpr,
    ctx: DynamicContext,
    mode: ApplySemantics = ApplySemantics.ORDERED,
) -> Sequence:
    """*expr* under the implicit top-level snap (Section 2.3: "a snap is
    always implicitly present around the top-level query"): its value,
    once its Δ is applied.  The signature of
    :meth:`Evaluator.run_snapped`, which a reference run replaces with
    this."""
    value, delta = evaluate(ev, expr, ctx)
    ev.apply_updates(delta, mode)
    return value


def _each(ev, exprs, ctx) -> tuple[list[Sequence], Delta]:
    """Expressions left to right; their values and concatenated Δ."""
    values, delta = [], EMPTY
    for expr in exprs:
        value, expr_delta = evaluate(ev, expr, ctx)
        values.append(value)
        delta = delta + expr_delta
    return values, delta


# ----------------------------------------------------------------------
# Leaves, composition, operators
# ----------------------------------------------------------------------

def _literal(ev, expr, ctx):
    return [expr.value], EMPTY


def _var(ev, expr, ctx):
    return list(ctx.variable(expr.name)), EMPTY


def _context(ev, expr, ctx):
    return [ctx.require_context_item()], EMPTY


def _empty(ev, expr, ctx):
    return [], EMPTY


def _root(ev, expr, ctx):
    return root_value(ctx.context_item), EMPTY


def _sequence(ev, expr, ctx):
    """Fig. 3 sequence rule: Expr1 fully evaluated before Expr2; values
    and Δs concatenated in order."""
    values, delta = _each(ev, expr.items, ctx)
    return [item for value in values for item in value], delta


def _range(ev, expr, ctx):
    lo, delta = evaluate(ev, expr.lo, ctx)
    hi, hi_delta = evaluate(ev, expr.hi, ctx)
    return range_value(lo, hi), delta + hi_delta


def _arith(ev, expr, ctx):
    left, delta = evaluate(ev, expr.left, ctx)
    right, right_delta = evaluate(ev, expr.right, ctx)
    return arith_value(expr.op, left, right), delta + right_delta


def _unary(ev, expr, ctx):
    value, delta = evaluate(ev, expr.operand, ctx)
    return unary_value(expr.op, value), delta


def _comparison(ev, expr, ctx):
    left, delta = evaluate(ev, expr.left, ctx)
    right, right_delta = evaluate(ev, expr.right, ctx)
    return compare_value(ev.store, expr, left, right), delta + right_delta


def _bool(ev, expr, ctx):
    left, delta = evaluate(ev, expr.left, ctx)
    truth = effective_boolean_value(left)
    if truth == (expr.op == "and"):
        right, right_delta = evaluate(ev, expr.right, ctx)
        truth = effective_boolean_value(right)
        delta = delta + right_delta
    return [AtomicValue.boolean(truth)], delta


def _set(ev, expr, ctx):
    left, delta = evaluate(ev, expr.left, ctx)
    right, right_delta = evaluate(ev, expr.right, ctx)
    return set_value(expr.op, left, right), delta + right_delta


# ----------------------------------------------------------------------
# Control (Fig. 3)
# ----------------------------------------------------------------------

def _if(ev, expr, ctx):
    cond, delta = evaluate(ev, expr.cond, ctx)
    branch = expr.then if effective_boolean_value(cond) else expr.orelse
    value, branch_delta = evaluate(ev, branch, ctx)
    return value, delta + branch_delta


def _bindings(var, position_var, ctx, source_value):
    """The context of each iteration over *source_value*."""
    for index, item in enumerate(source_value, start=1):
        inner = ctx.bind(var, [item])
        if position_var is not None:
            inner = inner.bind(position_var, [AtomicValue.integer(index)])
        yield inner


def _for(ev, expr, ctx):
    """Fig. 3 for rule: the source Δ first, then per-iteration Δs in
    binding order."""
    source, delta = evaluate(ev, expr.source, ctx)
    value: Sequence = []
    for inner in _bindings(expr.var, expr.position_var, ctx, source):
        item_value, item_delta = evaluate(ev, expr.body, inner)
        value += item_value
        delta = delta + item_delta
    return value, delta


def _let(ev, expr, ctx):
    source, delta = evaluate(ev, expr.source, ctx)
    value, body_delta = evaluate(ev, expr.body, ctx.bind(expr.var, source))
    return value, delta + body_delta


def _ordered_flwor(ev, expr, ctx):
    """FLWOR with order by: generate the tuple stream, filter, key and
    sort it, then evaluate the return clause in sorted order.  The Δs of
    generation, filtering and keying come first (in that order), then
    the return clause's in sorted order."""
    delta = EMPTY
    tuples = [ctx]
    for clause in expr.clauses:
        bound = []
        for tup in tuples:
            source, source_delta = evaluate(ev, clause.source, tup)
            delta = delta + source_delta
            if isinstance(clause, core.CForClause):
                bound += _bindings(
                    clause.var, clause.position_var, tup, source
                )
            else:
                bound.append(tup.bind(clause.var, source))
        tuples = bound
    if expr.where is not None:
        kept = []
        for tup in tuples:
            cond, cond_delta = evaluate(ev, expr.where, tup)
            delta = delta + cond_delta
            if effective_boolean_value(cond):
                kept.append(tup)
        tuples = kept
    keyed = []
    for tup in tuples:
        keys = []
        for spec in expr.specs:
            key, key_delta = evaluate(ev, spec.expr, tup)
            delta = delta + key_delta
            keys.append(atomize_optional(key, "order by key"))
        keyed.append((keys, tup))
    value: Sequence = []
    for _, tup in sort_keyed(keyed, expr.specs):
        ret, ret_delta = evaluate(ev, expr.ret, tup)
        value += ret
        delta = delta + ret_delta
    return value, delta


def _quantified(ev, expr, ctx):
    """some/every: bindings nest left to right, and evaluation stops at
    the first binding that decides the answer."""
    want = expr.kind == "some"
    delta = EMPTY

    def holds(bindings, ctx) -> bool:
        nonlocal delta
        if not bindings:
            value, inner_delta = evaluate(ev, expr.satisfies, ctx)
            delta = delta + inner_delta
            return effective_boolean_value(value)
        var, source = bindings[0]
        source_value, source_delta = evaluate(ev, source, ctx)
        delta = delta + source_delta
        for item in source_value:
            if holds(bindings[1:], ctx.bind(var, [item])) == want:
                return want
        return not want

    truth = holds(expr.bindings, ctx)
    return [AtomicValue.boolean(truth)], delta


# ----------------------------------------------------------------------
# Paths
# ----------------------------------------------------------------------

def _axis_step(ev, expr, ctx):
    """The step's axis from the focus, walked node by node, filtered by
    its node test and then by each predicate in turn; the result in
    document order."""
    item = step_context(ctx.context_item, expr.axis)
    store = item.store
    matches = node_test(expr.test, expr.axis)
    nids = [
        nid for nid in _axis_ids(store, item.nid, expr.axis)
        if matches(store, nid)
    ]
    delta = EMPTY
    for predicate in expr.predicates:
        nids, delta = _predicate(ev, predicate, nids, ctx, delta, store)
    return [Node(store, nid) for nid in store.sort_document_order(nids)], delta


def _predicate(ev, predicate, items, ctx, delta, store=None):
    """*items* (node ids of *store* when it is given) that *predicate*
    keeps, each in turn the focus at its position; a numeric singleton
    selects by position.  The enclosing variables stay visible."""
    kept = []
    size = len(items)
    for position, item in enumerate(items, start=1):
        focus = ctx.with_focus(
            item if store is None else Node(store, item), position, size
        )
        value, pred_delta = evaluate(ev, predicate, focus)
        delta = delta + pred_delta
        if _predicate_truth(value, position):
            kept.append(item)
    return kept, delta


def _path(ev, expr, ctx):
    """``E1/E2``: E2 once per node of E1, in document order, as the
    focus."""
    base, delta = evaluate(ev, expr.base, ctx)
    nodes = list(
        nodes_in_document_order(node_sequence(base, "path step input"))
    )
    results: Sequence = []
    for position, node in enumerate(nodes, start=1):
        focus = ctx.with_focus(node, position, len(nodes))
        step_value, step_delta = evaluate(ev, expr.step, focus)
        results += step_value
        delta = delta + step_delta
    return path_result(results), delta


def _filter(ev, expr, ctx):
    items, delta = evaluate(ev, expr.base, ctx)
    for predicate in expr.predicates:
        items, delta = _predicate(ev, predicate, items, ctx, delta)
    return list(items), delta


# ----------------------------------------------------------------------
# Function calls (Fig. 3)
# ----------------------------------------------------------------------

def _call(ev, expr, ctx):
    """Arguments left to right, their Δs concatenated, then the body's
    Δ.  A built-in is pure by construction and gets the focus."""
    resolved = ev.functions.resolve(expr.name, len(expr.args))
    args, delta = _each(ev, expr.args, ctx)
    if not isinstance(resolved, core.CFunction):
        return resolved(ev, ctx, args), delta
    depth = ev.enter_call(expr.name)
    try:
        body_ctx = DynamicContext(
            dict(zip(resolved.params, args)), globals_=ev.globals
        )
        value, body_delta = evaluate(ev, resolved.body, body_ctx)
    except RecursionError:
        if depth > 1:
            raise
        raise ev.stack_exhausted(expr.name) from None
    finally:
        ev.call_depth = depth - 1
    return value, delta + body_delta


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------

def _name(ev, name, ctx, what):
    if isinstance(name, str):
        return name, EMPTY
    value, delta = evaluate(ev, name, ctx)
    return ctor_name(value, what), delta


def _elem(ev, expr, ctx):
    """Element construction: content nodes are copied into the new
    element, unless a constructor made them for this content alone."""
    name, delta = _name(ev, expr.name, ctx, "element")
    values, content_delta = _each(ev, expr.content, ctx)
    parts = [
        (value, is_fresh(content))
        for value, content in zip(values, expr.content)
    ]
    return ev.make_element(name, parts), delta + content_delta


def _attr(ev, expr, ctx):
    name, delta = _name(ev, expr.name, ctx, "attribute")
    text = []
    for part in expr.parts:
        if isinstance(part, str):
            text.append(part)
            continue
        value, part_delta = evaluate(ev, part, ctx)
        delta = delta + part_delta
        text.append(sequence_string(value))
    attr = ev.store.create_attribute(name, "".join(text))
    return [Node(ev.store, attr)], delta


def _text(ev, expr, ctx):
    if expr.content is None:
        return [], EMPTY
    value, delta = evaluate(ev, expr.content, ctx)
    return ev.make_text(value), delta


def _comment(ev, expr, ctx):
    if expr.content is None:
        return [], EMPTY
    value, delta = evaluate(ev, expr.content, ctx)
    node = ev.store.create_comment(sequence_string(value))
    return [Node(ev.store, node)], delta


def _doc(ev, expr, ctx):
    """Document content is processed like one enclosed expression of
    element content (the store rejects attributes)."""
    doc = ev.store.create_document()
    delta = EMPTY
    if expr.content is not None:
        value, delta = evaluate(ev, expr.content, ctx)
        ev._populate_element(doc, [(value, False)])
    return [Node(ev.store, doc)], delta


def _pi(ev, expr, ctx):
    target, delta = _name(ev, expr.target, ctx, "PI")
    text = ""
    if expr.content is not None:
        value, content_delta = evaluate(ev, expr.content, ctx)
        delta = delta + content_delta
        text = sequence_string(value)
    node = ev.store.create_processing_instruction(target, text)
    return [Node(ev.store, node)], delta


# ----------------------------------------------------------------------
# XQuery! operations (Fig. 2)
# ----------------------------------------------------------------------

def _copy(ev, expr, ctx):
    value, delta = evaluate(ev, expr.source, ctx)
    return ev.copy(value, is_fresh(expr.source)), delta


def _insert(ev, expr, ctx):
    """Fig. 2 insert rule: the (already copy-wrapped) source, then the
    target, then the InsertLocation judgment and the request."""
    source, delta = evaluate(ev, expr.source, ctx)
    target, target_delta = evaluate(ev, expr.target, ctx)
    delta = delta + target_delta
    request = insert_request(ev.store, expr.position, source, target)
    return [], delta + Delta.leaf(request)


def _delete(ev, expr, ctx):
    """Fig. 2 delete rule, generalized to node sequences (the paper's
    own use case deletes ``$log/logentry``, a sequence)."""
    value, delta = evaluate(ev, expr.target, ctx)
    return [], delta + Delta.from_iterable(delete_requests(value))


def _replace(ev, expr, ctx):
    """Fig. 2 replace rule:
    Δ3 = (Δ1, Δ2, insert(nodeseq, nodepar, node), delete(node))."""
    target, delta = evaluate(ev, expr.target, ctx)
    source, source_delta = evaluate(ev, expr.source, ctx)
    delta = delta + source_delta
    requests = replace_requests(ev.store, target, source)
    return [], delta + Delta.from_iterable(requests)


def _replace_value(ev, expr, ctx):
    target, delta = evaluate(ev, expr.target, ctx)
    source, source_delta = evaluate(ev, expr.source, ctx)
    delta = delta + source_delta
    return [], delta + Delta.leaf(set_value_request(target, source))


def _rename(ev, expr, ctx):
    target, delta = evaluate(ev, expr.target, ctx)
    name, name_delta = evaluate(ev, expr.name, ctx)
    delta = delta + name_delta
    return [], delta + Delta.leaf(rename_request(target, name))


def _snap(ev, expr, ctx):
    """Fig. 2 snap rule: evaluate the body, apply its Δ to the (possibly
    already modified) store, and return the value with an empty Δ.
    Nested snaps stack by recursion."""
    value, delta = evaluate(ev, expr.body, ctx)
    ev.apply_updates(delta, ApplySemantics.from_keyword(expr.mode))
    return value, EMPTY


# ----------------------------------------------------------------------
# Dynamic typing
# ----------------------------------------------------------------------

def _typeswitch(ev, expr, ctx):
    """The operand once; the first matching case wins, and the untaken
    branches are not evaluated (their effects never fire)."""
    value, delta = evaluate(ev, expr.operand, ctx)
    for case in expr.cases:
        if matches_sequence_type(value, case.type_):
            var, ret = case.var, case.ret
            break
    else:
        var, ret = expr.default_var, expr.default
    inner = ctx if var is None else ctx.bind(var, value)
    ret_value, ret_delta = evaluate(ev, ret, inner)
    return ret_value, delta + ret_delta


def _instance_of(ev, expr, ctx):
    value, delta = evaluate(ev, expr.operand, ctx)
    truth = matches_sequence_type(value, expr.type_)
    return [AtomicValue.boolean(truth)], delta


def _treat(ev, expr, ctx):
    value, delta = evaluate(ev, expr.operand, ctx)
    return treat_value(expr.type_, value), delta


def _cast(ev, expr, ctx):
    value, delta = evaluate(ev, expr.operand, ctx)
    return cast_value(expr, value), delta


Rule = Callable[[Evaluator, core.CoreExpr, DynamicContext], Judgment]

#: The rule per core node type.
RULES: dict[type, Rule] = {
    core.CLiteral: _literal,
    core.CVar: _var,
    core.CContext: _context,
    core.CEmpty: _empty,
    core.CRoot: _root,
    core.CSequence: _sequence,
    core.CSequenced: _sequence,  # ';' is ',' dynamically
    core.CRange: _range,
    core.CArith: _arith,
    core.CUnary: _unary,
    core.CComparison: _comparison,
    core.CBool: _bool,
    core.CSet: _set,
    core.CIf: _if,
    core.CFor: _for,
    core.CLet: _let,
    core.COrderedFLWOR: _ordered_flwor,
    core.CQuantified: _quantified,
    core.CAxisStep: _axis_step,
    core.CPath: _path,
    core.CFilter: _filter,
    core.CCall: _call,
    core.CElem: _elem,
    core.CAttr: _attr,
    core.CText: _text,
    core.CComment: _comment,
    core.CDoc: _doc,
    core.CPI: _pi,
    core.CCopy: _copy,
    core.CInsert: _insert,
    core.CDelete: _delete,
    core.CReplace: _replace,
    core.CReplaceValue: _replace_value,
    core.CRename: _rename,
    core.CSnap: _snap,
    core.CTypeswitch: _typeswitch,
    core.CInstanceOf: _instance_of,
    core.CTreat: _treat,
    core.CCast: _cast,
}
