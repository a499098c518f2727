"""Core expressions compiled once to Python closures.

The evaluation judgment of Figs. 2-3 pairs every value with a Δ.  Each
rule concatenates its premises' Δs in the order it evaluates them, so
the Δ of any expression is the list of requests its primitives emit, in
evaluation order.  A compiled expression therefore returns its value
alone and appends its requests to one list: the innermost open snap's Δ,
``ev.pending``.  A ``snap`` swaps in a fresh list for its body, applies
it through :func:`~repro.semantics.update.apply_update_list` when the
body is done, and puts the outer list back.  The closures have the
shape ``run(ev, frame) -> items``:

* ``ev`` is the executing :class:`~repro.semantics.evaluator.Evaluator`
  fork; it supplies the store, the globals, the function registry, the
  access paths, the execution control, the tracer and the pending Δ,
  all read at run time;
* ``frame`` is a list: the focus (item, position, size), then one slot
  per parameter, free variable and local binder (see
  :class:`~repro.lang.core_ast.CCompiled`) — variables resolve to slots
  when the expression is compiled.

:func:`lower` compiles a whole expression, or a §4.3 plan, to a
``CCompiled``.  A prepared query lowers its prolog and its body or plan
when it is prepared (:class:`CompiledModule`), and a query too deeply
nested to lower is refused there; a user function's body is lowered
once per registry state (:func:`compiled_function`).  Production runs
nothing else.

The closures follow the executable specification
(:mod:`repro.semantics.spec`, the reference the tests compare them with)
rule for rule: operands in the same order, the same value functions and
update requests (both import them from :mod:`.evaluator`), the same
errors first, the same call-depth guard.  They add what the spec leaves
out: ``control.check()`` (in ``for``, the ordered FLWOR, quantifiers, a
plan's tuple chain, and before a snap applies), and the access paths.
Axis steps iterate node ids and make ``Node`` handles only at their
boundary, and they call the evaluator's access paths (value-index
probes, the attribute-compare filter, the grouped ``B//name[P...]``
step), whose shapes are decided here, once.  A step from one context
node on a forward axis yields document order by construction, so only
multi-node and reverse-axis steps sort.
"""

from __future__ import annotations

from collections.abc import Callable
from operator import itemgetter

from repro.algebra import plan as P
from repro.algebra.execute import BuildSide
from repro.algebra.properties import EffectAnalyzer
from repro.errors import UndefinedVariableError
from repro.lang import core_ast as core
from repro.obs.tracer import maybe_span
from repro.semantics.context import (
    DynamicContext,
    FunctionRegistry,
    no_context_item,
)
from repro.semantics.evaluator import (
    FORWARD_AXES,
    _predicate_truth,
    arith_value,
    attr_filter_shape,
    cast_value,
    compare_value,
    ctor_name,
    delete_requests,
    insert_request,
    is_fresh,
    node_test,
    path_result,
    probe_shape,
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
from repro.semantics.functions import fn_last, fn_position
from repro.semantics.types import matches_sequence_type
from repro.semantics.update import ApplySemantics
from repro.xdm.compare import (
    general_compare,
    nodes_in_document_order,
    value_compare,
)
from repro.xdm.nodes import Node
from repro.xdm.values import (
    AtomicValue,
    atomize_optional,
    effective_boolean_value,
    is_numeric,
    node_sequence,
    sequence_string,
    to_double,
)

Run = Callable[[object, list], list]

_TRUE = [AtomicValue.boolean(True)]
_FALSE = [AtomicValue.boolean(False)]
# Built-ins called with arguments never read the focus.
_NO_FOCUS = DynamicContext()
# fn:position() and fn:last() inside a focus: the frame slot they read.
_FOCUS_READS = {fn_position: 1, fn_last: 2}


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

class CompiledModule:
    """A prepared query's expressions, lowered when it is prepared: each
    prolog variable initializer (``prolog``: ``(declaration, lowered)``
    pairs, None for an external variable), and the body — or, when a
    §4.3 rewrite fired, its plan (``body``, None without a body).

    ``key`` is the registry's ``compiled`` table this was built against:
    name resolution and the effect verdicts the grouped step depends on
    change with the user functions, so a registry change makes the owner
    build a new one."""

    def __init__(
        self,
        registry: FunctionRegistry,
        module: core.CModule,
        plan: P.Plan | None = None,
    ):
        self.key = registry.compiled
        self.prolog = [
            (decl, None if decl.expr is None else lower(decl.expr, registry))
            for decl in module.declarations
            if isinstance(decl, core.CVarDecl)
        ]
        body = module.body if plan is None else plan
        self.body = None if body is None else lower(body, registry)


def lower(
    expr: core.CoreExpr | P.Plan,
    registry: FunctionRegistry | None = None,
    params: tuple[str, ...] = (),
) -> core.CCompiled:
    """*expr* (or a plan) compiled to a closure over a slot frame
    (*params*: the function parameters when *expr* is a body).
    *registry* resolves the user functions a grouped step's predicates
    call (without one, every call may snap).  An expression nested past
    the compiler's stack headroom raises ``RecursionError``, which
    :meth:`Engine.prepare <repro.engine.Engine.prepare>` refuses as a
    static error."""
    unit = _Unit(3 + len(params), EffectAnalyzer(registry))
    run = _compile(expr, {name: 3 + i for i, name in enumerate(params)}, unit)
    free = tuple(unit.free.items())
    return core.CCompiled(expr, run, free, len(params), unit.next)


def compiled_function(
    registry: FunctionRegistry, function: core.CFunction
) -> core.CCompiled:
    """*function*'s lowered body, lowered once per registry state."""
    table = registry.compiled
    entry = table.get(id(function))
    if entry is None or entry[0] is not function:
        body = lower(function.body, registry, tuple(function.params))
        entry = table[id(function)] = (function, body)
    return entry[1]


def _grouped(expr, effects: EffectAnalyzer) -> bool:
    """*expr* is ``CPath(CPath(B, descendant-or-self::node()),
    child::name[P...])``, and no predicate of its step may apply a
    nested snap, which could restructure the tree between two groups
    (see ``Evaluator._grouped_child_path``)."""
    if type(expr) is not core.CPath:
        return False
    inner, step = expr.base, expr.step
    return (
        isinstance(step, core.CAxisStep)
        and step.axis == "child"
        and step.test.kind == "name"
        and step.test.name not in (None, "*")
        and isinstance(inner, core.CPath)
        and isinstance(inner.step, core.CAxisStep)
        and inner.step.axis == "descendant-or-self"
        and inner.step.test.kind == "node"
        and not inner.step.predicates
        and not any(effects.analyze(p).may_snap for p in step.predicates)
    )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

class _Unit:
    """Slot allocation for one compiled expression: one slot per binder
    and per free variable name; and the effect analysis deciding which
    grouped steps keep their one-pass route."""

    def __init__(self, first: int, effects: EffectAnalyzer):
        self.next = first
        self.free: dict[str, int] = {}
        self.effects = effects

    def slot(self) -> int:
        self.next += 1
        return self.next - 1

    def free_slot(self, name: str) -> int:
        slot = self.free.get(name)
        if slot is None:
            slot = self.free[name] = self.slot()
        return slot


def _compile(expr: core.CoreExpr, env: dict, unit: _Unit) -> Run:
    return _COMPILERS[type(expr)](expr, env, unit)


def _literal(expr, env, unit):
    value = [expr.value]
    return lambda ev, frame: value


def _var(expr, env, unit):
    name = expr.name
    slot = env.get(name)
    if slot is None:
        slot = unit.free_slot(name)

    def run(ev, frame):
        value = frame[slot]
        if value is None:
            raise UndefinedVariableError(f"undefined variable ${name}")
        return value

    return run


def _context(expr, env, unit):
    def run(ev, frame):
        item = frame[0]
        if item is None:
            raise no_context_item()
        return [item]

    return run


def _empty(expr, env, unit):
    return lambda ev, frame: []


def _root(expr, env, unit):
    return lambda ev, frame: root_value(frame[0])


def _sequence(expr, env, unit):
    parts = [_compile(item, env, unit) for item in expr.items]
    if len(parts) == 1:
        return parts[0]

    def run(ev, frame):
        out = []
        for part in parts:
            out += part(ev, frame)
        return out

    return run


def _range(expr, env, unit):
    lo, hi = _compile(expr.lo, env, unit), _compile(expr.hi, env, unit)
    return lambda ev, frame: range_value(lo(ev, frame), hi(ev, frame))


def _arith(expr, env, unit):
    op = expr.op
    left = _compile(expr.left, env, unit)
    right = _compile(expr.right, env, unit)
    return lambda ev, frame: arith_value(op, left(ev, frame), right(ev, frame))


def _unary(expr, env, unit):
    op, operand = expr.op, _compile(expr.operand, env, unit)
    return lambda ev, frame: unary_value(op, operand(ev, frame))


def _comparison(expr, env, unit):
    op = expr.op
    left = _compile(expr.left, env, unit)
    right = _compile(expr.right, env, unit)
    if expr.style == "general":
        return lambda ev, frame: (
            _TRUE if general_compare(op, left(ev, frame), right(ev, frame))
            else _FALSE
        )
    if expr.style == "value":
        return lambda ev, frame: value_compare(
            op, left(ev, frame), right(ev, frame)
        )
    return lambda ev, frame: compare_value(
        ev.store, expr, left(ev, frame), right(ev, frame)
    )


def _test(expr, env, unit) -> Callable[[object, list], bool]:
    """*expr* compiled to its effective boolean value."""
    if isinstance(expr, core.CComparison) and expr.style == "general":
        op = expr.op
        left = _compile(expr.left, env, unit)
        right = _compile(expr.right, env, unit)
        return lambda ev, frame: general_compare(
            op, left(ev, frame), right(ev, frame)
        )
    if isinstance(expr, core.CBool):
        left = _test(expr.left, env, unit)
        right = _test(expr.right, env, unit)
        if expr.op == "and":
            return lambda ev, frame: left(ev, frame) and right(ev, frame)
        return lambda ev, frame: left(ev, frame) or right(ev, frame)
    run = _compile(expr, env, unit)
    return lambda ev, frame: effective_boolean_value(run(ev, frame))


def _bool(expr, env, unit):
    test = _test(expr, env, unit)
    return lambda ev, frame: _TRUE if test(ev, frame) else _FALSE


def _set(expr, env, unit):
    op = expr.op
    left = _compile(expr.left, env, unit)
    right = _compile(expr.right, env, unit)
    return lambda ev, frame: set_value(op, left(ev, frame), right(ev, frame))


def _if(expr, env, unit):
    cond = _test(expr.cond, env, unit)
    then = _compile(expr.then, env, unit)
    orelse = _compile(expr.orelse, env, unit)
    return lambda ev, frame: (
        then(ev, frame) if cond(ev, frame) else orelse(ev, frame)
    )


def _bind(env: dict, unit: _Unit, name: str | None) -> tuple[dict, int | None]:
    if name is None:
        return env, None
    slot = unit.slot()
    return {**env, name: slot}, slot


def _for(expr, env, unit):
    source = _compile(expr.source, env, unit)
    env, slot = _bind(env, unit, expr.var)
    env, pos_slot = _bind(env, unit, expr.position_var)
    body = _compile(expr.body, env, unit)

    def run(ev, frame):
        out = []
        control = ev.control
        for index, item in enumerate(source(ev, frame)):
            if control is not None:
                control.check()
            frame[slot] = [item]
            if pos_slot is not None:
                frame[pos_slot] = [AtomicValue.integer(index + 1)]
            out += body(ev, frame)
        return out

    return run


def _let(expr, env, unit):
    source = _compile(expr.source, env, unit)
    env, slot = _bind(env, unit, expr.var)
    body = _compile(expr.body, env, unit)

    def run(ev, frame):
        frame[slot] = source(ev, frame)
        return body(ev, frame)

    return run


def _ordered_flwor(expr, env, unit):
    """A tuple is a copy of the frame with its clause variables bound."""
    clauses = []
    for clause in expr.clauses:
        source = _compile(clause.source, env, unit)
        env, slot = _bind(env, unit, clause.var)
        env, pos_slot = _bind(env, unit, getattr(clause, "position_var", None))
        is_for = isinstance(clause, core.CForClause)
        clauses.append((source, is_for, slot, pos_slot))
    where = None if expr.where is None else _test(expr.where, env, unit)
    specs = [_compile(spec.expr, env, unit) for spec in expr.specs]
    ret = _compile(expr.ret, env, unit)

    def run(ev, frame):
        control = ev.control
        tuples = [frame[:]]
        for source, is_for, slot, pos_slot in clauses:
            bound = []
            for tup in tuples:
                if control is not None:
                    control.check()
                frame[:] = tup
                value = source(ev, frame)
                for index, item in enumerate(value if is_for else [value]):
                    frame[slot] = [item] if is_for else value
                    if pos_slot is not None:
                        frame[pos_slot] = [AtomicValue.integer(index + 1)]
                    bound.append(frame[:])
            tuples = bound
        if where is not None:
            tuples = [tup for tup in tuples if where(ev, _load(frame, tup))]
        keyed = [
            ([atomize_optional(spec(ev, _load(frame, tup)), "order by key")
              for spec in specs], tup)
            for tup in tuples
        ]
        out = []
        for _, tup in sort_keyed(keyed, expr.specs):
            if control is not None:
                control.check()
            out += ret(ev, _load(frame, tup))
        return out

    return run


def _load(frame: list, tup: list) -> list:
    frame[:] = tup
    return frame


def _quantified(expr, env, unit):
    bindings = []
    for var, source in expr.bindings:
        compiled = _compile(source, env, unit)
        env, slot = _bind(env, unit, var)
        bindings.append((slot, compiled))
    satisfies = _test(expr.satisfies, env, unit)
    want = expr.kind == "some"
    last = len(bindings)

    def holds(ev, frame, depth):
        if depth == last:
            return satisfies(ev, frame)
        slot, source = bindings[depth]
        control = ev.control
        for item in source(ev, frame):
            if control is not None:
                control.check()
            frame[slot] = [item]
            if holds(ev, frame, depth + 1) == want:
                return want
        return not want

    return lambda ev, frame: _TRUE if holds(ev, frame, 0) else _FALSE


# -- paths ----------------------------------------------------------------

def _keep(expr, env, unit):
    """A predicate: a number for a numeric literal (a position), else
    ``keep(ev, frame, position) -> bool`` under the focus in *frame*."""
    if isinstance(expr, core.CLiteral) and is_numeric(expr.value):
        return to_double(expr.value.value)
    if isinstance(expr, (core.CComparison, core.CBool, core.CQuantified)):
        # Boolean-valued: never positional.
        test = _test(expr, env, unit)
        return lambda ev, frame, position: test(ev, frame)
    run = _compile(expr, env, unit)
    return lambda ev, frame, position: _predicate_truth(
        run(ev, frame), position
    )


def _predicates(predicates, env, unit) -> list[tuple]:
    """(keep, attribute-compare shape, its operand) per predicate."""
    out = []
    for predicate in predicates:
        shape = attr_filter_shape(predicate)
        operand = None if shape is None else _compile(
            shape.operand, env, unit
        )
        out.append((_keep(predicate, env, unit), shape, operand))
    return out


def _filter_ids(ev, frame, store, nids, predicates, first=0, fast=True):
    """Filter one step's candidate ids (in axis order) by
    ``predicates[first:]``; the first of them through the
    attribute-compare fast path when it has that shape (and *fast*)."""
    if fast and first < len(predicates) and nids:
        _, shape, operand = predicates[first]
        if shape is not None:
            kept = ev._attr_compare_filter(
                shape, nids, lambda: operand(ev, frame)
            )
            if kept is not None:
                nids, first = kept, first + 1
    for keep, _, _ in predicates[first:]:
        nids = _predicate_filter(ev, frame, keep, store, nids)
    return nids


def _predicate_filter(ev, frame, keep, store, items):
    """Positional filtering of *items* (node ids when *store* is given)
    by one predicate, each item in turn the focus."""
    if isinstance(keep, float):
        if keep.is_integer() and 1 <= keep <= len(items):
            return [items[int(keep) - 1]]
        return []
    saved = frame[0], frame[1], frame[2]
    frame[2] = len(items)
    kept = []
    position = 0
    for item in items:
        position += 1
        frame[0] = item if store is None else Node(store, item)
        frame[1] = position
        if keep(ev, frame, position):
            kept.append(item)
    frame[0], frame[1], frame[2] = saved
    return kept


def _probe(step: core.CAxisStep, axis: str, env, unit):
    """The probe shape of *step* taken on *axis*, and its operand."""
    if not step.predicates:
        return None, None
    probe = probe_shape(axis, step.test, step.predicates[0])
    if probe is None:
        return None, None
    if probe.kind == "range":
        bounds = [_compile(operand, env, unit) for operand in probe.operand]
        return probe, lambda ev, frame: [run(ev, frame) for run in bounds]
    return probe, _compile(probe.operand, env, unit)


def _step_ids(expr: core.CAxisStep, env, unit):
    """``ids(ev, frame, item)``: the step from node *item*, as ids of
    ``item.store`` in document order."""
    axis, test = expr.axis, expr.test
    probe, operand = _probe(expr, axis, env, unit)
    predicates = _predicates(expr.predicates, env, unit)
    matches = node_test(test, axis)
    forward = axis in FORWARD_AXES

    def ids(ev, frame, item):
        if probe is not None:
            probed = ev._indexed_predicate_step(
                item, probe, lambda: operand(ev, frame)
            )
            if probed is not None:
                return _filter_ids(
                    ev, frame, item.store, probed, predicates, 1, fast=False
                )
        store = item.store
        nids = ev._axis_candidates(item, axis, test, matches)
        if predicates:
            nids = _filter_ids(ev, frame, store, nids, predicates)
        return nids if forward else store.sort_document_order(nids)

    return ids


def _axis_step(expr, env, unit):
    ids, axis = _step_ids(expr, env, unit), expr.axis

    def run(ev, frame):
        item = step_context(frame[0], axis)
        store = item.store
        return [Node(store, nid) for nid in ids(ev, frame, item)]

    return run


def _path(expr, env, unit):
    """A chain of path steps compiles to one closure that applies them
    in turn: a loop at run time, and no compiler frame per step."""
    steps = []
    while type(expr) is core.CPath and not _grouped(expr, unit.effects):
        steps.append(_path_step(expr.step, env, unit))
        expr = expr.base
    if not steps:
        return _grouped_path(expr, env, unit)
    base = _compile(expr, env, unit)
    steps.reverse()

    def run(ev, frame):
        value = base(ev, frame)
        for step in steps:
            value = step(ev, frame, value)
        return value

    return run


def _path_step(step, env, unit):
    """``apply(ev, frame, base_value)``: one ``E1/E2`` step."""
    if isinstance(step, core.CAxisStep):
        return _apply_ids(_step_ids(step, env, unit))
    run = _compile(step, env, unit)

    def apply_generic(ev, frame, base_value):
        nodes = node_sequence(base_value, "path step input")
        nodes = nodes_in_document_order(nodes)
        saved = frame[0], frame[1], frame[2]
        frame[2] = len(nodes)
        results: list = []
        for position, node in enumerate(nodes, start=1):
            frame[0], frame[1] = node, position
            results += run(ev, frame)
        frame[0], frame[1], frame[2] = saved
        return path_result(results)

    return apply_generic


def _apply_ids(ids):
    """An axis step's ``apply``, from its :func:`_step_ids`."""

    def apply(ev, frame, base_value):
        nodes = node_sequence(base_value, "path step input")
        if len(nodes) == 1:
            # One context node: the step's ids are document order.
            store = nodes[0].store
            return [Node(store, nid) for nid in ids(ev, frame, nodes[0])]
        nodes = nodes_in_document_order(nodes)
        if not nodes:
            return []
        store = nodes[0].store
        found: list[int] = []
        for node in nodes:
            found += ids(ev, frame, node)
        found = store.sort_document_order(found)
        return [Node(store, nid) for nid in found]

    return apply


def _grouped_path(expr, env, unit):
    """``B//name[P...]``: the evaluator's grouped one-pass step, over the
    compiled B and predicates."""
    step = expr.step
    root = _compile(expr.base.base, env, unit)
    probe, operand = _probe(step, "descendant", env, unit)
    predicates = _predicates(step.predicates, env, unit)
    name = step.test.name

    def run(ev, frame):
        base_nodes = node_sequence(root(ev, frame), "path step input")
        store = ev.store
        nids = ev._grouped_child_path(
            base_nodes,
            name,
            probe,
            lambda: operand(ev, frame),
            lambda group, first: _filter_ids(
                ev, frame, store, group, predicates, first
            ),
        )
        return [Node(store, nid) for nid in nids]

    return run


def _filter(expr, env, unit):
    base = _compile(expr.base, env, unit)
    keeps = [_keep(p, env, unit) for p in expr.predicates]

    def run(ev, frame):
        items = base(ev, frame)
        for keep in keeps:
            items = _predicate_filter(ev, frame, keep, None, items)
        return items

    return run


# -- calls and constructors -------------------------------------------------

def _call(expr, env, unit):
    name, arity = expr.name, len(expr.args)
    args = [_compile(arg, env, unit) for arg in expr.args]
    # The resolution, keyed by the registry table it was made against.
    site = [(None, None)]

    def run(ev, frame):
        functions = ev.functions
        key, resolved = site[0]
        if key is not functions.compiled:
            resolved = functions.resolve(name, arity)
            site[0] = (functions.compiled, resolved)
        values = [arg(ev, frame) for arg in args]
        if isinstance(resolved, core.CFunction):
            depth = ev.enter_call(name)
            try:
                body = compiled_function(functions, resolved)
                return body.invoke(ev, values)
            except RecursionError:
                if depth > 1:
                    raise
                raise ev.stack_exhausted(name) from None
            finally:
                ev.call_depth = depth - 1
        if arity:
            return resolved(ev, _NO_FOCUS, values)
        slot = _FOCUS_READS.get(resolved)
        if slot is not None and frame[2]:
            return [AtomicValue.integer(frame[slot])]
        return resolved(
            ev, DynamicContext(None, frame[0], frame[1], frame[2]), values
        )

    return run


def _name(name, what, env, unit):
    if isinstance(name, str):
        return lambda ev, frame: name
    value = _compile(name, env, unit)
    return lambda ev, frame: ctor_name(value(ev, frame), what)


def _elem(expr, env, unit):
    name = _name(expr.name, "element", env, unit)
    parts = [(_compile(c, env, unit), is_fresh(c)) for c in expr.content]
    return lambda ev, frame: ev.make_element(
        name(ev, frame), [(part(ev, frame), fresh) for part, fresh in parts]
    )


def _attr(expr, env, unit):
    name = _name(expr.name, "attribute", env, unit)
    parts = [
        part if isinstance(part, str) else _compile(part, env, unit)
        for part in expr.parts
    ]

    def run(ev, frame):
        attr_name = name(ev, frame)
        text = "".join(
            part if isinstance(part, str)
            else sequence_string(part(ev, frame))
            for part in parts
        )
        store = ev.store
        return [Node(store, store.create_attribute(attr_name, text))]

    return run


def _text(expr, env, unit):
    if expr.content is None:
        return lambda ev, frame: []
    content = _compile(expr.content, env, unit)
    return lambda ev, frame: ev.make_text(content(ev, frame))


def _comment(expr, env, unit):
    if expr.content is None:
        return lambda ev, frame: []
    content = _compile(expr.content, env, unit)

    def run(ev, frame):
        text = sequence_string(content(ev, frame))
        store = ev.store
        return [Node(store, store.create_comment(text))]

    return run


def _doc(expr, env, unit):
    content = (
        None if expr.content is None else _compile(expr.content, env, unit)
    )

    def run(ev, frame):
        store = ev.store
        doc = store.create_document()
        if content is not None:
            ev._populate_element(doc, [(content(ev, frame), False)])
        return [Node(store, doc)]

    return run


def _pi(expr, env, unit):
    target = _name(expr.target, "PI", env, unit)
    content = (
        None if expr.content is None else _compile(expr.content, env, unit)
    )

    def run(ev, frame):
        name = target(ev, frame)
        text = "" if content is None else sequence_string(content(ev, frame))
        store = ev.store
        return [Node(store, store.create_processing_instruction(name, text))]

    return run


def _copy(expr, env, unit):
    source, fresh = _compile(expr.source, env, unit), is_fresh(expr.source)
    return lambda ev, frame: ev.copy(source(ev, frame), fresh)


# -- updates (Fig. 2) ---------------------------------------------------------

def _insert(expr, env, unit):
    source = _compile(expr.source, env, unit)
    target = _compile(expr.target, env, unit)
    position = expr.position

    def run(ev, frame):
        source_value = source(ev, frame)
        ev.pending.append(insert_request(
            ev.store, position, source_value, target(ev, frame)
        ))
        return []

    return run


def _delete(expr, env, unit):
    target = _compile(expr.target, env, unit)

    def run(ev, frame):
        ev.pending += delete_requests(target(ev, frame))
        return []

    return run


def _replace(expr, env, unit):
    target = _compile(expr.target, env, unit)
    source = _compile(expr.source, env, unit)

    def run(ev, frame):
        target_value = target(ev, frame)
        ev.pending += replace_requests(
            ev.store, target_value, source(ev, frame)
        )
        return []

    return run


def _replace_value(expr, env, unit):
    target = _compile(expr.target, env, unit)
    source = _compile(expr.source, env, unit)

    def run(ev, frame):
        target_value = target(ev, frame)
        ev.pending.append(set_value_request(target_value, source(ev, frame)))
        return []

    return run


def _rename(expr, env, unit):
    target = _compile(expr.target, env, unit)
    name = _compile(expr.name, env, unit)

    def run(ev, frame):
        target_value = target(ev, frame)
        ev.pending.append(rename_request(target_value, name(ev, frame)))
        return []

    return run


def _snap(expr, env, unit):
    """Fig. 2 snap rule: the body's requests collect in a Δ of their
    own, applied once the body is done; nested snaps stack."""
    body = _compile(expr.body, env, unit)
    mode = ApplySemantics.from_keyword(expr.mode)

    def run(ev, frame):
        outer = ev.pending
        delta = ev.pending = []
        try:
            value = body(ev, frame)
        finally:
            ev.pending = outer
        # Check before applying: an interrupt must discard this snap's
        # Δ, never land mid-application.
        if ev.control is not None:
            ev.control.check()
        ev.apply_updates(delta, mode)
        return value

    return run


# -- typing ------------------------------------------------------------------

def _typeswitch(expr, env, unit):
    operand = _compile(expr.operand, env, unit)
    cases = []
    for case in expr.cases:
        case_env, slot = _bind(env, unit, case.var)
        cases.append((case.type_, slot, _compile(case.ret, case_env, unit)))
    default_env, default_slot = _bind(env, unit, expr.default_var)
    default = _compile(expr.default, default_env, unit)

    def run(ev, frame):
        value = operand(ev, frame)
        for type_, slot, ret in cases:
            if matches_sequence_type(value, type_):
                if slot is not None:
                    frame[slot] = value
                return ret(ev, frame)
        if default_slot is not None:
            frame[default_slot] = value
        return default(ev, frame)

    return run


def _instance_of(expr, env, unit):
    operand, type_ = _compile(expr.operand, env, unit), expr.type_
    return lambda ev, frame: (
        _TRUE if matches_sequence_type(operand(ev, frame), type_) else _FALSE
    )


def _treat(expr, env, unit):
    operand, type_ = _compile(expr.operand, env, unit), expr.type_
    return lambda ev, frame: treat_value(type_, operand(ev, frame))


def _cast(expr, env, unit):
    operand = _compile(expr.operand, env, unit)
    return lambda ev, frame: cast_value(expr, operand(ev, frame))


# -- plans (Section 4.3) ------------------------------------------------------
#
# A rewritten plan compiles like any expression, over the same frame: each
# plan variable gets a slot, and a tuple stream is an iterator that binds
# its variables' slots each time it advances.  A stream compiles to
# ``(stream, scope)``, the scope being *env* plus what its tuples bind.

_DONE = object()


def _plan_snap(plan, env, unit):
    """A plan's snap: a barrier that materializes its input, then
    applies the Δ the input collected."""
    items = _compile(plan.input, env, unit)
    mode = ApplySemantics.from_keyword(plan.mode or None)

    def run(ev, frame):
        tracer = ev.tracer
        if tracer is not None:
            tracer.count("exec.barrier.snap")
        outer, delta = ev.pending, []
        ev.pending = delta
        try:
            with maybe_span(tracer, "evaluate"):
                value = items(ev, frame)
        finally:
            ev.pending = outer
        # An interrupt discards the Δ rather than landing inside it.
        if ev.control is not None:
            ev.control.check()
        with maybe_span(tracer, "snap-apply"):
            ev.apply_updates(delta, mode)
        return value

    return run


def _map_from_item(plan, env, unit):
    tuples, scope = _stream(plan.input, env, unit)
    ret = _compile(plan.ret, scope, unit)

    def run(ev, frame):
        out = []
        for _ in tuples(ev, frame):
            out += ret(ev, frame)
        return out

    return run


def _stream(plan, env, unit):
    if isinstance(plan, _CHAIN):
        return _chain(plan, env, unit)
    if type(plan) is P.UnitTuple:
        return (lambda ev, frame: iter((None,))), env
    return _STREAMS[type(plan)](plan, env, unit)


def _own(env: dict, scope: dict) -> dict:
    """The bindings a stream with *scope* adds to *env*."""
    return {n: slot for n, slot in scope.items() if env.get(n) != slot}


def _chain(top, env, unit):
    """A linear MapConcat/LetBind/Select chain: one closure driving its
    per-operator steps with an explicit stack, so chains deeper than the
    recursion limit run.  Level *k* of the stack yields once per tuple
    that passed the first *k* operators; always pulling from the deepest
    level gives the nested loops' depth-first order and the same lazy
    evaluation points."""
    ops = []
    while isinstance(top, _CHAIN):
        ops.append(top)
        top = top.input
    source, env = _stream(top, env, unit)
    steps = []
    for op in reversed(ops):
        if type(op) is P.Select:
            steps.append(_select_step(_test(op.predicate, env, unit)))
            continue
        run = _compile(op.source, env, unit)
        env, slot = _bind(env, unit, op.var)
        if type(op) is P.LetBind:
            steps.append(_let_step(run, slot))
        else:
            env, pos_slot = _bind(env, unit, op.position_var)
            steps.append(_for_step(run, slot, pos_slot))
    last = len(steps)

    def stream(ev, frame):
        control = ev.control
        stack = [source(ev, frame)]
        while stack:
            if control is not None:
                control.check()
            if next(stack[-1], _DONE) is _DONE:
                stack.pop()
            elif len(stack) > last:
                yield
            else:
                stack.append(steps[len(stack) - 1](ev, frame))

    return stream, env


def _for_step(source, slot, pos_slot):
    def step(ev, frame):
        for index, item in enumerate(source(ev, frame), start=1):
            frame[slot] = [item]
            if pos_slot is not None:
                frame[pos_slot] = [AtomicValue.integer(index)]
            yield

    return step


def _let_step(source, slot):
    def step(ev, frame):
        frame[slot] = source(ev, frame)
        return iter((None,))

    return step


def _select_step(test):
    return lambda ev, frame: iter((None,) if test(ev, frame) else ())


def _order_by_sort(plan, env, unit):
    """Materialize the stream (a barrier), key each tuple in generation
    order, so key-expression deltas land where the interpreter puts
    them, and stable-sort."""
    tuples, scope = _stream(plan.input, env, unit)
    keys = [_compile(spec.expr, scope, unit) for spec in plan.specs]
    slots = list(_own(env, scope).values())

    def stream(ev, frame):
        if ev.tracer is not None:
            ev.tracer.count("exec.barrier.order_by")
        keyed = [
            (
                [atomize_optional(key(ev, frame), "order by key")
                 for key in keys],
                [frame[slot] for slot in slots],
            )
            for _ in tuples(ev, frame)
        ]
        for _, values in sort_keyed(keyed, plan.specs):
            _restore(frame, slots, values)
            yield

    return stream, scope


def _restore(frame, slots, values):
    for slot, value in zip(slots, values):
        frame[slot] = value


def _join(join, env, unit, build_left=False):
    """Both inputs of a join lowered: the probe side's ``(stream, key,
    scope, slots)``, the other as a :class:`BuildSide`, and the scope of
    a joined tuple (the right side's bindings win)."""
    sides = []
    inputs = ((join.left, join.left_key), (join.right, join.right_key))
    for plan, key in inputs:
        stream, scope = _stream(plan, env, unit)
        sides.append((plan, key, stream, scope, _own(env, scope)))
    joined = {**sides[0][3], **sides[1][4]}
    probe, build = sides[::-1] if build_left else sides
    plan, key, stream, scope, own = build
    build = BuildSide(
        plan, key, stream, _compile(key, scope, unit), list(own.values()),
        lambda expr: _compile(expr, env, unit),
    )
    plan, key, stream, scope, own = probe
    probe = stream, _compile(key, scope, unit), scope, list(own.values())
    return probe, build, joined


def _hash_join(plan, env, unit):
    """Build one side (a barrier), stream the other.  Both sides are
    pure and allocation-free (the rewrite guard), so building the left
    one when the cost model chose it is unobservable; its output is
    re-sorted to (left position, right position), the right build's."""
    build_left = plan.build == "left"
    (tuples, key, _, probe_slots), side, joined = _join(
        plan, env, unit, build_left
    )
    slots = side.slots

    def stream(ev, frame):
        matches = side.open(ev, frame)
        for _ in tuples(ev, frame):
            for _, values in matches(key(ev, frame)):
                _restore(frame, slots, values)
                yield

    def stream_left(ev, frame):
        matches = side.open(ev, frame)
        pairs = []
        for index, _ in enumerate(tuples(ev, frame)):
            values = [frame[slot] for slot in probe_slots]
            for order, built in matches(key(ev, frame)):
                pairs.append((order, index, built, values))
        pairs.sort(key=itemgetter(0, 1))
        for _, _, left_values, right_values in pairs:
            _restore(frame, slots, left_values)
            _restore(frame, probe_slots, right_values)
            yield

    return (stream_left if build_left else stream), joined


def _group_by(plan, env, unit):
    """The paper's outer join and group-by: build the right side (a
    barrier), stream the left one, and bind each left tuple's group:
    *per_match* once per match, in build order."""
    (tuples, key, left, _), side, joined = _join(plan.input, env, unit)
    per_match = _compile(plan.per_match, joined, unit)
    scope, group_slot = _bind(left, unit, plan.group_var)
    slots = side.slots

    def stream(ev, frame):
        matches = side.open(ev, frame)
        for _ in tuples(ev, frame):
            group = []
            for _, values in matches(key(ev, frame)):
                _restore(frame, slots, values)
                group += per_match(ev, frame)
            frame[group_slot] = group
            yield

    return stream, scope


# The compiler per core node type.
_COMPILERS = {
    core.CLiteral: _literal,
    core.CVar: _var,
    core.CContext: _context,
    core.CEmpty: _empty,
    core.CRoot: _root,
    core.CSequence: _sequence,
    core.CSequenced: _sequence,
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
    P.Snap: _plan_snap,
    P.MapFromItem: _map_from_item,
}
# The linear operators of a FLWOR chain, and the other tuple streams.
_CHAIN = (P.MapConcat, P.LetBind, P.Select)
_STREAMS = {
    P.OrderBySort: _order_by_sort,
    P.HashJoin: _hash_join,
    P.GroupBy: _group_by,
}
