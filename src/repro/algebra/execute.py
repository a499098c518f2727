"""Plan execution over the store (the algebra's physical layer).

Tuple streams are lazily produced ``dict[str, Sequence]`` values; pending
updates collected while producing tuples accumulate in the execution
state's Δ, preserving the evaluation order the dynamic semantics
prescribes.  Hash-based joins use atomized join keys under the general-
comparison matching rules (untyped values match as strings *and* as
numbers when both sides parse, mirroring ``=``).

Streaming discipline
--------------------

Execution is a pull pipeline: MapConcat / LetBind / Select stages never
build intermediate tuple lists — each tuple flows from the source through
the whole chain before the next one is produced.  Materialization happens
only at the operators whose semantics require seeing the full stream:

* **Snap** — the Δ of the entire inner plan must be complete before
  application, so the inner value sequence is materialized there (this is
  also where ``execute_plan`` returns, since the compiler always wraps
  plans in a top-level snap);
* **OrderBySort** — sorting needs every tuple (and evaluates key
  expressions in generation order so key-expression deltas land exactly
  where the interpreter puts them);
* **HashJoin / GroupBy** — the build side is hashed in full; the probe
  (left) side still streams.

Linear operator chains are driven *iteratively* with an explicit iterator
stack rather than one generator frame per operator, so FLWOR nesting
depth is bounded by memory, not the Python recursion limit — a
1000-level-deep nested ``for`` executes fine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.algebra import plan as P
from repro.errors import DynamicError
from repro.obs.tracer import maybe_span
from repro.semantics.context import DynamicContext
from repro.semantics.update import ApplySemantics, UpdateList, apply_update_list
from repro.xdm.compare import general_compare
from repro.xdm.values import AtomicValue, Sequence, atomize, effective_boolean_value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Tracer
    from repro.semantics.evaluator import Evaluator

Tuple_ = dict  # dict[str, Sequence]


class _ExecState:
    """Shared execution state: the evaluator (and through it the store),
    the pending update list, and (when stats are being collected) the
    tracer fed by the materialization barriers."""

    def __init__(self, evaluator: "Evaluator", tracer: "Tracer | None" = None):
        self.evaluator = evaluator
        self.delta: UpdateList = []
        self.tracer = tracer
        # Execution control (deadline/cancellation), shared with the
        # evaluator running embedded expressions; None when unused.
        self.control = evaluator.control

    def eval_scalar(self, expr, tup: Tuple_) -> Sequence:
        """Evaluate an embedded core expression against a tuple's bindings;
        its pending updates are appended to the plan's Δ."""
        variables = dict(self.evaluator.globals)
        variables.update(tup)
        value, delta = self.evaluator.evaluate(expr, DynamicContext(variables))
        self.delta.extend(delta)
        return value


def execute_plan(
    plan: P.Plan, evaluator: "Evaluator", tracer: "Tracer | None" = None
) -> Sequence:
    """Execute a compiled plan on *evaluator*'s store and return its
    value sequence.

    With a *tracer*, each materialization barrier (snap, order-by sort,
    hash-join build) records a counter when it is hit, snap application
    records Δ-length observations, and evaluation/application phases get
    wall-clock spans.
    """
    state = _ExecState(evaluator, tracer)
    return _items(plan, state)


def _items(plan: P.Plan, state: _ExecState) -> Sequence:
    """Execute a value-producing plan node, materialized.

    Snap is the materialization barrier: the inner stream must be fully
    drained (its Δ complete) before the update list applies.
    """
    if isinstance(plan, P.Snap):
        tracer = state.tracer
        if tracer is not None:
            tracer.count("exec.barrier.snap")
        with maybe_span(tracer, "evaluate"):
            inner = list(_stream_items(plan.input, state))
        mode = (
            ApplySemantics(plan.mode) if plan.mode else ApplySemantics.ORDERED
        )
        # Last check before committing: an interrupt discards the pending
        # Δ rather than landing inside (or after) its application.
        if state.control is not None:
            state.control.check()
        evaluator = state.evaluator
        with maybe_span(tracer, "snap-apply"):
            apply_update_list(
                evaluator.store,
                state.delta,
                mode,
                atomic=evaluator.atomic_snaps,
                tracer=tracer,
                journal=evaluator.journal,
                control=state.control,
                txn_log=evaluator.txn_log,
            )
        state.delta = []
        return inner
    return list(_stream_items(plan, state))


def _stream_items(plan: P.Plan, state: _ExecState) -> Iterator:
    """Lazily yield the items of a value-producing plan node."""
    if isinstance(plan, P.Snap):
        # A nested plan-level snap is itself a barrier; materialize it.
        yield from _items(plan, state)
        return
    if isinstance(plan, P.EvalExpr):
        yield from state.eval_scalar(plan.expr, {})
        return
    if isinstance(plan, P.MapFromItem):
        for tup in _tuples(plan.input, state):
            yield from state.eval_scalar(plan.ret, tup)
        return
    raise DynamicError(f"plan node {type(plan).__name__} does not produce items")


# ----------------------------------------------------------------------
# Tuple streams
# ----------------------------------------------------------------------

# The linear (single-input, tuple-in/tuples-out) operators that form FLWOR
# chains.  These are driven iteratively — see _chain_tuples.
_CHAIN_OPS = (P.MapConcat, P.IndexScan, P.LetBind, P.Select)


def _tuples(plan: P.Plan, state: _ExecState) -> Iterator[Tuple_]:
    """Execute a tuple-stream plan node (lazy)."""
    if isinstance(plan, _CHAIN_OPS):
        return _chain_tuples(plan, state)
    if isinstance(plan, P.UnitTuple):
        return iter(({},))
    if isinstance(plan, P.OrderBySort):
        return _order_by_sort(plan, state)
    if isinstance(plan, P.HashJoin):
        return _hash_join(plan, state)
    if isinstance(plan, P.GroupBy):
        return _group_by(plan, state)
    if isinstance(plan, P.LeftOuterJoin):
        raise DynamicError(
            "LeftOuterJoin must be consumed by GroupBy in this algebra"
        )
    raise DynamicError(f"plan node {type(plan).__name__} is not a tuple stream")


def _chain_tuples(top: P.Plan, state: _ExecState) -> Iterator[Tuple_]:
    """Stream a linear MapConcat/LetBind/Select chain iteratively.

    The chain is unrolled into source-to-sink order and driven with an
    explicit stack of iterators — level *k* of the stack yields tuples
    that have passed the first *k* operators.  Always pulling from the
    deepest level gives exactly the recursive generators' depth-first
    nested-loop order (and the same lazy evaluation points), but resuming
    costs O(1) Python stack regardless of chain length.
    """
    ops: list[P.Plan] = []
    node = top
    while isinstance(node, _CHAIN_OPS):
        ops.append(node)
        node = node.input
    ops.reverse()
    n = len(ops)
    control = state.control
    stack: list[Iterator[Tuple_]] = [_tuples(node, state)]
    while stack:
        if control is not None:
            control.check()
        tup = next(stack[-1], None)
        if tup is None:
            stack.pop()
            continue
        depth = len(stack) - 1  # tup has passed ops[:depth]
        if depth == n:
            yield tup
        else:
            stack.append(_apply_chain_op(ops[depth], tup, state))


def _apply_chain_op(
    op: P.Plan, tup: Tuple_, state: _ExecState
) -> Iterator[Tuple_]:
    """One operator applied to one tuple: an iterator of output tuples."""
    if isinstance(op, P.MapConcat):
        source = state.eval_scalar(op.source, tup)
        return _extend_per_item(op, tup, source)
    if isinstance(op, P.IndexScan):
        return _extend_per_item(op, tup, _index_scan_source(op, tup, state))
    if isinstance(op, P.LetBind):
        extended = dict(tup)
        extended[op.var] = state.eval_scalar(op.source, tup)
        return iter((extended,))
    # Select
    if effective_boolean_value(state.eval_scalar(op.predicate, tup)):
        return iter((tup,))
    return iter(())


def _extend_per_item(
    op: P.MapConcat, tup: Tuple_, source: Sequence
) -> Iterator[Tuple_]:
    for index, item in enumerate(source, start=1):
        extended = dict(tup)
        extended[op.var] = [item]
        if op.position_var:
            extended[op.position_var] = [AtomicValue.integer(index)]
        yield extended


def _index_scan_source(
    op: P.IndexScan, tup: Tuple_, state: _ExecState
) -> Sequence:
    """The items of an IndexScan for one input tuple.

    The cost model substituted this operator for a pure ``B//name``
    MapConcat source; both the index path and the fallback evaluate pure
    expressions, so either route yields identical items in document
    order.  Fallback fires when indexes are disabled for the call, when
    the root produces non-nodes, or when any root node lives outside the
    evaluator's store, or in a snapshot's local construction space.
    """
    from repro.xdm.nodes import Node

    evaluator = state.evaluator
    store = evaluator.store
    if not getattr(evaluator, "use_indexes", False):
        return state.eval_scalar(op.source, tup)
    base = state.eval_scalar(op.root, tup)
    is_local = getattr(store, "_is_local", None)
    for item in base:
        if (
            not isinstance(item, Node)
            or item.store is not store
            or (is_local is not None and is_local(item.nid))
        ):
            return state.eval_scalar(op.source, tup)
    nids: set[int] = set()
    for item in base:
        nids.update(store.descendants_named(item.nid, op.name))
        if op.or_self and store.name(item.nid) == op.name:
            nids.add(item.nid)
    if state.tracer is not None:
        state.tracer.count("exec.index_scan")
        state.tracer.observe("exec.index_scan.rows", len(nids))
    return [Node(store, nid) for nid in store.sort_document_order(nids)]


def _order_by_sort(plan: P.OrderBySort, state: _ExecState) -> Iterator[Tuple_]:
    """Materialize, key and stable-sort the tuple stream (a required
    barrier); key-expression deltas accumulate in generation order,
    matching the interpreter."""
    from repro.semantics.evaluator import _OrderKey
    from repro.xdm.values import atomize_optional

    if state.tracer is not None:
        state.tracer.count("exec.barrier.order_by")
    keyed = []
    for tup in _tuples(plan.input, state):
        keys = []
        for spec in plan.specs:
            key_value = state.eval_scalar(spec.expr, tup)
            keys.append(atomize_optional(key_value, "order by key"))
        keyed.append((keys, tup))
    for index in range(len(plan.specs) - 1, -1, -1):
        spec = plan.specs[index]
        keyed.sort(
            key=lambda pair: _OrderKey(pair[0][index], spec),
            reverse=spec.descending,
        )
    for _, tup in keyed:
        yield tup


def _join_keys(value: Sequence) -> list:
    """Hashable *candidate* keys of an atomized value.

    Each atomic contributes its string form and, when it parses as a
    number, its numeric form.  Hash matching on these keys yields a
    superset of the general-'=' matches (e.g. untyped "01" hashes with 1
    numerically even though "01" = "1" is false for two untyped values);
    probes therefore re-verify every candidate with the exact
    ``general_compare`` semantics before accepting it.
    """
    keys = []
    for av in atomize(value):
        text = av.lexical()
        keys.append(("s", text))
        try:
            keys.append(("n", float(text)))
        except ValueError:
            pass
    return keys


def _probe(
    table: dict[object, list[Tuple_]], keys: list, left_key_value: Sequence
) -> list[Tuple_]:
    """Matching right tuples for a left key, deduplicated and re-verified
    with the exact general-'=' semantics, in right-stream order."""
    matches: list[Tuple_] = []
    seen: set[int] = set()
    for key in keys:
        for tup in table.get(key, ()):
            if id(tup) in seen:
                continue
            seen.add(id(tup))
            if general_compare("eq", left_key_value, tup["__keyval__"]):
                matches.append(tup)
    matches.sort(key=lambda tup: tup["__order__"])
    return matches


def _with_order(stream: Iterator[Tuple_]) -> Iterator[Tuple_]:
    for index, tup in enumerate(stream):
        tup["__order__"] = index
        yield tup


_INTERNAL_KEYS = ("__order__", "__keyval__")


def _strip_order(tup: Tuple_) -> Tuple_:
    return {k: v for k, v in tup.items() if k not in _INTERNAL_KEYS}


def _hash_join(plan: P.HashJoin, state: _ExecState) -> Iterator[Tuple_]:
    """Build one side (a barrier), stream the other.

    The classic shape builds on the right; when the cost model estimated
    the left side smaller it sets ``build="left"`` and the table is
    built there instead.  Both sides are pure (the rewrite guard), so
    swapping which one is evaluated first is unobservable; the output is
    re-sorted to (left position, right position), the exact order the
    right-build stream produces.
    """
    if plan.build == "left":
        yield from _hash_join_build_left(plan, state)
        return
    table = _build_hash_ordered(plan.right, plan.right_key, state)
    for left_tup in _tuples(plan.left, state):
        left_key_value = state.eval_scalar(plan.left_key, left_tup)
        keys = _join_keys(left_key_value)
        for right_tup in _probe(table, keys, left_key_value):
            merged = dict(left_tup)
            merged.update(_strip_order(right_tup))
            yield merged


def _hash_join_build_left(
    plan: P.HashJoin, state: _ExecState
) -> Iterator[Tuple_]:
    table = _build_hash_ordered(plan.left, plan.left_key, state)
    pairs: list[tuple[int, int, Tuple_]] = []
    for right_index, right_tup in enumerate(_tuples(plan.right, state)):
        right_key_value = state.eval_scalar(plan.right_key, right_tup)
        keys = _join_keys(right_key_value)
        for left_tup in _probe(table, keys, right_key_value):
            merged = _strip_order(left_tup)
            merged.update(right_tup)
            pairs.append((left_tup["__order__"], right_index, merged))
    pairs.sort(key=lambda entry: (entry[0], entry[1]))
    for _, _, merged in pairs:
        yield merged


def _group_by(plan: P.GroupBy, state: _ExecState) -> Iterator[Tuple_]:
    """Build the right side (a barrier), stream the grouped left side."""
    join = plan.input
    table = _build_hash_ordered(join.right, join.right_key, state)
    for left_tup in _tuples(join.left, state):
        left_key_value = state.eval_scalar(join.left_key, left_tup)
        keys = _join_keys(left_key_value)
        group: Sequence = []
        for right_tup in _probe(table, keys, left_key_value):
            merged = dict(left_tup)
            merged.update(_strip_order(right_tup))
            group.extend(state.eval_scalar(plan.per_match, merged))
        out = dict(left_tup)
        out[plan.group_var] = group
        yield out


def _build_hash_ordered(
    plan_right: P.Plan, right_key, state: _ExecState
) -> dict[object, list[Tuple_]]:
    """Build the hash table.  Each right tuple is stamped with its stream
    position (to restore right-stream order across multiple matching keys)
    and its evaluated key value (for exact probe-time re-verification)."""
    table: dict[object, list[Tuple_]] = {}
    rows = 0
    for tup in _with_order(_tuples(plan_right, state)):
        key_value = state.eval_scalar(right_key, _strip_order(tup))
        tup["__keyval__"] = key_value
        rows += 1
        for key in _join_keys(key_value):
            table.setdefault(key, []).append(tup)
    if state.tracer is not None:
        state.tracer.count("exec.barrier.hash_build")
        state.tracer.observe("exec.hash_build.rows", rows)
    return table
