"""Plan execution over the store (the algebra's physical layer).

A plan runs lowered to one closure over a slot frame, like every other
expression of a prepared query (:mod:`repro.semantics.compiled`,
"plans"): plan variables are frame slots, and the updates its
expressions collect land in the pending Δ in the order the dynamic
semantics prescribes.  Execution is a pull pipeline: each tuple flows
through a MapConcat / LetBind / Select chain (driven with an explicit
stack, so its length is bounded by memory, not the recursion limit)
before the next one is produced.  Only the operators whose semantics
need the whole stream materialize it: Snap (its Δ must be complete
before it applies), OrderBySort, and the build side of a hash join or
group-by, while the probe side streams.

This module holds :func:`execute_plan`, the entry point, and the build
side (:class:`BuildSide`).  A build hashes atomized join keys under the
general-comparison matching rules (untyped values match as strings *and*
as numbers when both sides parse, mirroring ``=``), or reads the
attribute value index when it answers the build side's shape (``B//N``
keyed by ``@a`` or ``c/@a``, see :class:`_IndexedBuild`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.algebra import plan as P
from repro.lang import core_ast as core
from repro.semantics.evaluator import bare_step_name, probe_owners
from repro.xdm.compare import general_compare
from repro.xdm.nodes import Node
from repro.xdm.values import XS_STRING, XS_UNTYPED, Sequence, atomize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lang.core_ast import CCompiled
    from repro.semantics.evaluator import Evaluator

#: A build row is ``(order, slot values)``: its place in the build stream
#: (a document-order key for the rows the index answers) and the values
#: of the build side's slots.  The hash table keeps each row beside its
#: key value.
_ORDER = itemgetter(0)


def execute_plan(
    plan: P.Plan,
    evaluator: "Evaluator",
    lowered: "CCompiled | None" = None,
) -> Sequence:
    """Run *plan* — the ``Snap`` a rewrite produced — on *evaluator*'s
    store and return its value sequence.  *lowered* is the plan's
    closure (a prepared query lowers it when it is prepared), else it is
    lowered here.  With a tracer on *evaluator*, each materialization
    barrier records an ``exec.barrier.*`` counter when it is hit, and
    evaluation and snap application get spans."""
    if lowered is None:
        from repro.semantics.compiled import compile_closure

        lowered = compile_closure(plan, (), evaluator.functions)
    return lowered.invoke(evaluator, ())


class BuildSide:
    """The build side of a hash join or group-by, lowered with its plan:
    ``rows(ev, frame)`` streams the build plan's tuples, binding its
    *slots*, and ``key(ev, frame)`` is the join key under them.  *lower*
    compiles ``B`` in the scope around the side when its shape is one
    the value index may answer (see :func:`_indexed_build`)."""

    def __init__(
        self, plan: P.Plan, key: core.CoreExpr, rows, key_run, slots, lower
    ):
        self.rows, self.key, self.slots = rows, key_run, slots
        self.shape = _index_shape(plan, key)
        self.base = None if self.shape is None else lower(plan.source.base)

    def open(self, ev, frame) -> Callable[[Sequence], list]:
        """Build the side (a barrier) and return the function from a
        probe key's value to the matching ``(order, slot values)`` rows,
        in build-stream order.  A side the value index answers reads it
        per probe, and a probe it cannot answer (a key that is not all
        strings, or a store that declines) reads the hash table, built on
        first need; any other side is hashed here."""
        indexed = _indexed_build(self, ev, frame)
        table = None if indexed is not None else _build_hash_ordered(
            self, ev, frame
        )

        def matches(key_value: Sequence) -> list:
            nonlocal table
            if indexed is not None:
                found = indexed.matches(key_value)
                if found is not None:
                    return found
                if table is None:
                    table = indexed.table()
            return _probe(table, _join_keys(key_value), key_value)

        return matches


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


def _probe(table: dict[object, list], keys: list, key_value: Sequence) -> list:
    """Matching build rows for a probe key, deduplicated and re-verified
    with the exact general-'=' semantics, in build-stream order."""
    matches = []
    seen: set[int] = set()
    for key in keys:
        for built, row in table.get(key, ()):
            if id(row) in seen:
                continue
            seen.add(id(row))
            if general_compare("eq", key_value, built):
                matches.append(row)
    matches.sort(key=_ORDER)
    return matches


def _build_hash_ordered(side: BuildSide, ev, frame) -> dict[object, list]:
    """Build the hash table.  Each row carries its stream position (to
    restore build-stream order across multiple matching keys) and its
    evaluated key value (for exact probe-time re-verification)."""
    table: dict[object, list] = {}
    slots, key = side.slots, side.key
    order = 0
    for _ in side.rows(ev, frame):
        key_value = key(ev, frame)
        entry = key_value, [order, [frame[slot] for slot in slots]]
        order += 1
        for hashed in _join_keys(key_value):
            table.setdefault(hashed, []).append(entry)
    tracer = ev.tracer
    if tracer is not None:
        tracer.count("exec.barrier.hash_build")
        tracer.observe("exec.hash_build.rows", order)
    return table


def _index_shape(plan: P.Plan, key) -> tuple[str, str, str | None] | None:
    """``(N, a, None)`` when *plan* is ``MapConcat(UnitTuple, $v,
    B/descendant::N)`` keyed by ``$v/@a``, ``(N, a, c)`` when keyed by
    ``$v/c/@a``, else None."""
    if not (
        type(plan) is P.MapConcat
        and type(plan.input) is P.UnitTuple
        and plan.position_var is None
        and type(plan.source) is core.CPath
        and type(key) is core.CPath
    ):
        return None
    name = bare_step_name(plan.source.step, "descendant")
    attr, base = bare_step_name(key.step, "attribute"), key.base
    if name is None or attr is None:
        return None
    if type(base) is core.CVar:
        return (name, attr, None) if base.name == plan.var else None
    if type(base) is core.CPath and type(base.base) is core.CVar:
        child = bare_step_name(base.step, "child")
        if child is not None and base.base.name == plan.var:
            return name, attr, child
    return None


def _indexed_build(side: BuildSide, ev, frame) -> "_IndexedBuild | None":
    """An index-backed build for a side of the indexable shape, or None.

    B is evaluated here, before the probe side streams, exactly as the
    hash build would (so its errors surface at the same point).  None
    also when the value indexes are off, or B is not one node of the
    executing store that its indexes cover.
    """
    if side.shape is None or not ev.use_indexes:
        return None
    base = side.base(ev, frame)
    store = ev.store
    if (
        len(base) != 1
        or not isinstance(base[0], Node)
        or base[0].store is not store
    ):
        return None
    blind = getattr(store, "_probes_blind_below", None)
    if blind is not None and blind(base[0].nid):
        return None
    return _IndexedBuild(side, ev, frame, base[0].nid)


class _IndexedBuild:
    """The rows ``$v = N`` of ``B/descendant::N`` whose key ``$v/@a``
    (or ``$v/c/@a``) equals a probe key, read from the attribute value
    index instead of a hash table over every N.

    A key of strings and untyped atomics compares with the untyped
    attribute as raw strings (general ``=``), so the index's exact
    ``(a, value)`` postings hold every match.  The probe reads only the
    postings on the key's path: owned by an N for ``@a``, owned by a
    ``c`` under an N for ``c/@a``.  Each hit must still lie inside B:
    the index is store-wide and also lists detached attributes.

    Postings on that path outside B (other trees, detached copies) cost
    a check each and can grow without bound while B does not, so the
    index reads at most as many postings as the store has N elements
    (the most rows a hash build reads) before the probes move to the
    table for good."""

    def __init__(self, side: BuildSide, ev, frame, root: int):
        self.side, self.ev, self.frame, self.root = side, ev, frame, root
        self.name, self.attr, self.child = side.shape
        self.path = (
            (self.name,) if self.child is None else (self.child, self.name)
        )
        self.budget = ev.store.count_named(self.name)

    def matches(self, key_value: Sequence) -> list | None:
        """The matching rows in document order (the build stream's
        order), or None when the key has a non-string atomic, the store
        declines a probe or the postings budget is spent."""
        if self.budget < 0:
            return None
        targets = set()
        for av in atomize(key_value):
            if av.type not in (XS_STRING, XS_UNTYPED):
                return None
            targets.add(str(av.value))
        ev = self.ev
        store = ev.store
        aids: list[int] = []
        for target in targets:
            hits = ev.counted(
                store.attr_eq_probe(self.attr, target, None, self.path)
            )
            if hits is None:
                return None
            self.budget -= len(hits)
            if self.budget < 0:
                return None
            aids.extend(hits)
        if ev.tracer is not None:
            ev.tracer.count("exec.join.index_probes")
        order_key = store.order_key
        return [
            (order_key(nid), [[Node(store, nid)]])
            for nid in probe_owners(
                store, aids, self.name, self.root, via=self.child
            )
        ]

    def table(self) -> dict[object, list]:
        """The hash table, for the probes the index cannot answer.  Its
        rows are stamped with document-order keys, like the index's, so
        a left build sorts rows from either source together."""
        table = _build_hash_ordered(self.side, self.ev, self.frame)
        order_key = self.ev.store.order_key
        for entries in table.values():
            for _, row in entries:
                row[0] = order_key(row[1][0][0].nid)
        return table
