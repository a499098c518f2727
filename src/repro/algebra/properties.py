"""The side-effect judgment guarding optimizer rewrites (Sections 4.2, 5).

For each core expression we compute:

* ``may_update`` — evaluation may *produce* pending update requests;
* ``may_snap``  — evaluation may *apply* updates (contains a ``snap``, so
  the store can visibly change during evaluation);
* ``may_construct`` — evaluation may *allocate* nodes (a constructor or
  ``copy``);
* combined: an expression is **pure** iff it neither updates nor snaps
  ("if they only perform allocations or copies, their evaluation can
  still be commuted or interleaved" — Section 3.4), and **collecting**
  iff it may update but never snaps (safe inside an innermost snap:
  effects are gathered, not observed).  A pure expression that
  constructs may be reordered, but not run more or fewer times: each
  evaluation of a constructor makes a node of its own (XQuery 1.0
  §3.7.1), so a rewrite that changes how often an expression runs also
  needs it not to construct (:meth:`EffectProps.movable`).

User function calls propagate the flags of their bodies with the monadic
rule of Section 5 ("a function that calls an updating function is updating
as well").  The flags of the functions a call reaches are the least
fixpoint of that rule over the call graph: every function starts pure and
the bodies are re-judged until no flag changes, so a recursive function is
exactly as updating (or snapping) as its cycle makes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import core_ast as core
from repro.semantics.context import FunctionRegistry


@dataclass(frozen=True)
class EffectProps:
    """Effect flags of an expression."""

    may_update: bool = False
    may_snap: bool = False
    may_construct: bool = False

    @property
    def pure(self) -> bool:
        """No pending updates and no snaps: full XQuery 1.0 freedom."""
        return not (self.may_update or self.may_snap)

    @property
    def movable(self) -> bool:
        """Pure and allocation-free: it may run more or fewer times."""
        return not (self.may_update or self.may_snap or self.may_construct)

    @property
    def collecting_only(self) -> bool:
        """Produces update requests but never applies them."""
        return self.may_update and not self.may_snap


_FLAGS = {
    (update, snap, construct): EffectProps(update, snap, construct)
    for update in (False, True)
    for snap in (False, True)
    for construct in (False, True)
}
_PURE = _FLAGS[False, False, False]
_UPDATING = _FLAGS[True, False, False]
_CONSTRUCTING = _FLAGS[False, False, True]
_ALL = _FLAGS[True, True, True]
_CONSTRUCTORS = (
    core.CElem, core.CAttr, core.CText, core.CComment, core.CDoc, core.CPI,
    core.CCopy,
)


class EffectAnalyzer:
    """Memoizing analyzer over a function registry.

    One analyzer should be created per optimization pass; function bodies
    are analyzed on demand and cached by declaration.
    """

    def __init__(self, registry: FunctionRegistry | None):
        self._registry = registry
        self._function_cache: dict[int, EffectProps] = {}
        # The flags assumed so far for the functions being solved.
        self._assumed: dict[int, EffectProps] = {}

    def analyze(self, expr: core.CoreExpr) -> EffectProps:
        """Compute the effect flags of *expr*."""
        return self.combine(
            expr, [self.analyze(child) for child in core.child_exprs(expr)]
        )

    def combine(
        self, expr: core.CoreExpr, children: list[EffectProps]
    ) -> EffectProps:
        """The flags of *expr* given those of its ``child_exprs``."""
        construct = any(c.may_construct for c in children)
        if isinstance(expr, core.CSnap):
            # The snap applies its body's updates: the body's may_update is
            # discharged here, surfacing as a store mutation (may_snap).
            return _FLAGS[False, True, construct]
        if isinstance(
            expr,
            (core.CInsert, core.CDelete, core.CReplace,
             core.CReplaceValue, core.CRename),
        ):
            own = _UPDATING
        elif isinstance(expr, core.CCall):
            own = self._call_props(expr)
        elif isinstance(expr, _CONSTRUCTORS):
            own = _CONSTRUCTING
        else:
            own = _PURE
        update = own.may_update or any(c.may_update for c in children)
        snap = own.may_snap or any(c.may_snap for c in children)
        return _FLAGS[update, snap, construct or own.may_construct]

    def _call_props(self, expr: core.CCall) -> EffectProps:
        if self._registry is None:
            # Without a registry we cannot see function bodies: assume the
            # worst for non-built-in names.
            return _ALL
        function = self._registry.lookup_user(expr.name, len(expr.args))
        if function is None:
            # Built-ins are pure by construction.
            if self._registry.lookup_builtin(expr.name, len(expr.args)):
                return _PURE
            return _ALL
        key = id(function)
        props = self._function_cache.get(key) or self._assumed.get(key)
        if props is None:
            self._solve(function)
            props = self._function_cache[key]
        return props

    def _solve(self, function: core.CFunction) -> None:
        """Judge *function* and every user function it reaches that is
        not judged yet: assume them all pure, then re-judge each body
        until no flag changes.  A round that changes something raises a
        flag, and flags never fall, so this ends within two rounds per
        function, plus one; only the final flags are cached."""
        reached: dict[int, core.CFunction] = {}
        stack = [function]
        while stack:
            current = stack.pop()
            key = id(current)
            if key in reached or key in self._function_cache:
                continue
            reached[key] = current
            for call in _calls(current.body):
                callee = self._registry.lookup_user(call.name, len(call.args))
                if callee is not None:
                    stack.append(callee)
        assumed = self._assumed
        assumed.update((key, _PURE) for key in reached)
        try:
            changed = True
            while changed:
                changed = False
                for key, current in reached.items():
                    props = self.analyze(current.body)
                    if props != assumed[key]:
                        assumed[key] = props
                        changed = True
            for key in reached:
                self._function_cache[key] = assumed[key]
        finally:
            for key in reached:
                del assumed[key]


def _calls(expr: core.CoreExpr) -> list[core.CCall]:
    """Every call in *expr* (iteratively: bodies may nest deeply)."""
    calls = []
    stack = [expr]
    while stack:
        current = stack.pop()
        if isinstance(current, core.CCall):
            calls.append(current)
        stack.extend(core.child_exprs(current))
    return calls


def effect_properties(
    expr: core.CoreExpr, registry: FunctionRegistry | None = None
) -> EffectProps:
    """One-shot effect analysis of *expr*."""
    return EffectAnalyzer(registry).analyze(expr)


def is_pure(expr: core.CoreExpr, registry: FunctionRegistry | None = None) -> bool:
    """True when *expr* neither produces nor applies updates."""
    return effect_properties(expr, registry).pure


def free_variables(expr: core.CoreExpr) -> set[str]:
    """Free variables of a core expression (used by join detection to
    check which clause bindings a predicate side depends on)."""
    free: set[str] = set()

    def walk(e: core.CoreExpr, bound: frozenset[str]) -> None:
        if isinstance(e, core.CVar):
            if e.name not in bound:
                free.add(e.name)
            return
        if isinstance(e, core.CFor):
            walk(e.source, bound)
            inner = bound | {e.var}
            if e.position_var:
                inner |= {e.position_var}
            walk(e.body, frozenset(inner))
            return
        if isinstance(e, core.CLet):
            walk(e.source, bound)
            walk(e.body, frozenset(bound | {e.var}))
            return
        if isinstance(e, core.COrderedFLWOR):
            scope = set(bound)
            for clause in e.clauses:
                walk(clause.source, frozenset(scope))
                scope.add(clause.var)
                if isinstance(clause, core.CForClause) and clause.position_var:
                    scope.add(clause.position_var)
            frozen = frozenset(scope)
            if e.where is not None:
                walk(e.where, frozen)
            for spec in e.specs:
                walk(spec.expr, frozen)
            walk(e.ret, frozen)
            return
        if isinstance(e, core.CQuantified):
            scope = set(bound)
            for var, source in e.bindings:
                walk(source, frozenset(scope))
                scope.add(var)
            walk(e.satisfies, frozenset(scope))
            return
        for child in core.child_exprs(e):
            walk(child, bound)

    walk(expr, frozenset())
    return free
