"""Semantics-preserving core-to-core simplifications.

Two rules.  The first is a classic XPath rewrite:

    base/descendant-or-self::node()/child::NAME[P...]
        ==>   base/descendant::NAME[P...]

(the expansion of ``//NAME``), which lets the store's element-name index
answer the step directly.  Predicates make the rewrite delicate: the two
sides group candidates differently, so anything *positional* changes
meaning — ``//para[1]`` is "the first para child of each descendant"
while ``descendant::para[1]`` is "the first para descendant".  The
rewrite therefore fires only when every predicate is provably
position-insensitive: an expression whose value is always a boolean (a
comparison, and/or, some/every, or an ``fn:``-prefixed boolean built-in —
these can never trigger the numeric positional-match rule) that mentions
neither ``position()`` nor ``last()`` anywhere.  Both sides then evaluate
the predicate once per candidate in document order, keep the same nodes,
and emit the same Δ.  This matters for the server hot path: without it,
``$auction//item[@id = $itemid]`` walks the whole document instead of
probing the name index.

The second runs after it, **where-pushdown** (:func:`_where_pushdown`):

    for $v in B//N where $v/p op X and REST order by K return R
        ==>   for $v in B//N[p op X] where REST order by K return R

on an ordered FLWOR, so that the value indexes see the conjunct as the
step's probe predicate (:func:`repro.semantics.evaluator.probe_shape` is
the one test of which conjuncts move).  The guards make the moved
conjunct run on exactly the bindings it ran on before, in the same
``and`` order, and keep the query's definedness:

* the clause is the one right before the ``where`` (no later ``let``)
  and the only ``for``, and has no ``at`` variable, so filtering early
  drops the same bindings, renumbers nothing, and overtakes no later
  run of the source;
* its source ends in a predicate-free ``descendant`` name step (what
  ``//N`` collapses to), whose candidates meet the moved conjunct in
  document order, the order of the bindings (a ``child`` step from
  nested context nodes would visit them context by context);
* only the *leading* conjunct moves (two leading ``number(c)`` bounds on
  one ``c`` move together, as the range shape's ``and``): ``and``
  evaluates left to right and stops at the first false, so the rest sees
  the same bindings;
* ``$v`` occurs in the conjunct only as the head of ``$v/step``, which
  becomes ``step``, and the conjunct reads no outer focus;
* the conjunct now runs on every binding before the rest of the
  ``where`` runs on the first one, so the rest must be unable to raise
  (:func:`_raise_free`) for the first error raised to stay the same.
  The order keys and the return clause ran after the whole ``where``
  before and still do.  A probe-shaped conjunct is pure, so the Δ is
  unchanged.

The ``CFor``/``CIf`` nest an unordered ``where`` normalizes to is left
as it is: its body runs between one binding's test and the next.

Also provides :func:`transform`, a generic bottom-up rewriter over core
dataclasses used by this pass (and available for future ones).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.algebra.properties import free_variables
from repro.lang import core_ast as core
from repro.semantics.evaluator import probe_shape
from repro.xdm.values import XS_STRING, XS_UNTYPED


def transform(
    expr: core.CoreExpr, fn: Callable[[core.CoreExpr], core.CoreExpr]
) -> core.CoreExpr:
    """Rebuild *expr* bottom-up, applying *fn* to every core node.

    Children are visited first; *fn* then maps each (possibly rebuilt)
    node to its replacement.  Nodes are only copied when something
    underneath actually changed.
    """
    changes = {}
    for field in dataclasses.fields(expr):
        value = getattr(expr, field.name)
        new_value = _transform_value(value, fn)
        if new_value is not value:
            changes[field.name] = new_value
    rebuilt = dataclasses.replace(expr, **changes) if changes else expr
    return fn(rebuilt)


def _transform_value(value, fn):
    if isinstance(value, core.CoreExpr):
        return transform(value, fn)
    if isinstance(value, list):
        new_items = [_transform_value(item, fn) for item in value]
        if any(a is not b for a, b in zip(new_items, value)):
            return new_items
        return value
    if isinstance(value, tuple):
        new_items = tuple(_transform_value(item, fn) for item in value)
        if any(a is not b for a, b in zip(new_items, value)):
            return new_items
        return value
    if isinstance(
        value, (core.CForClause, core.CLetClause, core.COrderSpec, core.CCase)
    ):
        changes = {}
        for field in dataclasses.fields(value):
            inner = getattr(value, field.name)
            new_inner = _transform_value(inner, fn)
            if new_inner is not inner:
                changes[field.name] = new_inner
        return dataclasses.replace(value, **changes) if changes else value
    return value


def _is_dos_node_step(expr: core.CoreExpr) -> bool:
    return (
        isinstance(expr, core.CAxisStep)
        and expr.axis == "descendant-or-self"
        and expr.test.kind == "node"
        and not expr.predicates
    )


# fn:-prefixed built-ins whose value is always xs:boolean.  Only the
# prefixed form is trusted: an unprefixed call could resolve to a
# same-named user function returning a number (which would flip the
# predicate into positional mode), while ``fn:name`` always resolves to
# the built-in.  Comparison / and / or / some / every are syntax, not
# calls, so they cannot be shadowed at all.
_BOOLEAN_FN_BUILTINS = frozenset(
    {
        "fn:not",
        "fn:empty",
        "fn:exists",
        "fn:boolean",
        "fn:contains",
        "fn:starts-with",
        "fn:ends-with",
        "fn:deep-equal",
        "fn:true",
        "fn:false",
    }
)


def _uses_focus_position(expr: core.CoreExpr) -> bool:
    """Does *expr* mention position()/last() anywhere?

    Conservative: nested predicates introduce their own focus, so an
    inner position() would actually be safe — but distinguishing focus
    levels buys little, and over-rejecting is always sound.
    """
    if isinstance(expr, core.CCall):
        name = expr.name[3:] if expr.name.startswith("fn:") else expr.name
        if name in ("position", "last"):
            return True
    return any(_uses_focus_position(child) for child in core.child_exprs(expr))


def _position_insensitive(predicate: core.CoreExpr) -> bool:
    """True when filtering by *predicate* cannot depend on the focus
    position or size: its value is always boolean (never the numeric
    positional match) and it never reads position()/last()."""
    if isinstance(
        predicate, (core.CComparison, core.CBool, core.CQuantified)
    ):
        return not _uses_focus_position(predicate)
    if (
        isinstance(predicate, core.CCall)
        and predicate.name in _BOOLEAN_FN_BUILTINS
    ):
        return not _uses_focus_position(predicate)
    return False


def _collapse_descendant(expr: core.CoreExpr) -> core.CoreExpr:
    if not isinstance(expr, core.CPath):
        return expr
    step = expr.step
    base = expr.base
    if (
        isinstance(base, core.CPath)
        and _is_dos_node_step(base.step)
        and isinstance(step, core.CAxisStep)
        and step.axis == "child"
        and all(_position_insensitive(p) for p in step.predicates)
    ):
        return core.CPath(
            base=base.base,
            step=core.CAxisStep(
                axis="descendant",
                test=step.test,
                predicates=list(step.predicates),
                line=step.line,
            ),
            line=expr.line,
        )
    return expr


# ----------------------------------------------------------------------
# Where-pushdown
# ----------------------------------------------------------------------


def _conjuncts(expr: core.CoreExpr) -> list[core.CoreExpr]:
    """The operands of an ``and`` chain, left to right."""
    if isinstance(expr, core.CBool) and expr.op == "and":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _conjunction(parts: list[core.CoreExpr]) -> core.CoreExpr:
    expr = parts[0]
    for part in parts[1:]:
        expr = core.CBool(op="and", left=expr, right=part, line=part.line)
    return expr


def _reads_focus(expr: core.CoreExpr) -> bool:
    """Might *expr* read the focus it is evaluated under (conservative:
    a path counts only through its base, and a path's step must be a
    predicate-free axis step)?"""
    if isinstance(expr, (core.CContext, core.CRoot, core.CAxisStep)):
        return True
    if isinstance(expr, core.CCall) and not expr.args:
        return True  # position(), last(), string(), name(), ...
    if isinstance(expr, core.CPath):
        step = expr.step
        return (
            not isinstance(step, core.CAxisStep)
            or bool(step.predicates)
            or _reads_focus(expr.base)
        )
    return any(_reads_focus(child) for child in core.child_exprs(expr))


def _relativized(
    conjunct: core.CoreExpr, var: str
) -> core.CoreExpr | None:
    """*conjunct* with each ``$var/step`` as ``step``: the same test,
    read as a predicate of ``$var``'s binding.  None when the conjunct
    reads the outer focus or mentions ``$var`` anywhere else."""
    if _reads_focus(conjunct):
        return None

    def relative(expr: core.CoreExpr) -> core.CoreExpr:
        if (
            isinstance(expr, core.CPath)
            and isinstance(expr.base, core.CVar)
            and expr.base.name == var
        ):
            return expr.step
        return expr

    moved = transform(conjunct, relative)
    if moved is conjunct or var in free_variables(moved):
        return None
    return moved


def _is_string_literal(expr: core.CoreExpr) -> bool:
    return isinstance(expr, core.CLiteral) and expr.value.type in (
        XS_STRING, XS_UNTYPED
    )


def _raise_free(expr: core.CoreExpr, var: str) -> bool:
    """Can evaluating *expr* never raise?  Conservative: a variable, a
    literal, ``()``, a sequence of such, a path of predicate-free axis
    steps from ``$var`` (bound to one node), a general comparison of
    such a path with a string literal (nodes atomize to strings or
    untyped values, which compare with it as strings), and an
    ``and``/``or`` of paths and such comparisons."""
    if isinstance(expr, (core.CVar, core.CLiteral, core.CEmpty)):
        return True
    if isinstance(expr, core.CSequence):
        return all(_raise_free(item, var) for item in expr.items)
    if isinstance(expr, core.CComparison):
        return expr.style == "general" and any(
            _is_string_literal(one)
            and isinstance(other, core.CPath)
            and _raise_free(other, var)
            for one, other in (
                (expr.left, expr.right), (expr.right, expr.left)
            )
        )
    if isinstance(expr, core.CBool):
        return all(
            isinstance(side, (core.CComparison, core.CPath))
            and _raise_free(side, var)
            for side in (expr.left, expr.right)
        )
    if isinstance(expr, core.CPath):
        base, step = expr.base, expr.step
        return (
            isinstance(step, core.CAxisStep)
            and not step.predicates
            and (
                (isinstance(base, core.CVar) and base.name == var)
                or (isinstance(base, core.CPath) and _raise_free(base, var))
            )
        )
    return False


def _where_pushdown(expr: core.CoreExpr) -> core.CoreExpr:
    """The where-pushdown rule (see the module docstring): an ordered
    FLWOR's leading ``where`` conjunct moves into its last ``for``
    clause's source step."""
    if not (
        isinstance(expr, core.COrderedFLWOR)
        and expr.where is not None
        and expr.clauses
        and isinstance(expr.clauses[-1], core.CForClause)
        and expr.clauses[-1].position_var is None
        # Under an earlier for, the source runs once per tuple, all of
        # them before the where: the conjunct would overtake those runs.
        and not any(
            isinstance(clause, core.CForClause)
            for clause in expr.clauses[:-1]
        )
    ):
        return expr
    clause = expr.clauses[-1]
    source = clause.source
    if not isinstance(source, core.CPath):
        return expr
    step = source.step
    if not (
        isinstance(step, core.CAxisStep)
        and step.axis == "descendant"
        and step.test.kind == "name"
        and step.test.name not in (None, "*")
        and not step.predicates
    ):
        return expr
    parts = _conjuncts(expr.where)
    # Two leading bounds on one number(c) move together (range shape).
    for taken in (2, 1):
        moved = None
        if len(parts) >= taken:
            moved = _relativized(_conjunction(parts[:taken]), clause.var)
        if moved and probe_shape(step.axis, step.test, moved):
            break
    else:
        return expr
    rest = parts[taken:]
    if not all(_raise_free(part, clause.var) for part in rest):
        return expr
    pushed = dataclasses.replace(
        source, step=dataclasses.replace(step, predicates=[moved])
    )
    return dataclasses.replace(
        expr,
        clauses=expr.clauses[:-1] + [
            dataclasses.replace(clause, source=pushed)
        ],
        where=_conjunction(rest) if rest else None,
    )


def simplify(expr: core.CoreExpr) -> core.CoreExpr:
    """Apply all simplification rules to a core expression."""
    return transform(
        expr, lambda node: _where_pushdown(_collapse_descendant(node))
    )


def simplify_module(module: core.CModule) -> core.CModule:
    """Simplify every declaration body and the query body of a module."""
    declarations = []
    for decl in module.declarations:
        if isinstance(decl, core.CVarDecl):
            declarations.append(
                core.CVarDecl(
                    name=decl.name,
                    expr=None if decl.expr is None else simplify(decl.expr),
                    type_=decl.type_,
                )
            )
        else:
            declarations.append(
                core.CFunction(
                    name=decl.name,
                    params=decl.params,
                    body=simplify(decl.body),
                    param_types=decl.param_types,
                    return_type=decl.return_type,
                )
            )
    body = None if module.body is None else simplify(module.body)
    return core.CModule(
        declarations=declarations,
        body=body,
        imports=list(module.imports),
        declared_prefix=module.declared_prefix,
        declared_uri=module.declared_uri,
    )
