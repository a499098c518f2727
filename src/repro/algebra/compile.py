"""Compilation of core expressions into algebra plans (Section 4.2).

The compiler recognizes the FLWOR *pipeline* shape that normalization
produces — a chain of nested ``for``/``let``/``if`` — and hands it to
the optimizer (:mod:`repro.algebra.rewrite`), which restructures it into
join / outer-join/group-by plans when the side-effect guards allow.  A
query gets a plan only when a rewrite fired; every other body runs as
written (the paper's architecture likewise only rewrites plans matching
its rules' preconditions).  Either way it runs lowered to closures
(:mod:`repro.semantics.compiled`).

A plan is always wrapped in a top-level :class:`Snap` — "recall that the
query is always wrapped into a top-level snap" (Section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.lang import core_ast as core
from repro.algebra import plan as P

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import Engine
    from repro.obs.tracer import Tracer
    from repro.semantics.update import ApplySemantics


@dataclass
class ForStep:
    var: str
    source: core.CoreExpr
    position_var: Optional[str] = None


@dataclass
class LetStep:
    var: str
    source: core.CoreExpr


@dataclass
class WhereStep:
    predicate: core.CoreExpr


Step = Union[ForStep, LetStep, WhereStep]


@dataclass
class Pipeline:
    """A decomposed FLWOR chain: ordered steps, optional order-by specs,
    and the return expression."""

    steps: list[Step] = field(default_factory=list)
    ret: core.CoreExpr = None  # type: ignore[assignment]
    order_specs: list = field(default_factory=list)  # list[core.COrderSpec]


def decompose_pipeline(expr: core.CoreExpr) -> Pipeline | None:
    """Split a nested for/let/if chain — or an order-by FLWOR — into a
    :class:`Pipeline`.

    Returns None when *expr* is not a FLWOR (no leading for/let).
    ``if (C) then R else ()`` inside the chain is a ``where`` conjunct —
    the inverse of the normalization rule.
    """
    if isinstance(expr, core.COrderedFLWOR):
        steps: list[Step] = []
        for clause in expr.clauses:
            if isinstance(clause, core.CForClause):
                steps.append(
                    ForStep(clause.var, clause.source, clause.position_var)
                )
            else:
                steps.append(LetStep(clause.var, clause.source))
        if expr.where is not None:
            for conjunct in _split_conjuncts(expr.where):
                steps.append(WhereStep(conjunct))
        return Pipeline(steps=steps, ret=expr.ret, order_specs=list(expr.specs))
    steps = []
    current = expr
    while True:
        if isinstance(current, core.CFor):
            steps.append(ForStep(current.var, current.source, current.position_var))
            current = current.body
        elif isinstance(current, core.CLet):
            steps.append(LetStep(current.var, current.source))
            current = current.body
        elif (
            isinstance(current, core.CIf)
            and isinstance(current.orelse, core.CEmpty)
            and steps
        ):
            for conjunct in _split_conjuncts(current.cond):
                steps.append(WhereStep(conjunct))
            current = current.then
        else:
            break
    if not any(isinstance(s, (ForStep, LetStep)) for s in steps):
        return None
    return Pipeline(steps=steps, ret=current)


def _split_conjuncts(expr: core.CoreExpr) -> list[core.CoreExpr]:
    if isinstance(expr, core.CBool) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def finish_pipeline(plan: P.Plan, pipeline: Pipeline) -> P.Plan:
    """Wrap a tuple-stream plan with the pipeline's order-by (if any) and
    its return clause."""
    if pipeline.order_specs:
        plan = P.OrderBySort(input=plan, specs=pipeline.order_specs)
    return P.MapFromItem(input=plan, ret=pipeline.ret)


def build_steps(plan: P.Plan, steps: list[Step]) -> P.Plan:
    """Stack one operator per step on *plan*: MapConcat for ``for``,
    LetBind for ``let``, Select for a ``where`` conjunct."""
    for step in steps:
        if isinstance(step, ForStep):
            plan = P.MapConcat(
                input=plan,
                var=step.var,
                source=step.source,
                position_var=step.position_var,
            )
        elif isinstance(step, LetStep):
            plan = P.LetBind(input=plan, var=step.var, source=step.source)
        else:
            plan = P.Select(input=plan, predicate=step.predicate)
    return plan


def naive_plan(pipeline: Pipeline) -> P.Plan:
    """The unoptimized pipeline plan (nested-loop semantics)."""
    plan = build_steps(P.UnitTuple(), pipeline.steps)
    return finish_pipeline(plan, pipeline)


def compile_query(
    body: core.CoreExpr,
    engine: "Engine",
    semantics: "ApplySemantics | None" = None,
    tracer: "Tracer | None" = None,
) -> P.Snap | None:
    """The rewritten plan of a query body, or None when the body is not a
    FLWOR pipeline or no rewrite rule fires: the body then runs as
    written.

    A plan is always ``Snap { ... }`` with the given update-application
    *semantics* (the engine's default when omitted).  A *tracer* records
    rewrite-rule firings and per-rule spans (see
    :mod:`repro.algebra.rewrite`).
    """
    pipeline = decompose_pipeline(body)
    if pipeline is None:
        return None
    from repro.algebra.rewrite import try_optimize
    from repro.index import Statistics

    stats = Statistics.from_store(engine.store)
    plan = try_optimize(pipeline, engine.functions, tracer, stats)
    if plan is None:
        return None
    mode = (semantics or engine.default_semantics).value
    return P.Snap(input=plan, mode=mode)
