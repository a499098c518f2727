"""Rule-based plan rewriting (Sections 4.2–4.3).

Two rewrite rules are implemented, both guarded by the side-effect
judgment:

* **hash join** — ``for $x in A ... for $y in B ... where f($x) = g($y)``
  becomes ``HashJoin(A-stream, B-stream)``, replacing the O(|A|·|B|)
  nested loop by O(|A| + |B| + |matches|);
* **outer-join/group-by** — the paper's XMark Q8 variant,
  ``for $p in A let $a := (for $t in B where f($p) = g($t) return E)
  return R`` becomes
  ``MapFromItem{R}(GroupBy[$a, E](LeftOuterJoin(A, B) on f = g))``.

Guards (Section 4.3 "the optimization rules must be guarded by appropriate
preconditions"):

1. **Innermost snap** — no sub-expression of the pipeline may contain a
   ``snap`` (or call a snapping function): inside the innermost snap the
   store cannot change, so pure sub-expressions may be reordered freely
   (Section 4.2).  Any ``snap`` disables rewriting (conservative).
2. **Purity of restructured inputs** — the inner branch (B) and the join
   predicate must be pure: the join evaluates B *once* instead of once per
   outer tuple, which would change how many times B's effects fire ("we
   must check that the inner branch of a join does not have updates").
   Allocation counts too: each evaluation of a constructor makes a node
   of its own, so whatever a rewrite runs more or fewer times must not
   construct either (``EffectProps.movable``).
3. **Cardinality preservation for effects** — expressions that may collect
   updates (E, R, A) are only ever moved to positions where they are still
   evaluated exactly once per original iteration, in the original order.
"""

from __future__ import annotations

from repro.algebra import plan as P
from repro.algebra.compile import (
    ForStep,
    LetStep,
    Pipeline,
    Step,
    WhereStep,
    build_steps,
    decompose_pipeline,
    finish_pipeline,
    naive_plan,
)
from repro.algebra.properties import EffectAnalyzer, free_variables
from repro.lang import core_ast as core
from repro.obs.tracer import Tracer, maybe_span
from repro.semantics.context import FunctionRegistry

#: The rewrite rules in attempt order, as reported by ``explain``.
RULE_NAMES = ("hoist-invariant-lets", "outer-join-group-by", "hash-join")


def try_optimize(
    pipeline: Pipeline,
    registry: FunctionRegistry,
    tracer: Tracer | None = None,
    stats=None,
) -> P.Plan | None:
    """Attempt the rewrites; None means "no rewrite applies": the body
    then runs as written, with no plan.

    With a *tracer*, every rule records a :class:`RuleFiring` (fired or
    not, with the guard detail that decided it), each attempt runs under a
    ``rewrite:<rule>`` span, and the per-clause purity verdicts feeding the
    guards are captured for ``explain``.

    With *stats* (a :class:`repro.index.Statistics`), the rewritten plan
    gets cost-based choices: hash joins build on their estimated smaller
    side, and the hash-join rule picks the candidate inner branch with
    the fewest estimated build rows.  Every choice (and every rejected
    alternative) is recorded on the tracer's ``costs`` channel.  Cost
    decisions never relax a guard — they pick among plans the guards
    already admitted — and never make a plan where no rule fired.
    """
    analyzer = EffectAnalyzer(registry)
    if tracer is not None:
        tracer.record_purity(purity_verdicts(pipeline, analyzer))
    if _contains_snap(pipeline, analyzer):
        if tracer is not None:
            blocked = {
                "reason": "pipeline contains a snap (innermost-snap guard)"
            }
            for name in RULE_NAMES:
                tracer.rule(name, fired=False, detail=blocked)
        return None
    with maybe_span(tracer, "rewrite:hoist-invariant-lets"):
        hoisted = hoist_invariant_lets(pipeline, analyzer)
    if tracer is not None:
        tracer.rule(
            "hoist-invariant-lets",
            fired=hoisted is not pipeline,
            detail=None
            if hoisted is not pipeline
            else {"reason": "no pure loop-invariant let clause"},
        )
    with maybe_span(tracer, "rewrite:outer-join-group-by"):
        plan = _try_groupby(hoisted, analyzer)
    if tracer is not None:
        tracer.rule(
            "outer-join-group-by",
            fired=plan is not None,
            detail=None
            if plan is not None
            else {"reason": "no pure, independent let-bound inner FLWOR "
                            "with a separable join equality"},
        )
    if plan is None:
        with maybe_span(tracer, "rewrite:hash-join"):
            plan = _try_hashjoin(hoisted, analyzer, stats, tracer)
        if tracer is not None:
            tracer.rule(
                "hash-join",
                fired=plan is not None,
                detail=None
                if plan is not None
                else {"reason": "no pure, independent inner for clause "
                                "with a separable join equality"},
            )
    elif tracer is not None:
        tracer.rule(
            "hash-join",
            fired=False,
            detail={"reason": "not attempted (outer-join-group-by fired)"},
        )
    if plan is not None:
        _cost_pass(plan, stats, tracer)
        return plan
    if hoisted is pipeline:
        return None
    return naive_plan(hoisted)


def purity_verdicts(
    pipeline: Pipeline, analyzer: EffectAnalyzer
) -> list[dict]:
    """Per-clause effect verdicts — the evidence the rewrite guards use.

    Each entry labels one pipeline clause (``for $x`` / ``let $v`` /
    ``where`` / ``order by`` / ``return``) with the analyzer's judgment of
    its source expression.
    """
    verdicts: list[dict] = []

    def verdict(clause: str, expr: core.CoreExpr) -> dict:
        props = analyzer.analyze(expr)
        return {
            "clause": clause,
            "pure": props.pure,
            "may_update": props.may_update,
            "may_snap": props.may_snap,
        }

    for step in pipeline.steps:
        if isinstance(step, ForStep):
            verdicts.append(verdict(f"for ${step.var}", step.source))
        elif isinstance(step, LetStep):
            verdicts.append(verdict(f"let ${step.var}", step.source))
        else:
            verdicts.append(verdict("where", step.predicate))
    for spec in pipeline.order_specs:
        verdicts.append(verdict("order by", spec.expr))
    verdicts.append(verdict("return", pipeline.ret))
    return verdicts


def hoist_invariant_lets(
    pipeline: Pipeline, analyzer: EffectAnalyzer
) -> Pipeline:
    """Loop-invariant code motion for let clauses.

    A ``let $v := E`` whose source is pure and independent of every
    variable bound by *preceding* for clauses is evaluated identically on
    every iteration; moving it in front of those loops evaluates it once.
    Guarded by purity and by allocation (an effectful E must keep its
    per-iteration cardinality, and a constructing one makes a node per
    iteration) — the same cardinality argument as the join guard.
    Returns the original pipeline object when nothing moves.
    """
    steps = list(pipeline.steps)
    moved = False
    for index in range(1, len(steps)):
        step = steps[index]
        if not isinstance(step, LetStep):
            continue
        if not analyzer.analyze(step.source).movable:
            continue
        free = free_variables(step.source)
        # Find the earliest position where every variable the source needs
        # is already bound, passing no step that binds the let's own
        # variable or reads it (moved above it, the let would shadow the
        # binding that step, or the return, sees).
        # Hoisting above a WhereStep would change how often E runs only
        # if E were effectful, which we excluded — but it could
        # *evaluate* E when the where filters everything out; that is
        # safe for a pure, allocation-free E.
        target = index
        for position in range(index - 1, -1, -1):
            previous = steps[position]
            if isinstance(previous, WhereStep):
                if step.var in free_variables(previous.predicate):
                    break
            else:
                binds = {previous.var}
                if isinstance(previous, ForStep) and previous.position_var:
                    binds.add(previous.position_var)
                reads = free_variables(previous.source)
                if binds & free or step.var in binds | reads:
                    break
            target = position
        if target < index:
            steps.insert(target, steps.pop(index))
            moved = True
    if not moved:
        return pipeline
    return Pipeline(
        steps=steps, ret=pipeline.ret, order_specs=pipeline.order_specs
    )


def _pipeline_exprs(pipeline: Pipeline) -> list[core.CoreExpr]:
    exprs: list[core.CoreExpr] = []
    for step in pipeline.steps:
        if isinstance(step, (ForStep, LetStep)):
            exprs.append(step.source)
        else:
            exprs.append(step.predicate)
    for spec in pipeline.order_specs:
        exprs.append(spec.expr)
    exprs.append(pipeline.ret)
    return exprs


def _contains_snap(pipeline: Pipeline, analyzer: EffectAnalyzer) -> bool:
    return any(
        analyzer.analyze(expr).may_snap for expr in _pipeline_exprs(pipeline)
    )


def _bound_vars(steps: list[Step]) -> set[str]:
    bound: set[str] = set()
    for step in steps:
        if isinstance(step, ForStep):
            bound.add(step.var)
            if step.position_var:
                bound.add(step.position_var)
        elif isinstance(step, LetStep):
            bound.add(step.var)
    return bound


def _split_equality(
    predicate: core.CoreExpr,
    outer_vars: set[str],
    inner_var: str,
    pipeline_vars: set[str],
) -> tuple[core.CoreExpr, core.CoreExpr] | None:
    """If *predicate* is a general '=' whose sides separate into an
    outer-only expression and an inner-only expression, return
    (outer_key, inner_key); otherwise None."""
    if not (
        isinstance(predicate, core.CComparison)
        and predicate.style == "general"
        and predicate.op == "eq"
    ):
        return None
    left_free = free_variables(predicate.left) & pipeline_vars
    right_free = free_variables(predicate.right) & pipeline_vars
    if left_free <= outer_vars and right_free <= {inner_var} and right_free:
        return predicate.left, predicate.right
    if right_free <= outer_vars and left_free <= {inner_var} and left_free:
        return predicate.right, predicate.left
    return None


# ----------------------------------------------------------------------
# Rewrite 1: outer-join / group-by (the paper's Section 4.3 plan)
# ----------------------------------------------------------------------

def _try_groupby(pipeline: Pipeline, analyzer: EffectAnalyzer) -> P.Plan | None:
    pipeline_vars = _bound_vars(pipeline.steps)
    for index, step in enumerate(pipeline.steps):
        if not isinstance(step, LetStep):
            continue
        inner = decompose_pipeline(step.source)
        if inner is None:
            continue
        rewritten = _match_inner_join(
            pipeline, index, step, inner, analyzer, pipeline_vars
        )
        if rewritten is not None:
            return rewritten
    return None


def _match_inner_join(
    pipeline: Pipeline,
    let_index: int,
    let_step: LetStep,
    inner: Pipeline,
    analyzer: EffectAnalyzer,
    pipeline_vars: set[str],
) -> P.Plan | None:
    # Inner shape: exactly one for, then where conjuncts; ret is E.
    if inner.order_specs:
        return None  # an ordered inner FLWOR keeps its own evaluation
    fors = [s for s in inner.steps if isinstance(s, ForStep)]
    lets = [s for s in inner.steps if isinstance(s, LetStep)]
    wheres = [s for s in inner.steps if isinstance(s, WhereStep)]
    if len(fors) != 1 or lets or inner.steps[0] is not fors[0]:
        return None
    inner_for = fors[0]
    if inner_for.position_var is not None:
        return None
    outer_steps = pipeline.steps[:let_index]
    outer_vars = _bound_vars(outer_steps)
    if inner_for.var in outer_vars:
        return None  # it shadows an outer variable: the keys cannot split
    all_vars = pipeline_vars | {inner_for.var}
    # Guard 2: B and every inner where conjunct must be pure and
    # allocation-free, and B must be independent of the outer pipeline
    # variables.
    if not analyzer.analyze(inner_for.source).movable:
        return None
    if free_variables(inner_for.source) & pipeline_vars:
        return None
    join_keys: tuple[core.CoreExpr, core.CoreExpr] | None = None
    extra_guards: list[core.CoreExpr] = []
    right_selects: list[core.CoreExpr] = []
    for where in wheres:
        if not analyzer.analyze(where.predicate).movable:
            return None
        if join_keys is None:
            join_keys = _split_equality(
                where.predicate, outer_vars, inner_for.var, all_vars
            )
            if join_keys is not None:
                continue
        pred_vars = free_variables(where.predicate) & all_vars
        if pred_vars <= {inner_for.var}:
            right_selects.append(where.predicate)
        else:
            extra_guards.append(where.predicate)
    if join_keys is None:
        return None
    # Guard 3: E (inner.ret) may collect updates but we checked globally it
    # cannot snap; it runs once per match in both plans.
    per_match = inner.ret
    for guard in reversed(extra_guards):
        per_match = core.CIf(cond=guard, then=per_match, orelse=core.CEmpty())
    left = build_steps(P.UnitTuple(), outer_steps)
    right: P.Plan = P.MapConcat(
        input=P.UnitTuple(), var=inner_for.var, source=inner_for.source
    )
    for predicate in right_selects:
        right = P.Select(input=right, predicate=predicate)
    join = P.LeftOuterJoin(
        left=left, right=right, left_key=join_keys[0], right_key=join_keys[1]
    )
    grouped: P.Plan = P.GroupBy(
        input=join, group_var=let_step.var, per_match=per_match
    )
    grouped = build_steps(grouped, pipeline.steps[let_index + 1 :])
    return finish_pipeline(grouped, pipeline)


# ----------------------------------------------------------------------
# Rewrite 2: plain hash join
# ----------------------------------------------------------------------

def _hashjoin_candidates(
    pipeline: Pipeline, analyzer: EffectAnalyzer
) -> list[dict]:
    """Every inner for clause the hash-join guards admit.

    Each candidate records the clause index, the separated join keys,
    and the pushdown classification of the surrounding where block —
    everything :func:`_build_hashjoin` needs to construct the plan.
    """
    pipeline_vars = _bound_vars(pipeline.steps)
    steps = pipeline.steps
    candidates: list[dict] = []
    for j, step in enumerate(steps):
        if not isinstance(step, ForStep) or j == 0:
            continue
        if step.position_var is not None:
            continue
        inner_var = step.var
        outer_steps = steps[:j]
        outer_vars = _bound_vars(outer_steps)
        if inner_var in outer_vars:
            continue  # it shadows an outer variable: the keys cannot split
        if not any(isinstance(s, ForStep) for s in outer_steps):
            continue
        # Guard 2: the inner branch must be pure, allocation-free and
        # independent.
        if not analyzer.analyze(step.source).movable:
            continue
        if free_variables(step.source) & pipeline_vars:
            continue
        # Find a separable equality among the WhereSteps after j; classify
        # the other conjuncts in the same block for pushdown.
        join_keys = None
        join_where_index = None
        left_pushdown: list[int] = []
        right_pushdown: list[int] = []
        for k in range(j + 1, len(steps)):
            where = steps[k]
            if isinstance(where, (ForStep, LetStep)):
                break  # only rewrite across a contiguous where block
            assert isinstance(where, WhereStep)
            if not analyzer.analyze(where.predicate).movable:
                # It must run per pair, after the conjuncts before it and
                # before those after it: nothing moves past it.
                break
            if join_keys is None:
                join_keys = _split_equality(
                    where.predicate, outer_vars, inner_var, pipeline_vars
                )
                if join_keys is not None:
                    join_where_index = k
                    continue
            # Pure one-sided conjuncts can filter their stream *before*
            # the join (classic selection pushdown): fewer build rows /
            # probe rows, identical results.
            pred_vars = free_variables(where.predicate) & pipeline_vars
            if pred_vars <= outer_vars:
                left_pushdown.append(k)
            elif pred_vars <= {inner_var}:
                right_pushdown.append(k)
        if join_keys is None or join_where_index is None:
            continue
        candidates.append(
            {
                "j": j,
                "step": step,
                "join_keys": join_keys,
                "join_where_index": join_where_index,
                "left_pushdown": left_pushdown,
                "right_pushdown": right_pushdown,
            }
        )
    return candidates


def _build_hashjoin(
    pipeline: Pipeline, candidate: dict
) -> P.Plan:
    steps = pipeline.steps
    j = candidate["j"]
    step = candidate["step"]
    join_keys = candidate["join_keys"]
    outer_steps = steps[:j]
    left = build_steps(P.UnitTuple(), outer_steps)
    for k in candidate["left_pushdown"]:
        left = P.Select(input=left, predicate=steps[k].predicate)
    right: P.Plan = P.MapConcat(
        input=P.UnitTuple(), var=step.var, source=step.source
    )
    for k in candidate["right_pushdown"]:
        right = P.Select(input=right, predicate=steps[k].predicate)
    joined: P.Plan = P.HashJoin(
        left=left,
        right=right,
        left_key=join_keys[0],
        right_key=join_keys[1],
    )
    consumed = {
        candidate["join_where_index"],
        *candidate["left_pushdown"],
        *candidate["right_pushdown"],
    }
    remaining = [
        s for i, s in enumerate(steps) if i > j and i not in consumed
    ]
    joined = build_steps(joined, remaining)
    return finish_pipeline(joined, pipeline)


def _try_hashjoin(
    pipeline: Pipeline,
    analyzer: EffectAnalyzer,
    stats=None,
    tracer: Tracer | None = None,
) -> P.Plan | None:
    candidates = _hashjoin_candidates(pipeline, analyzer)
    if not candidates:
        return None
    chosen = candidates[0]
    if stats is not None and len(candidates) > 1:
        # Join order: among the admissible inner branches, build on the
        # one with the fewest estimated rows.  Ties keep textual order
        # (the deterministic pre-cost behavior).
        def build_rows(candidate: dict) -> int:
            return _estimate_source_rows(candidate["step"].source, stats)

        chosen = min(candidates, key=build_rows)
        if tracer is not None:
            from repro.index import CostDecision

            alternatives = [
                {
                    "plan": f"build ${c['step'].var}",
                    "est_rows": build_rows(c),
                }
                for c in candidates
            ]
            tracer.cost(
                CostDecision(
                    decision="join-order",
                    target="hash-join inner branch",
                    chosen=f"build ${chosen['step'].var}",
                    alternatives=alternatives,
                    reason=(
                        f"fewest estimated build rows "
                        f"({build_rows(chosen)})"
                    ),
                )
            )
    return _build_hashjoin(pipeline, chosen)


# ----------------------------------------------------------------------
# Cost-based pass: hash-join build sides
# ----------------------------------------------------------------------

def _descendant_name_source(expr: core.CoreExpr):
    """``(root, name, or_self)`` when *expr* is a predicate-free
    ``B//name`` (collapsed or uncollapsed), else None."""
    if not isinstance(expr, core.CPath):
        return None
    step = expr.step
    if not isinstance(step, core.CAxisStep):
        return None
    if (
        step.axis in ("descendant", "descendant-or-self")
        and step.test.kind == "name"
        and step.test.name not in (None, "*")
        and not step.predicates
    ):
        return expr.base, step.test.name, step.axis == "descendant-or-self"
    if (
        step.axis == "child"
        and step.test.kind == "name"
        and step.test.name not in (None, "*")
        and not step.predicates
        and isinstance(expr.base, core.CPath)
    ):
        dos = expr.base.step
        if (
            isinstance(dos, core.CAxisStep)
            and dos.axis == "descendant-or-self"
            and dos.test.kind == "node"
            and not dos.predicates
        ):
            # B/descendant-or-self::node()/child::name == B/descendant::name
            return expr.base.base, step.test.name, False
    return None


def _estimate_source_rows(expr: core.CoreExpr, stats) -> int:
    """Estimated item count of a for-clause source expression."""
    matched = _descendant_name_source(expr)
    if matched is not None:
        return max(1, stats.element_count(matched[1]))
    # Unknown shape: assume it visits a modest fraction of the store.
    return max(1, stats.total_nodes() // 10)


def _estimate_stream_rows(plan: P.Plan, stats) -> int:
    """Estimated tuple count of a tuple-stream chain."""
    if isinstance(plan, P.UnitTuple):
        return 1
    if isinstance(plan, P.MapConcat):
        rows = _estimate_source_rows(plan.source, stats)
        return _estimate_stream_rows(plan.input, stats) * rows
    if isinstance(plan, P.LetBind):
        return _estimate_stream_rows(plan.input, stats)
    if isinstance(plan, P.Select):
        # Default filter selectivity of 1/3 — enough to order
        # alternatives, not meant to be calibrated.
        return max(1, _estimate_stream_rows(plan.input, stats) // 3)
    return max(1, stats.total_nodes() // 10)


def _cost_pass(plan: P.Plan, stats, tracer) -> None:
    """Cost-based physical choices over an already-guarded plan: every
    hash join builds on its estimated smaller input.  Mutates *plan* in
    place.  No-op without statistics or on stores below
    :data:`repro.index.MIN_TABLE_NODES` (plan-shape churn on miniature
    documents buys nothing and would destabilize small-plan tests and
    renderings).
    """
    if stats is None:
        return
    from repro.index import MIN_TABLE_NODES, CostDecision, hash_join_cost

    if stats.total_nodes() < MIN_TABLE_NODES:
        return
    stack = [plan]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if not isinstance(node, P.HashJoin):
            continue
        left_rows = _estimate_stream_rows(node.left, stats)
        right_rows = _estimate_stream_rows(node.right, stats)
        build_right = hash_join_cost(right_rows, left_rows)
        build_left = hash_join_cost(left_rows, right_rows)
        if build_left < build_right:
            node.build = "left"
            chosen = "build-left"
            reason = (
                f"left estimate {left_rows} rows < "
                f"right estimate {right_rows} rows"
            )
        else:
            chosen = "build-right"
            reason = (
                f"right estimate {right_rows} rows <= "
                f"left estimate {left_rows} rows"
            )
        if tracer is not None:
            tracer.cost(
                CostDecision(
                    decision="hash-build-side",
                    target="hash-join",
                    chosen=chosen,
                    alternatives=[
                        {
                            "plan": "build-right",
                            "cost": build_right,
                            "est_rows": right_rows,
                        },
                        {
                            "plan": "build-left",
                            "cost": build_left,
                            "est_rows": left_rows,
                        },
                    ],
                    reason=reason,
                )
            )
