"""E10/E11 — Section 4.3: the Q8 outer-join/group-by plan.

"Naively evaluated, this query has complexity O(|person| * |closed_auction|).
Using an outer join/group by with a typed hash join, we can recover the
join complexity of O(|person| + |closed_auction| + |matches|)."

Counted here, as (persons, closed) doubles from (30, 40) to (120, 160):
the same query with its plan withheld runs as a nested loop on the
evaluator, evaluates the ``where`` comparison exactly P·C times and its
evaluation steps grow ~4x per doubling; the rewritten plan evaluates no
comparison at all and its steps grow ~2x.  E11: the same join whose body
snaps its insert observes its own effects, so the rewrite must not fire
and the query keeps the P·C nested loop.

Prepared queries run as compiled closures
(:mod:`repro.semantics.compiled`), and only a test's reference run
evaluates on the spec (:mod:`repro.semantics.spec`), so a comparison is
a general comparison made by a compiled closure or a ``CComparison``
the spec evaluates, and a step is a compiled closure's run or a
dispatch of the spec's ``evaluate``.
"""

from __future__ import annotations

from itertools import pairwise

import pytest

from repro.lang import core_ast
from repro.semantics import compiled, spec
from tests.interpreted import interpreted

SCALES = ((30, 40), (60, 80), (120, 160))

Q8_VARIANT = """
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                          itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>
"""

COLLECTING = """
for $p in $auction//person
for $t in $auction//closed_auction
where $t/buyer/@person = $p/@id
return insert { <buyer person="{$t/buyer/@person}" /> } into { $purchasers }
"""

SNAPPING = COLLECTING.replace("return insert", "return snap insert")


@pytest.fixture
def counting(monkeypatch):
    """Count comparisons and evaluation steps across every evaluator."""
    counts = {"comparisons": 0, "steps": 0}
    compare = spec.RULES[core_ast.CComparison]
    evaluate = spec.evaluate
    general_compare = compiled.general_compare

    def counted_compare(ev, expr, context):
        counts["comparisons"] += 1
        return compare(ev, expr, context)

    def counted_general_compare(op, left, right):
        counts["comparisons"] += 1
        return general_compare(op, left, right)

    def counted_evaluate(ev, expr, context):
        counts["steps"] += 1
        return evaluate(ev, expr, context)

    def counted_compiler(compile_node):
        def compile_counted(expr, env, unit):
            run = compile_node(expr, env, unit)

            def step(ev, frame):
                counts["steps"] += 1
                return run(ev, frame)

            return step

        return compile_counted

    monkeypatch.setitem(spec.RULES, core_ast.CComparison, counted_compare)
    monkeypatch.setattr(spec, "evaluate", counted_evaluate)
    monkeypatch.setattr(compiled, "general_compare", counted_general_compare)
    for node_type, compile_node in list(compiled._COMPILERS.items()):
        monkeypatch.setitem(
            compiled._COMPILERS, node_type, counted_compiler(compile_node)
        )
    return counts


@pytest.fixture
def run(auction_engine, counting):
    def run(query: str, scale: tuple[int, int], plan: bool = True) -> dict:
        engine = auction_engine(*scale)
        counting.update(comparisons=0, steps=0)
        if plan:
            engine.execute(query)
        else:
            interpreted(engine, query)
        return dict(counting)

    return run


def growth(steps: list[int]) -> list[float]:
    return [later / earlier for earlier, later in pairwise(steps)]


def test_naive_plan_compares_every_pair(run):
    rows = [run(Q8_VARIANT, scale, plan=False) for scale in SCALES]
    assert [row["comparisons"] for row in rows] == [p * c for p, c in SCALES]
    for ratio in growth([row["steps"] for row in rows]):
        assert 3.5 < ratio <= 4.0, ratio


def test_optimized_plan_compares_nothing_and_grows_linearly(run):
    rows = [run(Q8_VARIANT, scale) for scale in SCALES]
    assert [row["comparisons"] for row in rows] == [0, 0, 0]
    for ratio in growth([row["steps"] for row in rows]):
        assert 1.9 < ratio < 2.1, ratio


@pytest.mark.parametrize("scale", SCALES[:2])
def test_collected_updates_get_the_join(run, scale):
    assert run(COLLECTING, scale)["comparisons"] == 0


@pytest.mark.parametrize("scale", SCALES[:2])
def test_snapped_updates_keep_the_nested_loop(run, scale):
    persons, closed = scale
    row = run(SNAPPING, scale)
    assert row["comparisons"] == persons * closed
