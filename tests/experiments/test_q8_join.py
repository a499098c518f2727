"""E10/E11 — Section 4.3: the Q8 outer-join/group-by plan.

"Naively evaluated, this query has complexity O(|person| * |closed_auction|).
Using an outer join/group by with a typed hash join, we can recover the
join complexity of O(|person| + |closed_auction| + |matches|)."

Counted here, as (persons, closed) doubles from (30, 40) to (120, 160):
the naive nested loop evaluates the ``where`` comparison exactly P·C times
and its evaluation steps grow ~4x per doubling; the optimized plan
evaluates no comparison at all and its steps grow ~2x.  E11: the same
join whose body snaps its insert observes its own effects, so the
rewrite must not fire and the plan keeps the P·C nested loop.
"""

from __future__ import annotations

from itertools import pairwise

import pytest

from repro.lang import core_ast
from repro.semantics import evaluator

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
    compare = evaluator._DISPATCH[core_ast.CComparison]
    evaluate = evaluator.Evaluator.evaluate

    def counted_compare(self, expr, context):
        counts["comparisons"] += 1
        return compare(self, expr, context)

    def counted_evaluate(self, expr, context):
        counts["steps"] += 1
        return evaluate(self, expr, context)

    monkeypatch.setitem(
        evaluator._DISPATCH, core_ast.CComparison, counted_compare
    )
    monkeypatch.setattr(evaluator.Evaluator, "evaluate", counted_evaluate)
    return counts


@pytest.fixture
def run(auction_engine, counting):
    def run(query: str, scale: tuple[int, int], optimize: bool) -> dict:
        engine = auction_engine(*scale)
        counting.update(comparisons=0, steps=0)
        engine.execute(query, optimize=optimize)
        return dict(counting)

    return run


def growth(steps: list[int]) -> list[float]:
    return [later / earlier for earlier, later in pairwise(steps)]


def test_naive_plan_compares_every_pair(run):
    rows = [run(Q8_VARIANT, scale, optimize=False) for scale in SCALES]
    assert [row["comparisons"] for row in rows] == [p * c for p, c in SCALES]
    for ratio in growth([row["steps"] for row in rows]):
        assert 3.5 < ratio <= 4.0, ratio


def test_optimized_plan_compares_nothing_and_grows_linearly(run):
    rows = [run(Q8_VARIANT, scale, optimize=True) for scale in SCALES]
    assert [row["comparisons"] for row in rows] == [0, 0, 0]
    for ratio in growth([row["steps"] for row in rows]):
        assert 1.9 < ratio < 2.1, ratio


@pytest.mark.parametrize("scale", SCALES[:2])
def test_collected_updates_get_the_join(run, scale):
    assert run(COLLECTING, scale, optimize=True)["comparisons"] == 0


@pytest.mark.parametrize("scale", SCALES[:2])
def test_snapped_updates_keep_the_nested_loop(run, scale):
    persons, closed = scale
    row = run(SNAPPING, scale, optimize=True)
    assert row["comparisons"] == persons * closed
