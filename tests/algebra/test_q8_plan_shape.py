"""E10 — the Section 4.3 optimized plan.

The paper prints the plan its compiler produces for the XMark Q8 variant::

    Snap {
      MapFromItem { <person ...>{count(Input#a)}</person> }
        (GroupBy [ Input#p, { (insert ..., Input#t) } ]
          ( LeftOuterJoin( MapFromItem{[p:Input]}($auction//person),
                           MapFromItem{[t:Input]}($auction//closed_auction))
            on { Input#t/buyer/@person = Input#p/@id } ))
    }

Our compiler must produce the same operator tree, and its execution must be
value- and effect-equivalent to the interpreted nested loop.
"""

import pytest

from repro import Engine
from repro.algebra.plan import GroupBy, LeftOuterJoin, MapFromItem, Snap, plan_operators
from repro.xmark import XMarkConfig, generate_auction_xml
from tests.interpreted import interpreted

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


@pytest.fixture(scope="module")
def xml() -> str:
    return generate_auction_xml(
        XMarkConfig(persons=25, items=15, closed_auctions=35)
    )


def fresh(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("auction", xml)
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    return engine


class TestPlanShape:
    def test_q8_compiles_to_groupby_outer_join(self, xml):
        plan = fresh(xml).compile(Q8_VARIANT)
        assert isinstance(plan, Snap)
        assert isinstance(plan.input, MapFromItem)
        assert isinstance(plan.input.input, GroupBy)
        assert isinstance(plan.input.input.input, LeftOuterJoin)

    def test_operator_list(self, xml):
        ops = plan_operators(fresh(xml).compile(Q8_VARIANT))
        assert ops == [
            "Snap",
            "MapFromItem",
            "GroupBy",
            "LeftOuterJoin",
            "MapConcat",   # person stream
            "UnitTuple",
            "MapConcat",   # closed_auction stream
            "UnitTuple",
        ]

    def test_group_variable(self, xml):
        plan = fresh(xml).compile(Q8_VARIANT)
        assert plan.input.input.group_var == "a"

    def test_pure_q8_also_rewrites(self, xml):
        pure_q8 = """
            for $p in $auction//person
            let $a := for $t in $auction//closed_auction
                      where $t/buyer/@person = $p/@id
                      return $t
            return <item person="{ $p/name }">{ count($a) }</item>
        """
        ops = plan_operators(fresh(xml).compile(pure_q8))
        assert "GroupBy" in ops and "LeftOuterJoin" in ops


class TestEquivalence:
    """The optimized plan must preserve values AND side effects."""

    def test_values_identical(self, xml):
        naive = interpreted(fresh(xml), Q8_VARIANT)
        optimized = fresh(xml).execute(Q8_VARIANT)
        assert naive.serialize() == optimized.serialize()

    def test_side_effects_identical(self, xml):
        e1, e2 = fresh(xml), fresh(xml)
        interpreted(e1, Q8_VARIANT)
        e2.execute(Q8_VARIANT)
        buyers1 = e1.execute("$purchasers").serialize()
        buyers2 = e2.execute("$purchasers").serialize()
        assert buyers1 == buyers2
        assert e1.execute("count($purchasers/buyer)").first_value() > 0

    def test_matches_count(self, xml):
        engine = fresh(xml)
        engine.execute(Q8_VARIANT)
        buyers = engine.execute("count($purchasers/buyer)").first_value()
        closed = engine.execute(
            "count($auction//closed_auction)"
        ).first_value()
        assert buyers == closed  # every closed auction matches one person


class TestHashJoinRewrite:
    """The plain join of Section 2.1 (insert-per-match, no grouping)."""

    JOIN_QUERY = """
        for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        return insert { <buyer person="{$t/buyer/@person}" /> }
               into { $purchasers }
    """

    def test_compiles_to_hash_join(self, xml):
        ops = plan_operators(fresh(xml).compile(self.JOIN_QUERY))
        assert "HashJoin" in ops
        assert "Select" not in ops  # the predicate became the join condition

    def test_join_equivalence(self, xml):
        e1, e2 = fresh(xml), fresh(xml)
        interpreted(e1, self.JOIN_QUERY)
        e2.execute(self.JOIN_QUERY)
        assert (
            e1.execute("$purchasers").serialize()
            == e2.execute("$purchasers").serialize()
        )

    def test_pure_join_values(self, xml):
        query = """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return string($p/name)
        """
        naive = interpreted(fresh(xml), query).values()
        optimized = fresh(xml).execute(query).values()
        assert naive == optimized

    def test_swapped_predicate_sides(self, xml):
        query = """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $p/@id = $t/buyer/@person
            return string($p/name)
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" in ops
        naive = interpreted(fresh(xml), query).values()
        optimized = fresh(xml).execute(query).values()
        assert naive == optimized
