"""Tests for order-by pipelines in the algebra (OrderBySort operator).

An order-by FLWOR runs as a plan only when a rewrite fires; the queries
without a join carry a loop-invariant ``let`` that the hoisting rewrite
moves, so they run as plans too.
"""

import pytest

from repro import Engine
from repro.algebra.plan import plan_operators
from repro.xmark import XMarkConfig, generate_auction_xml
from tests.interpreted import interpreted


@pytest.fixture(scope="module")
def e() -> Engine:
    engine = Engine()
    engine.load_document(
        "auction",
        generate_auction_xml(XMarkConfig(persons=20, items=10, closed_auctions=25)),
    )
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    return engine


class TestPlanShapes:
    def test_orderby_compiles_to_sort_operator(self, e):
        plan = e.compile(
            "for $p in $auction//person let $one := 1 "
            "order by $p/name return string($p/name)"
        )
        ops = plan_operators(plan)
        assert "OrderBySort" in ops
        assert e.compile(
            "for $p in $auction//person order by $p/name return $p"
        ) is None  # no rewrite fires: the evaluator sorts

    def test_orderby_with_join_rewrites(self, e):
        plan = e.compile(
            """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            order by $p/name
            return string($p/name)
            """
        )
        ops = plan_operators(plan)
        assert "HashJoin" in ops and "OrderBySort" in ops
        # The sort sits above the join, below the return.
        assert ops.index("OrderBySort") < ops.index("HashJoin")

    def test_orderby_groupby_combination(self, e):
        plan = e.compile(
            """
            for $p in $auction//person
            let $a := for $t in $auction//closed_auction
                      where $t/buyer/@person = $p/@id
                      return $t
            order by count($a) descending
            return <row n="{$p/name}">{ count($a) }</row>
            """
        )
        ops = plan_operators(plan)
        assert "GroupBy" in ops and "OrderBySort" in ops


class TestEquivalence:
    QUERIES = [
        "for $p in $auction//person let $one := 1 "
        "order by string($p/name) return string($p/name)",
        "for $p in $auction//person let $one := 1 "
        "order by number($p/income) descending return string($p/income)",
        """for $p in $auction//person
           for $t in $auction//closed_auction
           where $t/buyer/@person = $p/@id
           order by string($p/name), string($t/itemref/@item)
           return concat($p/name, ':', $t/itemref/@item)""",
        """for $p in $auction//person
           let $a := for $t in $auction//closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           order by count($a) descending, string($p/name)
           return concat($p/name, '=', count($a))""",
    ]

    @pytest.mark.parametrize("query", QUERIES, ids=["sort", "desc", "join", "group"])
    def test_naive_vs_optimized(self, e, query):
        assert e.compile(query) is not None
        naive = interpreted(e, query).values()
        optimized = e.execute(query).values()
        assert naive == optimized

    def test_effects_in_return_after_sort(self, e):
        query = """
            for $p in $auction//person
            let $one := 1
            order by string($p/name)
            return insert { <v n="{$p/name}"/> } into { $sink }
        """
        e1 = Engine()
        e1.load_document("auction", e.execute("$auction").serialize())
        e1.bind("sink", e1.parse_fragment("<sink/>"))
        interpreted(e1, query)
        expected = e1.execute("$sink/v/@n").strings()

        e2 = Engine()
        e2.load_document("auction", e.execute("$auction").serialize())
        e2.bind("sink", e2.parse_fragment("<sink/>"))
        e2.execute(query)
        assert e2.execute("$sink/v/@n").strings() == expected
        # And they arrive in sorted order (effects follow sorted tuples).
        assert expected == sorted(expected)

    def test_empty_handling_in_plans(self, e):
        query = (
            "for $x in (<a k='2'/>, <a/>, <a k='1'/>) let $one := 1 "
            "order by $x/@k empty greatest return string($x/@k)"
        )
        assert e.compile(query) is not None
        naive = interpreted(e, query).values()
        optimized = e.execute(query).values()
        assert naive == optimized == ["1", "2", ""]
