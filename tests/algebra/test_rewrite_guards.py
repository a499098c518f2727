"""E11 — the optimizer's guards (Section 4.3).

"if we had used a snap insert at line 5 of the source code, the group-by
optimization would be more difficult to detect" — our conservative guard
disables the rewrite whenever any sub-expression may snap; it also blocks
rewrites whose *inputs* may update (cardinality) while allowing effects in
per-tuple positions.
"""

import pytest

from repro import Engine
from repro.algebra.plan import plan_operators
from repro.xmark import XMarkConfig, generate_auction_xml
from tests.interpreted import interpreted


@pytest.fixture(scope="module")
def xml() -> str:
    return generate_auction_xml(
        XMarkConfig(persons=20, items=10, closed_auctions=25)
    )


def fresh(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("auction", xml)
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    return engine


class TestSnapGuard:
    """Guard 1 — any snap inside the query body disables rewriting."""

    SNAPPED_Q8 = """
        for $p in $auction//person
        let $a :=
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return (snap insert { <buyer person="{$t/buyer/@person}" /> }
                  into { $purchasers }, $t)
        return <item person="{ $p/name }">{ count($a) }</item>
    """

    def test_snap_insert_blocks_groupby(self, xml):
        # No rewrite fires, so no plan: the evaluator runs the body.
        assert fresh(xml).compile(self.SNAPPED_Q8) is None

    def test_snap_in_return_blocks_join(self, xml):
        query = """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return snap insert { <b/> } into { $purchasers }
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" not in ops

    def test_snapping_function_blocks_rewrite(self, xml):
        engine = fresh(xml)
        engine.load_module(
            "declare function bump() { snap insert { <t/> } into { $purchasers } };"
        )
        query = """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return bump()
        """
        ops = plan_operators(engine.compile(query))
        assert "HashJoin" not in ops

    def test_blocked_plan_still_correct(self, xml):
        e1, e2 = fresh(xml), fresh(xml)
        interpreted(e1, self.SNAPPED_Q8)
        e2.execute(self.SNAPPED_Q8)
        assert (
            e1.execute("$purchasers").serialize()
            == e2.execute("$purchasers").serialize()
        )


class TestPurityOfInputsGuard:
    """Guard 2 — 'we must check that the inner branch of a join does not
    have updates': the join evaluates its inner branch once instead of once
    per outer tuple."""

    def test_updating_inner_source_blocks_join(self, xml):
        query = """
            for $p in $auction//person
            for $t in (insert { <probe/> } into { $purchasers },
                       $auction//closed_auction)
            where $t/buyer/@person = $p/@id
            return $t
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" not in ops

    def test_updating_inner_source_blocks_groupby(self, xml):
        query = """
            for $p in $auction//person
            let $a := for $t in (insert { <probe/> } into { $purchasers },
                                 $auction//closed_auction)
                      where $t/buyer/@person = $p/@id
                      return $t
            return count($a)
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "GroupBy" not in ops

    def test_naive_fallback_preserves_cardinality(self, xml):
        # The blocked query's probe fires once per person — verify the
        # run after the guard (no plan: the evaluator) matches the
        # interpreter.
        query = """
            for $p in $auction//person
            for $t in (insert { <probe/> } into { $purchasers },
                       $auction//closed_auction)
            where $t/buyer/@person = $p/@id
            return $t
        """
        e1, e2 = fresh(xml), fresh(xml)
        interpreted(e1, query)
        e2.execute(query)
        probes1 = e1.execute("count($purchasers/probe)").first_value()
        probes2 = e2.execute("count($purchasers/probe)").first_value()
        persons = e1.execute("count($auction//person)").first_value()
        assert probes1 == probes2 == persons


class TestIndependenceGuard:
    """The inner stream must not depend on outer pipeline variables."""

    def test_correlated_inner_source_blocks_join(self, xml):
        query = """
            for $p in $auction//person
            for $t in $p/likes
            where $t/@ref = $p/@id
            return $t
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" not in ops

    def test_non_equality_predicate_blocks_join(self, xml):
        query = """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/price > $p/income
            return $t
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" not in ops

    def test_positional_variable_blocks_join(self, xml):
        query = """
            for $p in $auction//person
            for $t at $i in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return $i
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" not in ops


class TestShadowingGuard:
    """An inner ``for`` that rebinds an outer variable's name shadows it:
    both sides of the equality then read the inner binding, so neither
    is the outer key."""

    DOC = '<r><a k="3" id="a1"/><b k="1" j="1" id="b1"/></r>'

    @pytest.mark.parametrize("query, expected", [
        ("for $a in $d//a for $a in $d//b where $a/@k = $a/@j "
         "return string($a/@id)", ["b1"]),
        ("for $a in $d//a for $p in (1, 2) let $g := for $a in $d//b "
         "where $a/@k = $a/@j return ($a, $p) return count($g)",
         ["2", "2"]),
    ])
    def test_shadowing_inner_for_blocks_the_join(self, query, expected):
        engine = Engine()
        engine.load_document("d", self.DOC)
        assert engine.compile(query) is None
        assert engine.execute(query).strings() == expected


class TestEffectsInAllowedPositions:
    """Effects in the return clause / per-match expression survive the
    rewrite (evaluated once per original iteration, in original order)."""

    def test_return_clause_updates_allowed_with_join(self, xml):
        query = """
            for $p in $auction//person
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return insert { <pair/> } into { $purchasers }
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" in ops

    def test_outer_source_updates_allowed(self, xml):
        # The outer branch runs once either way, so effects there are safe.
        query = """
            for $p in (insert { <started/> } into { $purchasers },
                       $auction//person)
            for $t in $auction//closed_auction
            where $t/buyer/@person = $p/@id
            return $t
        """
        ops = plan_operators(fresh(xml).compile(query))
        assert "HashJoin" in ops
        e1, e2 = fresh(xml), fresh(xml)
        interpreted(e1, query)
        e2.execute(query)
        assert (
            e1.execute("count($purchasers/started)").first_value()
            == e2.execute("count($purchasers/started)").first_value()
            == 1
        )


class TestAllocationAndPlacementGuards:
    """Whatever a join runs fewer times than the nested loop it replaces
    must be pure and make no node; a conjunct that may not move keeps
    its place, running once per pair."""

    DOC = '<r><p g="1"/><p g="1"/></r>'

    def test_constructed_inner_source_blocks_join(self):
        engine = Engine()
        engine.load_document("d", self.DOC)
        query = (
            "for $a in $d//p for $b in <x k=\"1\"/> "
            "where $a/@g = $b/@k return $b"
        )
        nodes = engine.execute(query).items
        assert len(nodes) == 2
        assert nodes[0].nid != nodes[1].nid

    def test_updating_conjunct_runs_once_per_pair(self):
        query = (
            "for $a in $d//p for $b in $d//p "
            "where (insert { <m/> } into { $s }, true()) "
            "and $a/@g = $b/@g return 1"
        )
        counts = []
        for run in (Engine.execute, interpreted):
            engine = Engine()
            engine.load_document("d", '<r><p g="1"/><p g="2"/></r>')
            engine.bind("s", engine.parse_fragment("<s/>"))
            assert len(run(engine, query).items) == 2
            counts.append(engine.execute("count($s/m)").first_value())
        assert counts == [4, 4]
