"""Tests for loop-invariant let hoisting."""

import pytest

from repro import Engine
from repro.algebra.compile import LetStep, decompose_pipeline
from repro.algebra.plan import pretty_plan
from repro.algebra.properties import EffectAnalyzer
from repro.algebra.rewrite import hoist_invariant_lets
from repro.lang.normalize import normalize
from repro.lang.parser import parse
from repro.semantics.functions import default_registry
from tests.interpreted import interpreted


def hoist(text: str):
    pipeline = decompose_pipeline(normalize(parse(text)))
    analyzer = EffectAnalyzer(default_registry())
    return pipeline, hoist_invariant_lets(pipeline, analyzer)


class TestHoisting:
    def test_invariant_let_moves_before_loop(self):
        before, after = hoist(
            "for $x in $s let $k := count($t) return $x + $k"
        )
        assert isinstance(before.steps[1], LetStep)
        assert isinstance(after.steps[0], LetStep)
        assert after.steps[0].var == "k"

    def test_dependent_let_stays(self):
        before, after = hoist(
            "for $x in $s let $k := $x + 1 return $k"
        )
        assert after is before  # untouched

    def test_effectful_let_stays(self):
        before, after = hoist(
            "for $x in $s let $k := (insert { <l/> } into { $t }, 1) "
            "return $k"
        )
        assert after is before

    def test_positional_var_dependency_respected(self):
        before, after = hoist(
            "for $x at $i in $s let $k := $i * 2 return $k"
        )
        assert after is before

    def test_partial_hoist_over_two_loops(self):
        _, after = hoist(
            "for $a in $s for $b in $t let $k := count($u) return $k"
        )
        assert isinstance(after.steps[0], LetStep)

    @pytest.mark.parametrize("query", [
        # The let rebinds the loop's variable: above it, the loop's
        # binding would shadow the let's.
        "for $i in (1, 2) return let $i := 5 return $i",
        # The loop reads an outer $k the let would shadow.
        "let $k := 1 return for $x in ($k, $k) let $k := 7 return $x + $k",
        # So does the where clause between them.
        "let $k := 1 return for $x in (1, 2) return "
        "if ($k = 1) then let $k := 7 return $x + $k else ()",
    ])
    def test_hoist_never_shadows_a_binding(self, query):
        engine = Engine()
        assert engine.execute(query).items == interpreted(engine, query).items

    def test_hoist_stops_at_binder(self):
        _, after = hoist(
            "for $a in $s for $b in $t let $k := count($b) return $k"
        )
        # $k depends on $b: it may move above nothing past $b's loop.
        kinds = [type(s).__name__ for s in after.steps]
        assert kinds == ["ForStep", "ForStep", "LetStep"]


class TestEndToEnd:
    def make_engine(self) -> Engine:
        engine = Engine()
        engine.load_document(
            "db", "<db>" + "<n/>" * 50 + "<m/>" * 50 + "</db>"
        )
        engine.bind("sink", engine.parse_fragment("<sink/>"))
        return engine

    QUERY = "for $x in $db//n let $total := count($db//m) return $total"

    def test_values_unchanged(self):
        naive = interpreted(self.make_engine(), self.QUERY)
        optimized = self.make_engine().execute(self.QUERY)
        assert naive.values() == optimized.values()

    def test_plan_shows_hoist(self):
        engine = self.make_engine()
        plan = engine.compile(self.QUERY)
        text = pretty_plan(plan)
        # LetBind must appear BELOW MapConcat in the tree (evaluated first).
        assert text.index("MapConcat[x]") < text.index("LetBind[total]")

    def test_effectful_query_not_hoisted(self):
        engine = self.make_engine()
        query = (
            "for $x in $db//n "
            "let $probe := (insert { <p/> } into { $sink }, 1) "
            "return $probe"
        )
        engine.execute(query)
        # One insert per n — cardinality preserved.
        assert engine.execute("count($sink/p)").first_value() == 50


class TestAllocationGuard:
    """Each evaluation of a constructor makes a node of its own (XQuery
    1.0 §3.7.1): a constructing ``let`` source is pure but stays in its
    loop, or one node would stand for every iteration's."""

    def test_constructing_let_stays(self):
        before, after = hoist(
            "for $i in (1, 2) let $y := <m/> return $y"
        )
        assert after is before

    def test_each_iteration_constructs_its_own_node(self):
        nodes = Engine().execute(
            "for $i in (1, 2) let $y := <m/> return $y"
        ).items
        assert len(nodes) == 2
        assert nodes[0].nid != nodes[1].nid
