"""Unit tests for pipeline decomposition and plan construction."""

import pytest

from repro import Engine
from repro.algebra.compile import (
    ForStep,
    LetStep,
    WhereStep,
    decompose_pipeline,
    naive_plan,
)
from repro.algebra.execute import execute_plan
from repro.algebra.plan import Snap, plan_operators, pretty_plan
from repro.lang.normalize import normalize
from repro.lang.parser import parse
from tests.interpreted import interpreted


def decompose(text: str):
    return decompose_pipeline(normalize(parse(text)))


class TestDecomposition:
    def test_single_for(self):
        p = decompose("for $x in $s return $x")
        assert len(p.steps) == 1
        assert isinstance(p.steps[0], ForStep)

    def test_for_let_where(self):
        p = decompose(
            "for $x in $s let $y := $x where $y > 1 return $y"
        )
        kinds = [type(s).__name__ for s in p.steps]
        assert kinds == ["ForStep", "LetStep", "WhereStep"]

    def test_where_conjuncts_split(self):
        p = decompose(
            "for $x in $s where $x > 1 and $x < 9 and $x != 5 return $x"
        )
        wheres = [s for s in p.steps if isinstance(s, WhereStep)]
        assert len(wheres) == 3

    def test_non_flwor_returns_none(self):
        assert decompose("1 + 1") is None
        assert decompose("if ($c) then 1 else ()") is None

    def test_positional_var_kept(self):
        p = decompose("for $x at $i in $s return $i")
        assert p.steps[0].position_var == "i"

    def test_ordered_flwor_decomposes_with_specs(self):
        p = decompose("for $x in $s order by $x return $x")
        assert p is not None
        assert len(p.order_specs) == 1
        assert isinstance(p.steps[0], ForStep)


class TestNaivePlan:
    def test_operator_chain(self):
        pipeline = decompose(
            "for $x in $s let $y := $x where $y > 1 return $y"
        )
        ops = plan_operators(naive_plan(pipeline))
        assert ops == [
            "MapFromItem", "Select", "LetBind", "MapConcat", "UnitTuple",
        ]


#: A pipeline the let-hoisting rewrite changes, so it gets a plan.
HOISTED = "for $x in $s let $k := 1 return $x + $k"


class TestCompileQuery:
    def test_non_pipeline_falls_back_to_eval(self):
        engine = Engine()
        engine.bind("x", 1)
        assert engine.compile("$x + 1") is None
        assert engine.execute("$x + 1").first_value() == 2

    def test_unrewritten_pipeline_gets_no_plan(self):
        engine = Engine()
        engine.bind("s", [1, 2])
        assert engine.compile("for $x in $s return $x") is None

    def test_snap_always_at_top(self):
        engine = Engine()
        engine.bind("s", [1, 2])
        plan = engine.compile(HOISTED)
        assert isinstance(plan, Snap)
        assert plan.mode == "ordered"

    def test_pretty_plan_renders(self):
        engine = Engine()
        engine.bind("s", [1])
        text = pretty_plan(engine.compile(HOISTED))
        assert "Snap[ordered]" in text
        assert "MapConcat[x]" in text


class TestPlanExecution:
    """Direct execution of naive plans on simple data."""

    def exec_query(self, query: str) -> list:
        plan = Snap(input=naive_plan(decompose(query)), mode="ordered")
        return [av.value for av in execute_plan(plan, Engine().evaluator)]

    def test_map_concat_positions(self):
        out = self.exec_query(
            "for $x at $i in ('a','b') return concat($i, $x)"
        )
        assert out == ["1a", "2b"]

    def test_select_filters(self):
        out = self.exec_query(
            "for $x in (1,2,3,4) where $x mod 2 = 0 return $x"
        )
        assert out == [2, 4]

    def test_let_bind(self):
        out = self.exec_query(
            "for $x in (1,2) let $y := $x * 10 return $y"
        )
        assert out == [10, 20]

    def test_eval_fallback_runs_updates(self):
        engine = Engine()
        engine.bind("x", engine.parse_fragment("<x/>"))
        engine.execute("insert { <a/> } into { $x }")
        assert engine.execute("count($x/a)").first_value() == 1

    def test_execute_plan_api(self):
        engine = Engine()
        engine.bind("s", [1, 2, 3])
        plan = engine.compile(HOISTED)
        items = execute_plan(plan, engine.evaluator)
        assert [av.value for av in items] == [2, 3, 4]


class TestJoinKeySemantics:
    """The hash join must honor general-'=' matching rules."""

    def setup_engine(self):
        engine = Engine()
        engine.load_document(
            "db",
            '<db><l><a k="1"/><a k="01"/><a k="x"/></l>'
            '<r><b k="1"/><b k="01"/></r></db>',
        )
        return engine

    JOIN = """
        for $a in $db//a
        for $b in $db//b
        where $a/@k = $b/@k
        return concat($a/@k, '~', $b/@k)
    """

    def test_untyped_matches_numerically_and_textually(self):
        # untyped '1' = untyped '01' compares as *strings* (no match), but
        # '1' = '1' and '01' = '01' match; 'x' matches nothing.
        engine = self.setup_engine()
        naive = interpreted(engine, self.JOIN).values()
        optimized = self.setup_engine().execute(self.JOIN).values()
        assert naive == optimized == ["1~1", "01~01"]
