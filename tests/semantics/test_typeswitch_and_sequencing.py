"""Tests for typeswitch and the ';' sequencing operator."""

import pytest

from repro import Engine
from repro.errors import ParseError


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.load_document("doc", "<r><a>1</a></r>")
    engine.bind("trace", engine.parse_fragment("<trace/>"))
    return engine


class TestTypeswitch:
    def test_first_matching_case_wins(self, e):
        out = e.execute(
            """typeswitch (42)
               case xs:string return 'string'
               case xs:integer return 'integer'
               case xs:decimal return 'decimal'
               default return 'other'"""
        )
        assert out.first_value() == "integer"

    def test_default_branch(self, e):
        out = e.execute(
            """typeswitch (<a/>)
               case xs:integer return 'int'
               default return 'fallthrough'"""
        )
        assert out.first_value() == "fallthrough"

    def test_case_variable_binding(self, e):
        out = e.execute(
            """typeswitch ($doc/r/a)
               case $el as element() return concat('elem:', string($el))
               default return 'no'"""
        )
        assert out.first_value() == "elem:1"

    def test_default_variable_binding(self, e):
        out = e.execute(
            """typeswitch ('x')
               case xs:integer return 0
               default $v return concat($v, '!')"""
        )
        assert out.first_value() == "x!"

    def test_occurrence_in_cases(self, e):
        out = e.execute(
            """typeswitch ((1, 2, 3))
               case xs:integer return 'one'
               case xs:integer+ return 'many'
               default return 'other'"""
        )
        assert out.first_value() == "many"

    def test_untaken_branches_have_no_effects(self, e):
        e.execute(
            """typeswitch (1)
               case xs:string return snap insert { <bad/> } into { $trace }
               case xs:integer return snap insert { <good/> } into { $trace }
               default return snap insert { <worse/> } into { $trace }"""
        )
        names = [n.name for n in e.execute("$trace/*").items]
        assert names == ["good"]

    def test_operand_evaluated_once(self, e):
        out = e.execute(
            """typeswitch ((snap insert { <once/> } into { $trace }, 5))
               case xs:integer return 'i'
               default return 'd'"""
        )
        assert out.first_value() == "i"
        assert e.execute("count($trace/once)").first_value() == 1

    def test_requires_case(self, e):
        with pytest.raises(ParseError):
            e.execute("typeswitch (1) default return 2")

    def test_typeswitch_still_a_path_name(self, e):
        # Without the '(' lookahead it must remain usable as an element name.
        assert e.execute("count($doc/typeswitch)").first_value() == 0


class TestSequencingOperator:
    """Footnote 5 / Section 2.4: e1 ; e2 forces e1 before e2."""

    def test_values_concatenate(self, e):
        assert e.execute("(1; 2, 3; 4)").values() == [1, 2, 3, 4]

    def test_order_of_effects(self, e):
        e.execute(
            """(snap insert { <first/> } into { $trace };
                snap insert { <second/> } into { $trace })"""
        )
        names = [n.name for n in e.execute("$trace/*").items]
        assert names == ["first", "second"]

    def test_effects_visible_across_semicolon(self, e):
        out = e.execute(
            "(snap insert { <n/> } into { $trace }; count($trace/n))"
        )
        assert out.values() == [1]

    def test_top_level_semicolon(self, e):
        assert e.execute("1; 2").values() == [1, 2]

    def test_in_function_body(self, e):
        e.load_module(
            """declare function two_steps() {
                 snap insert { <s1/> } into { $trace };
                 count($trace/s1)
               };"""
        )
        assert e.execute("two_steps()").values() == [1]

    def test_roundtrip(self):
        from repro.lang.parser import parse
        from repro.lang.pretty import unparse

        expr = parse("(1; 2, 3; 4)")
        assert parse(unparse(expr)) == expr

    def test_sequenced_blocks_pipeline_rewrites(self, e):
        # A ';' inside a FLWOR source blocks every rewrite; the query
        # gets no plan and runs (correctly) on the evaluator.
        e.bind("s", [1, 2])
        query = "for $x in (1; 2) return $x * 10"
        assert e.compile(query) is None
        assert e.execute(query).values() == [10, 20]

    def test_typeswitch_roundtrip(self):
        from repro.lang.parser import parse
        from repro.lang.pretty import unparse

        text = (
            "typeswitch ($x) case $v as element()* return $v "
            "case xs:integer return 1 default $d return $d"
        )
        expr = parse(text)
        assert parse(unparse(expr)) == expr
