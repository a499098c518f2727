"""Tests for the paper-style plan printer and the core unparser."""

import pytest

from repro import Engine
from repro.algebra.compile import decompose_pipeline, naive_plan
from repro.algebra.plan import NO_PLAN, paper_plan
from repro.lang.core_pretty import core_to_source
from repro.lang.normalize import normalize
from repro.lang.parser import parse
from repro.xmark import XMarkConfig, generate_auction_xml


def render(text: str) -> str:
    from repro.lang.simplify import simplify

    return core_to_source(simplify(normalize(parse(text))))


class TestCoreToSource:
    @pytest.mark.parametrize(
        ("query", "fragment"),
        [
            ("1 + 2", "(1 + 2)"),
            ("$x/buyer/@person", "$x/buyer/@person"),
            ("for $t in $s return $t", "for $t in $s return $t"),
            ("let $a := 1 return $a", "let $a := 1 return $a"),
            ("if ($c) then 1 else 2", "if ($c) then 1 else 2"),
            ("count($a)", "count($a)"),
            ("'it''s'", '"it\'s"'),
            ("snap ordered { delete { $x } }", "snap ordered { delete { $x } }"),
            ("some $x in $s satisfies $x", "some $x in $s satisfies $x"),
            ("$a//b", "$a/descendant::b"),
            ("$x instance of xs:integer", "instance of xs:integer"),
            ("typeswitch (1) case xs:integer return 1 default return 2",
             "typeswitch (1) case xs:integer return 1"),
        ],
    )
    def test_renderings(self, query, fragment):
        assert fragment in render(query)

    def test_insert_shows_implicit_copy(self):
        # The §3.3 normalization is visible in core text — by design.
        out = render("insert { $n } into { $t }")
        assert out == "insert { copy { $n } } as last into { $t }"

    def test_replace_expansion(self):
        out = render("replace { $a } with { $b }")
        assert out == "replace { $a } with { copy { $b } }"


class TestPaperPlan:
    @pytest.fixture(scope="class")
    def engine(self) -> Engine:
        e = Engine()
        e.load_document(
            "auction",
            generate_auction_xml(XMarkConfig(persons=5, items=4, closed_auctions=5)),
        )
        e.bind("purchasers", e.parse_fragment("<purchasers/>"))
        return e

    Q8 = """
        for $p in $auction//person
        let $a := for $t in $auction//closed_auction
                  where $t/buyer/@person = $p/@id
                  return (insert { <buyer person="{$t/buyer/@person}" /> }
                          into { $purchasers }, $t)
        return <item person="{ $p/name }">{ count($a) }</item>
    """

    def test_q8_plan_rendering(self, engine):
        text = paper_plan(engine.compile(self.Q8))
        # The structural elements of the paper's Section 4.3 printout:
        assert text.startswith("Snap {")
        assert "MapFromItem {" in text
        assert "GroupBy [ a," in text
        assert "LeftOuterJoin(" in text
        assert "MapConcat{[p:Input]}($auction/descendant::person)" in text
        assert "MapConcat{[t:Input]}($auction/descendant::closed_auction)" in text
        assert "on { $p/@id = $t/buyer/@person }" in text
        assert "insert { copy {" in text  # per-match effect visible

    def test_naive_plan_rendering(self, engine):
        snapped_q8 = self.Q8.replace("insert {", "snap insert {", 1)
        assert engine.compile(snapped_q8) is None  # the snap guard
        text = paper_plan(naive_plan(decompose_pipeline(normalize(
            parse(snapped_q8)
        ))))
        assert "LeftOuterJoin" not in text
        assert "MapConcat" in text and "LetBind" in text

    def test_eval_fallback_rendering(self, engine):
        assert paper_plan(engine.compile("1 + 1")) == NO_PLAN

    def test_select_rendering(self, engine):
        text = paper_plan(
            engine.compile(
                "for $p in $auction//person let $floor := 5000 "
                "where $p/income > $floor return $p"
            )
        )
        assert "Select{" in text
