"""A data-driven conformance mini-suite.

Each case is ``(query, expected_serialization)`` run on a fixed fixture
document, in the style of the W3C QT test suites.  These lock in dozens of
small behaviours in one place; anything with more setup lives in the
dedicated unit-test modules.

Fixture bound to $d:
    <shelf>
      <book year="2000" price="10"><t>Alpha</t><lang>en</lang></book>
      <book year="2010" price="25"><t>Beta</t><lang>it</lang></book>
      <book year="2020" price="15"><t>Gamma</t></book>
    </shelf>
plus $nums = (1, 2, 3, 4, 5).
"""

import pytest

from repro import Engine
from tests.interpreted import interpreted

FIXTURE = (
    '<shelf>'
    '<book year="2000" price="10"><t>Alpha</t><lang>en</lang></book>'
    '<book year="2010" price="25"><t>Beta</t><lang>it</lang></book>'
    '<book year="2020" price="15"><t>Gamma</t></book>'
    '</shelf>'
)


@pytest.fixture(scope="module")
def engine() -> Engine:
    e = Engine()
    e.load_document("d", FIXTURE)
    e.bind("nums", [1, 2, 3, 4, 5])
    return e


CASES = [
    # --- literals and arithmetic -------------------------------------
    ("2 + 3 * 4", "14"),
    ("(2 + 3) * 4", "20"),
    ("7 mod 2", "1"),
    ("7 idiv 2", "3"),
    ("10 div 4", "2.5"),
    ("-3 + 1", "-2"),
    ("1.5 + 1.5", "3"),
    ("2e2 div 100", "2"),
    ("5 - -5", "10"),
    # --- sequences -----------------------------------------------------
    ("count(())", "0"),
    ("count((1, (2, 3), ()))", "3"),
    ("1 to 5", "1 2 3 4 5"),
    ("reverse(1 to 3)", "3 2 1"),
    ("(1 to 3, 5 to 6)", "1 2 3 5 6"),
    ("subsequence(1 to 10, 3, 2)", "3 4"),
    ("distinct-values((3, 1, 3, 2, 1))", "3 1 2"),
    ("insert-before((1, 2), 2, 9)", "1 9 2"),
    ("remove((9, 8, 7), 2)", "9 7"),
    ("index-of((5, 6, 5), 5)", "1 3"),
    ("string-join(for $n in 1 to 3 return string($n), '-')", "1-2-3"),
    # --- comparisons -----------------------------------------------------
    ("1 = 1.0", "true"),
    ("(1, 2) = (2, 3)", "true"),
    ("(1, 2) != (1, 2)", "true"),
    ("'a' < 'b'", "true"),
    ("2 eq 2", "true"),
    ("'07' = '7'", "false"),
    ("not(1 > 2)", "true"),
    ("() = ()", "false"),
    ("1 < 2 and 2 < 3", "true"),
    ("false() or true()", "true"),
    # --- conditionals and quantifiers ------------------------------------
    ("if (count($nums) > 3) then 'big' else 'small'", "big"),
    ("some $n in $nums satisfies $n > 4", "true"),
    ("every $n in $nums satisfies $n > 0", "true"),
    ("every $n in $nums satisfies $n > 1", "false"),
    # --- FLWOR ----------------------------------------------------------
    ("for $n in $nums return $n * $n", "1 4 9 16 25"),
    ("for $n in $nums where $n mod 2 = 0 return $n", "2 4"),
    ("let $s := sum($nums) return $s", "15"),
    ("for $n at $i in ('a', 'b') return $i", "1 2"),
    ("for $n in $nums order by $n descending return $n", "5 4 3 2 1"),
    (
        "for $b in $d//book order by number($b/@price) return string($b/t)",
        "Alpha Gamma Beta",
    ),
    ("for $x in (1, 2), $y in (10, 20) return $x + $y", "11 21 12 22"),
    # --- paths ------------------------------------------------------------
    ("count($d//book)", "3"),
    ("count($d/shelf/book)", "3"),
    ("string($d/shelf/book[1]/t)", "Alpha"),
    ("$d//book[@year = 2010]/t/text()", "Beta"),
    ("count($d//book[lang])", "2"),
    ("count($d//book[not(lang)])", "1"),
    ("string($d//book[last()]/t)", "Gamma"),
    ("count($d//@price)", "3"),
    ("sum($d//book/@price)", "50"),
    ("avg($d//book/@year)", "2010"),
    ("$d//t[. = 'Beta']/../@year/string()", "2010"),
    ("count($d/shelf/*)", "3"),
    ("count($d//node()) > 10", "true"),
    ("name(($d//book)[2])", "book"),
    ("count($d//book/self::book)", "3"),
    ("count($d//t/parent::book)", "3"),
    ("($d//book)[2]/preceding-sibling::book/@year/string()", "2000"),
    ("($d//book)[1]/following-sibling::book[1]/@year/string()", "2010"),
    ("count($d//book[t]/lang | $d//book/t)", "5"),
    ("count($d//book except ($d//book)[1])", "2"),
    ("count($d//book intersect $d//book[@price > 12])", "2"),
    # --- strings -----------------------------------------------------------
    ("upper-case('mixed Case')", "MIXED CASE"),
    ("concat('a', 'b', 'c')", "abc"),
    ("contains(string(($d//t)[1]), 'lph')", "true"),
    ("substring('abcdef', 3, 2)", "cd"),
    ("string-length(string(($d//t)[2]))", "4"),
    ("normalize-space('  x   y ')", "x y"),
    ("translate('banana', 'an', 'AN')", "bANANA"),
    ("starts-with('hello', 'he')", "true"),
    ("tokenize('a b c', ' ')", "a b c"),
    ("matches('2026', '^[0-9]+$')", "true"),
    ("replace('a-b-c', '-', '+')", "a+b+c"),
    # --- constructors --------------------------------------------------------
    ("<x/>", "<x/>"),
    ("<x a='1'>t</x>", '<x a="1">t</x>'),
    ("<x>{ 1 + 1 }</x>", "<x>2</x>"),
    ("<x>{ ($d//t)[1]/text() }</x>", "<x>Alpha</x>"),
    ("element e { attribute k { 'v' }, 'body' }", '<e k="v">body</e>'),
    ("text { 'plain' }", "plain"),
    ("comment { 'note' }", "<!--note-->"),
    ("<w>{ ($d//book)[1]/t }</w>", "<w><t>Alpha</t></w>"),
    ('<p z="{ 1 + 2 }"/>', '<p z="3"/>'),
    ("string(<a>x{ 'y' }z</a>)", "xyz"),
    # --- types ----------------------------------------------------------------
    ("1 instance of xs:integer", "true"),
    ("'5' cast as xs:integer", "5"),
    ("5 castable as xs:boolean", "true"),
    ("(1, 2) instance of xs:integer+", "true"),
    ("($d//book)[1] instance of element(book)", "true"),
    (
        "typeswitch (3.5) case xs:integer return 'i' "
        "case xs:decimal return 'd' default return 'o'",
        "d",
    ),
    # --- sequencing -------------------------------------------------------------
    ("1; 2; 3", "1 2 3"),
    # --- misc ---------------------------------------------------------------------
    ("string(number('x')) = 'NaN'", "true"),
    ("floor(2.5), ceiling(2.5), round(2.5)", "2 3 3"),
    ("abs(-2.5)", "2.5"),
    ("min($nums), max($nums)", "1 5"),
    ("boolean($d//book)", "true"),
    ("exists($d//pamphlet)", "false"),
    ("deep-equal(<a><b/></a>, <a><b/></a>)", "true"),
    ("zero-or-one(())", ""),
    ("xs:string(12) instance of xs:string", "true"),
]


@pytest.mark.parametrize(("query", "expected"), CASES, ids=[c[0][:48] for c in CASES])
def test_case(engine, query, expected):
    """The case on the evaluator alone, with any plan withheld."""
    assert interpreted(engine, query).serialize() == expected


@pytest.mark.parametrize(
    ("query", "expected"), CASES, ids=[c[0][:48] for c in CASES]
)
def test_case_through_optimizer(engine, query, expected):
    """Every conformance case must behave identically through the
    optimizer: as its rewritten plan where a rewrite fires, else on the
    evaluator."""
    assert engine.execute(query).serialize() == expected


UPDATE_CASES = [
    # (setup-fragment, update-query, observation-query, expected)
    ("<t><a/></t>", "insert { <b/> } into { $f }", "count($f/*)", "2"),
    ("<t><a/></t>", "insert { <b/> } as first into { $f }", "name($f/*[1])", "b"),
    ("<t><a/><c/></t>", "insert { <b/> } after { $f/a }",
     "string-join($f/*/name(), ',')", "a,b,c"),
    ("<t><a/></t>", "delete { $f/a }", "count($f/*)", "0"),
    ("<t><a/></t>", 'rename { $f/a } to { "z" }', "name($f/*)", "z"),
    ("<t><a>1</a></t>", "replace { $f/a } with { <b>2</b> }", "string($f)", "2"),
    ("<t><a/></t>", "snap { insap() } ", None, None),  # placeholder row ignored
]


@pytest.mark.parametrize(
    ("fragment", "update", "observe", "expected"),
    [case for case in UPDATE_CASES if case[2] is not None],
    ids=[c[1][:40] for c in UPDATE_CASES if c[2] is not None],
)
def test_update_case(fragment, update, observe, expected):
    e = Engine()
    e.bind("f", e.parse_fragment(fragment))
    e.execute(update)
    assert e.execute(observe).serialize() == expected
