"""Numeric type promotion and the XML Schema numeric lexical forms.

Promotion (XQuery type promotion: xs:integer, then xs:decimal, then
xs:double) keeps integers and decimals exact and goes to double only
when a double is present; an integer beyond the double range then
becomes ±INF instead of crashing.  Casts, untyped comparisons and
untyped arithmetic read a number only from its XML Schema 1.0 lexical
form: ASCII digits, ``INF``/``-INF``/``NaN`` exactly, no ``_`` and no
exponent in a decimal — not every string Python's ``int``, ``float``
or ``Decimal`` would take.
"""

import pytest

from repro import Engine
from repro.errors import XQueryError

#: An integer past the double range (about 1.8e308).
BIG = "1" + "0" * 400


def outcome(query: str):
    """The serialized result and its first item's type, or the error
    code."""
    try:
        result = Engine().execute(query)
    except XQueryError as error:
        return ("error", error.code)
    return (result.serialize(), result.items[0].type)


@pytest.mark.parametrize(
    ("query", "expected"),
    [
        (f"{BIG} * 1e0", ("INF", "xs:double")),
        (f"-{BIG} * 1e0", ("-INF", "xs:double")),
        (f"{BIG} eq 1e0", ("false", "xs:boolean")),
        (f"-{BIG} < 1e0", ("true", "xs:boolean")),
        (f"max(({BIG}, 1e0))", ("INF", "xs:double")),
        (f"sum(({BIG}, 1e0))", ("INF", "xs:double")),
        (f"avg(({BIG}, 1e0))", ("INF", "xs:double")),
        (f"abs(-{BIG}) = 1e0", ("false", "xs:boolean")),
        (f"number({BIG})", ("INF", "xs:double")),
        (f'substring("abc", {BIG})', ("", "xs:string")),
        (f"xs:double({BIG})", ("INF", "xs:double")),
        (
            "max((12345678901234567891, 1))",
            ("12345678901234567891", "xs:integer"),
        ),
        (
            "min((-12345678901234567891, 1))",
            ("-12345678901234567891", "xs:integer"),
        ),
        ("max((1, 2.5))", ("2.5", "xs:decimal")),
        ("max((1, 2.5)) instance of xs:decimal", ("true", "xs:boolean")),
        ("min((3, 1.5e0))", ("1.5", "xs:double")),
        ("sum((1, 2.5))", ("3.5", "xs:decimal")),
        ("sum((1, 2))", ("3", "xs:integer")),
        ("avg((1, 2))", ("1.5", "xs:decimal")),
        ("0.1 + 0.2 eq 0.3", ("true", "xs:boolean")),
        ("1 div 3 * 3 eq 1e0", ("true", "xs:boolean")),
    ],
)
def test_promotion_keeps_exact_types_and_overflows_to_inf(query, expected):
    assert outcome(query) == expected


def test_position_past_the_double_range_selects_nothing():
    engine = Engine()
    for query in (f"(1, 2, 3)[{BIG}]", "(1, 2, 3)[1e400]"):
        assert engine.execute(query).items == []


@pytest.mark.parametrize(
    ("query", "expected"),
    [
        ('xs:double("inf")', ("error", "FORG0001")),
        ('xs:double("Infinity")', ("error", "FORG0001")),
        ('xs:double("nan")', ("error", "FORG0001")),
        ('xs:double("+INF")', ("error", "FORG0001")),
        ('xs:integer("1_000")', ("error", "FORG0001")),
        ('xs:integer("٣")', ("error", "FORG0001")),  # ARABIC-INDIC 3
        ('xs:decimal("1e5")', ("error", "FORG0001")),
        ('xs:decimal("Infinity")', ("error", "FORG0001")),
        ('"1_0" castable as xs:double', ("false", "xs:boolean")),
        ("<a>1_0</a> = 10", ("error", "FORG0001")),
        ("<a>inf</a> > 1", ("error", "FORG0001")),
        ("<a>٣</a> + 0", ("NaN", "xs:double")),
        ('number("1_0")', ("NaN", "xs:double")),
        ("<a>1e</a> + 1", ("NaN", "xs:double")),
        ('xs:double(" 1 ")', ("1", "xs:double")),
        ('xs:double("-INF")', ("-INF", "xs:double")),
        ('xs:double("INF")', ("INF", "xs:double")),
        ('xs:double("NaN")', ("NaN", "xs:double")),
        ('xs:double("1.5E2")', ("150", "xs:double")),
        ('xs:decimal(" +2.50 ")', ("2.5", "xs:decimal")),
        ('xs:decimal(".5")', ("0.5", "xs:decimal")),
        ('xs:integer("-007")', ("-7", "xs:integer")),
        ("<a> 10 </a> = 10", ("true", "xs:boolean")),
        ("<a>1e1</a> = 10", ("true", "xs:boolean")),
        ('number("INF")', ("INF", "xs:double")),
    ],
)
def test_numbers_are_read_only_from_xml_schema_lexical_forms(
    query, expected
):
    assert outcome(query) == expected


@pytest.mark.parametrize(
    ("query", "expected"),
    [
        ('max((1e0, xs:double("NaN"), 2e0))', ("NaN", "xs:double")),
        ('max((xs:double("NaN"), 1e0))', ("NaN", "xs:double")),
        ('max((1e0, 2e0, xs:double("NaN")))', ("NaN", "xs:double")),
        ('min((1e0, xs:double("NaN"), 0e0))', ("NaN", "xs:double")),
        ('min((xs:double("NaN"), 1, 0.5))', ("NaN", "xs:double")),
        ("max((<a>1</a>, <a>x</a>, <a>2</a>))", ("NaN", "xs:double")),
        (
            f'count(distinct-values(({BIG}, xs:double("INF"))))',
            ("1", "xs:integer"),
        ),
        (
            f'count(distinct-values((xs:double("INF"), {BIG})))',
            ("1", "xs:integer"),
        ),
        (
            f'count(distinct-values((-{BIG}, xs:double("-INF"))))',
            ("1", "xs:integer"),
        ),
        (f"count(distinct-values(({BIG}, {BIG}1)))", ("2", "xs:integer")),
    ],
)
def test_nan_decides_extremes_and_past_range_integers_key_as_inf(
    query, expected
):
    # F&O: max and min return NaN whenever the input holds one, wherever
    # it sits; distinct-values keys an integer past the double range as
    # the infinity eq promotes it to (two such integers stay distinct:
    # eq compares integers exactly).
    assert outcome(query) == expected


@pytest.mark.parametrize(
    ("query", "expected"),
    [
        # Exact past the default 28-digit decimal context.
        (f"{BIG} idiv 7.5 = {BIG}0 idiv 75", ("true", "xs:boolean")),
        (
            f"{BIG} idiv 7.5",
            ("1" + "3" * 399, "xs:integer"),
        ),
        (f"{BIG} mod 1.5", ("1", "xs:decimal")),
        (f"({BIG} + 0.5) - {BIG}", ("0.5", "xs:decimal")),
        (f"({BIG} - 0.25) * 4 + 1", ("4" + "0" * 400, "xs:decimal")),
        (
            "12345678901234567890123456789.5 * 2",
            ("24691357802469135780246913579", "xs:decimal"),
        ),
        # Small operands keep their usual results.
        ("-7.5 idiv 2", ("-3", "xs:integer")),
        ("-7.5 mod 2", ("-1.5", "xs:decimal")),
        ("7.5 idiv -2", ("-3", "xs:integer")),
        ("0.1 * 3", ("0.3", "xs:decimal")),
        # div keeps its precision.
        ("1 div 3", ("0.3333333333333333333333333333", "xs:decimal")),
    ],
)
def test_decimal_arithmetic_is_exact_past_28_digits(query, expected):
    assert outcome(query) == expected


@pytest.mark.parametrize(
    ("query", "expected"),
    [
        ('xs:double("NaN") > 1', ("false", "xs:boolean")),
        ('xs:double("NaN") <= 1', ("false", "xs:boolean")),
        ('1 < xs:double("NaN")', ("false", "xs:boolean")),
        ('xs:double("NaN") lt 1', ("false", "xs:boolean")),
        ('xs:double("NaN") ge xs:double("NaN")', ("false", "xs:boolean")),
        ('xs:double("NaN") = xs:double("NaN")', ("false", "xs:boolean")),
        ('xs:double("NaN") != 1', ("true", "xs:boolean")),
        ('xs:double("NaN") ne 1', ("true", "xs:boolean")),
        ("number(<a/>) > 1", ("false", "xs:boolean")),
        ('(xs:double("NaN"), 2) > 1', ("true", "xs:boolean")),
    ],
)
def test_nan_orders_against_nothing(query, expected):
    # F&O op:numeric-less-than and friends: NaN is false under every
    # comparison but != / ne, in value and general comparisons alike.
    assert outcome(query) == expected
