"""fn:distinct-values (XQuery 1.0 F&O 15.1.6).

Values that cannot be compared are distinct, untypedAtomic compares as
a string, NaN equals itself, numerics compare by value across integer,
decimal and double (integers and decimals exactly), and the first
occurrence of each value is kept, in order.  The function is one hashed
pass: the value comparisons it makes stay linear in the input (counted,
not timed).
"""

import pytest

from repro import Engine
from repro.semantics.functions import fn_distinct_values
from repro.xdm.values import XS_STRING, AtomicValue

DOC = '<r><item id="1"/><item id="a"/><item id="1"/></r>'


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.load_document("d", DOC)
    return engine


def typed(engine: Engine, query: str) -> list[tuple[str, str]]:
    return [(av.type, av.lexical()) for av in engine.execute(query).items]


def test_incomparable_values_are_distinct(e):
    assert typed(e, 'distinct-values(("1", 1))') == [
        ("xs:string", "1"), ("xs:integer", "1"),
    ]


def test_untyped_attributes_next_to_numbers(e):
    assert typed(e, "distinct-values(($d//item/@id, 1))") == [
        ("xs:untypedAtomic", "1"), ("xs:untypedAtomic", "a"),
        ("xs:integer", "1"),
    ]


def test_untyped_compares_as_string(e):
    assert typed(e, 'distinct-values(($d//item/@id, "1", "a"))') == [
        ("xs:untypedAtomic", "1"), ("xs:untypedAtomic", "a"),
    ]


def test_nan_equals_itself(e):
    assert typed(e, 'distinct-values((number("x"), number("y")))') == [
        ("xs:double", "NaN"),
    ]


def test_numerics_compare_by_value_across_types(e):
    assert typed(e, "distinct-values((1, 1.0, 1e0))") == [("xs:integer", "1")]
    assert typed(e, "distinct-values((2.5, 2.5e0, 0.1, 0.1e0, 3))") == [
        ("xs:decimal", "2.5"), ("xs:decimal", "0.1"), ("xs:integer", "3"),
    ]


def test_booleans_stay_apart_from_numbers(e):
    assert typed(e, "distinct-values((true(), 1, false(), 0, true()))") == [
        ("xs:boolean", "true"), ("xs:integer", "1"),
        ("xs:boolean", "false"), ("xs:integer", "0"),
    ]


# Decimal literals pass through a float in the parser, so the long
# decimals below are cast from strings.
def test_decimals_compare_exactly(e):
    tiny = 'xs:decimal("0.10000000000000000001")'
    assert typed(e, f"distinct-values((0.1, {tiny}))") == [
        ("xs:decimal", "0.1"), ("xs:decimal", "0.10000000000000000001"),
    ]
    one = 'xs:decimal("1.00000000000000000001")'
    assert typed(e, f"distinct-values((1, {one}))") == [
        ("xs:integer", "1"), ("xs:decimal", "1.00000000000000000001"),
    ]


def test_doubles_compare_with_promoted_decimals(e):
    # Both decimals equal 0.1e0 once promoted to double, though not each
    # other: no two kept values are equal.
    tiny = 'xs:decimal("0.10000000000000000001")'
    query = f"distinct-values((0.1e0, 0.1, {tiny}))"
    assert typed(e, query) == [("xs:double", "0.1")]


class CountedStr(str):
    """A string that counts its equality tests."""

    tests = 0

    def __eq__(self, other):
        CountedStr.tests += 1
        return str.__eq__(self, other)

    __hash__ = str.__hash__


@pytest.mark.parametrize("n", [500, 1000, 2000])
def test_comparisons_stay_linear(monkeypatch, n):
    # A scan of the earlier values would test ~n*n/2 pairs.
    monkeypatch.setattr(CountedStr, "tests", 0)
    items = [AtomicValue(XS_STRING, CountedStr(f"s{i}")) for i in range(n)]
    assert len(fn_distinct_values(None, None, [items])) == n
    assert CountedStr.tests <= n
