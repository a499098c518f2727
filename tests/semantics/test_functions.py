"""Unit tests for the built-in function library."""

import pytest

from repro import Engine
from repro.errors import (
    CardinalityError,
    DynamicError,
    FunctionError,
    UndefinedFunctionError,
    XQueryError,
)


def outcome(engine: Engine, query: str) -> str:
    """The serialized result of *query*, or the code of its error."""
    try:
        return engine.execute(query).serialize()
    except XQueryError as error:
        return error.code


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.load_document(
        "doc", '<r><i v="1">alpha</i><i v="2">beta</i><i v="3">gamma</i></r>'
    )
    return engine


class TestCardinalityAndBooleans:
    def test_count_empty_exists(self, e):
        assert e.execute("count($doc//i)").first_value() == 3
        assert e.execute("empty($doc//nope)").first_value() is True
        assert e.execute("exists($doc//i)").first_value() is True

    def test_not_boolean(self, e):
        assert e.execute("not(0)").first_value() is True
        assert e.execute("boolean('x')").first_value() is True

    def test_true_false(self, e):
        assert e.execute("true()").first_value() is True
        assert e.execute("false()").first_value() is False

    def test_exactly_one(self, e):
        assert e.execute("exactly-one(1)").first_value() == 1
        with pytest.raises(CardinalityError):
            e.execute("exactly-one(())")

    def test_zero_or_one_one_or_more(self, e):
        assert e.execute("zero-or-one(())").values() == []
        with pytest.raises(CardinalityError):
            e.execute("zero-or-one((1, 2))")
        with pytest.raises(CardinalityError):
            e.execute("one-or-more(())")


class TestStrings:
    def test_concat_variadic(self, e):
        assert e.execute("concat('a', 'b', 'c', 1)").first_value() == "abc1"

    def test_string_join(self, e):
        assert (
            e.execute("string-join(('a', 'b', 'c'), '-')").first_value()
            == "a-b-c"
        )

    def test_substring(self, e):
        assert e.execute("substring('hello', 2)").first_value() == "ello"
        assert e.execute("substring('hello', 2, 3)").first_value() == "ell"

    def test_contains_starts_ends(self, e):
        assert e.execute("contains('hello', 'ell')").first_value() is True
        assert e.execute("starts-with('hello', 'he')").first_value() is True
        assert e.execute("ends-with('hello', 'lo')").first_value() is True

    def test_case_functions(self, e):
        assert e.execute("upper-case('aBc')").first_value() == "ABC"
        assert e.execute("lower-case('aBc')").first_value() == "abc"

    def test_normalize_space(self, e):
        assert (
            e.execute("normalize-space('  a   b  ')").first_value() == "a b"
        )

    def test_string_length(self, e):
        assert e.execute("string-length('hello')").first_value() == 5

    def test_translate(self, e):
        assert e.execute("translate('abcabc', 'abc', 'AB')").first_value() == "ABAB"

    def test_substring_before_after(self, e):
        assert e.execute("substring-before('a=b', '=')").first_value() == "a"
        assert e.execute("substring-after('a=b', '=')").first_value() == "b"

    def test_tokenize_matches_replace(self, e):
        assert e.execute("tokenize('a,b,c', ',')").strings() == ["a", "b", "c"]
        assert e.execute("matches('abc123', '[0-9]+')").first_value() is True
        assert e.execute("replace('a1b2', '[0-9]', '#')").first_value() == "a#b#"

    def test_bad_regex(self, e):
        with pytest.raises(FunctionError):
            e.execute("matches('x', '[')")

    def test_string_of_node(self, e):
        assert e.execute("string(($doc//i)[1])").first_value() == "alpha"

    def test_string_of_context(self, e):
        assert e.execute("($doc//i)[1]/string()").first_value() == "alpha"


class TestNumerics:
    def test_number(self, e):
        assert e.execute("number('3.5')").first_value() == 3.5

    def test_number_nan(self, e):
        import math

        assert math.isnan(e.execute("number('x')").first_value())

    def test_abs_floor_ceiling_round(self, e):
        assert e.execute("abs(-3)").first_value() == 3
        assert e.execute("floor(2.7)").first_value() == 2.0
        assert e.execute("ceiling(2.1)").first_value() == 3.0
        assert e.execute("round(2.5)").first_value() == 3.0
        assert e.execute("round(-2.5)").first_value() == -2.0  # toward +inf

    def test_sum_over_nodes(self, e):
        assert e.execute("sum($doc//i/@v)").first_value() == 6

    def test_sum_empty_default(self, e):
        assert e.execute("sum(())").first_value() == 0
        assert e.execute("sum((), 99)").first_value() == 99

    def test_avg_min_max(self, e):
        assert e.execute("avg((1, 2, 3))").first_value() == 2.0
        assert e.execute("min((3, 1, 2))").first_value() == 1
        assert e.execute("max($doc//i/@v)").first_value() == 3

    def test_min_max_strings(self, e):
        assert e.execute("max(('a', 'c', 'b'))").first_value() == "c"

    def test_avg_empty(self, e):
        assert e.execute("avg(())").values() == []

    @pytest.mark.parametrize(
        "query, expected",
        [
            ("floor(0 div 0E0)", "NaN"),
            ("ceiling(1 div 0E0)", "INF"),
            ("round(-1 div 0E0)", "-INF"),
            ('substring("12345", 2.5)', "345"),
            ("subsequence((1, 2, 3, 4, 5), 0.5, 1.5)", "1 2"),
            ('substring("12345", 0 div 0E0, 3)', ""),
            ('substring("12345", -42, 1 div 0E0)', "12345"),
            ('substring("12345", -1 div 0E0, 1 div 0E0)', ""),
            ("subsequence((1, 2), 1 div 0E0)", ""),
            ("subsequence((1, 2), 0 div 0E0, 1)", ""),
            ("insert-before((1, 2), 0 div 0E0, 3)", "FOCA0002"),
            ("remove((1, 2), 0 div 0E0)", "FOCA0002"),
            ('xs:double("INF") mod 2', "NaN"),
            ('1 idiv number("x")', "FOAR0002"),
            ("1e300 idiv 1e-300", "FOAR0002"),
        ],
    )
    def test_non_finite_and_half_way_numbers(self, e, query, expected):
        assert outcome(e, query) == expected


class TestSequences:
    def test_distinct_values(self, e):
        assert e.execute("distinct-values((1, 2, 1, 3, 2))").values() == [1, 2, 3]

    def test_distinct_values_coercion(self, e):
        assert len(e.execute("distinct-values((1, 1.0))")) == 1

    def test_reverse(self, e):
        assert e.execute("reverse((1, 2, 3))").values() == [3, 2, 1]

    def test_subsequence(self, e):
        assert e.execute("subsequence((1,2,3,4,5), 2, 3)").values() == [2, 3, 4]
        assert e.execute("subsequence((1,2,3), 2)").values() == [2, 3]

    def test_insert_before_remove(self, e):
        assert e.execute("insert-before((1,3), 2, 2)").values() == [1, 2, 3]
        assert e.execute("remove((1,2,3), 2)").values() == [1, 3]

    def test_index_of(self, e):
        assert e.execute("index-of((10, 20, 10), 10)").values() == [1, 3]
        assert e.execute("index-of((1,2), 9)").values() == []

    def test_deep_equal(self, e):
        assert e.execute(
            "deep-equal(<a x='1'>t</a>, <a x='1'>t</a>)"
        ).first_value() is True


class TestNodeFunctions:
    def test_name_local_name(self, e):
        assert e.execute("name(($doc//i)[1])").first_value() == "i"
        assert e.execute("($doc//i)[1]/name()").first_value() == "i"

    def test_name_of_empty(self, e):
        assert e.execute("name($doc//nope)").first_value() == ""

    def test_local_name_strips_prefix(self, e):
        e.bind("p", e.parse_fragment("<ns:elem/>"))
        assert e.execute("local-name($p)").first_value() == "elem"

    def test_node_name_empty_for_text(self, e):
        assert e.execute("node-name(($doc//i)[1]/text())").values() == []

    def test_root(self, e):
        assert e.execute("root(($doc//i)[1]) is $doc").first_value() is True

    def test_data(self, e):
        assert e.execute("data($doc//i/@v)").strings() == ["1", "2", "3"]


class TestMisc:
    def test_error(self, e):
        with pytest.raises(DynamicError):
            e.execute("error('boom')")

    def test_trace_passthrough(self):
        messages = []
        engine = Engine(trace_sink=messages.append)
        assert engine.execute("trace(42, 'here')").first_value() == 42
        assert messages == ["here: 42"]

    def test_xs_casts(self, e):
        assert e.execute("xs:integer('7')").first_value() == 7
        assert e.execute("xs:double('2.5')").first_value() == 2.5
        assert e.execute("xs:string(12)").first_value() == "12"
        assert e.execute("xs:boolean('true')").first_value() is True

    @pytest.mark.parametrize(
        "query, cast, expected",
        [
            ("xs:boolean(0 div 0E0)", "(0 div 0E0) cast as xs:boolean?",
             "false"),
            ('xs:integer("2.5")', '"2.5" cast as xs:integer?', "FORG0001"),
            ('xs:integer(xs:double("INF"))',
             'xs:double("INF") cast as xs:integer?', "FOCA0002"),
            ('xs:decimal(xs:double("INF"))',
             'xs:double("INF") cast as xs:decimal?', "FOCA0002"),
            ('xs:decimal(number("x"))', 'number("x") cast as xs:decimal?',
             "FOCA0002"),
        ],
    )
    def test_constructor_is_a_cast(self, e, query, cast, expected):
        assert outcome(e, query) == expected
        assert outcome(e, cast) == expected

    def test_fn_prefix_accepted(self, e):
        assert e.execute("fn:count((1, 2))").first_value() == 2

    def test_undefined_function(self, e):
        with pytest.raises(UndefinedFunctionError):
            e.execute("no-such-function(1)")

    def test_wrong_arity(self, e):
        with pytest.raises(UndefinedFunctionError):
            e.execute("count(1, 2)")

    def test_position_outside_focus(self, e):
        with pytest.raises(DynamicError):
            e.execute("position()")

    def test_unordered_identity(self, e):
        assert e.execute("unordered((3, 1, 2))").values() == [3, 1, 2]

    def test_head_tail(self, e):
        assert e.execute("head((1, 2, 3))").values() == [1]
        assert e.execute("tail((1, 2, 3))").values() == [2, 3]
        assert e.execute("head(())").values() == []
        assert e.execute("tail((1))").values() == []

    def test_compare(self, e):
        assert e.execute("compare('a', 'b')").first_value() == -1
        assert e.execute("compare('b', 'b')").first_value() == 0
        assert e.execute("compare((), 'b')").values() == []

    def test_codepoints(self, e):
        assert e.execute("string-to-codepoints('Hi')").values() == [72, 105]
        assert e.execute(
            "codepoints-to-string((72, 105))"
        ).first_value() == "Hi"
        with pytest.raises(FunctionError):
            e.execute("codepoints-to-string(-5)")

    def test_doc_catalog(self, e):
        assert e.execute("doc('doc') is $doc").first_value() is True
        assert e.execute("doc-available('doc')").first_value() is True
        assert e.execute("doc-available('missing')").first_value() is False
        with pytest.raises(DynamicError):
            e.execute("doc('missing')")
