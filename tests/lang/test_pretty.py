"""Unit tests for the unparser."""

import pytest

from repro.lang.parser import parse, parse_module
from repro.lang.pretty import unparse, unparse_module


def roundtrip(text: str) -> str:
    return unparse(parse(text))


class TestUnparse:
    @pytest.mark.parametrize(
        "query",
        [
            "1 + 2 * 3",
            '$auction//person[@id = "p0"]/name',
            "for $x at $i in (1 to 5) where $x > 2 order by $x descending return $i",
            "some $x in $s satisfies $x eq 3",
            "if ($c) then <a/> else ()",
            'snap ordered { insert { <a x="{1}"/> } as first into { $t } }',
            "snap { replace { $d/text() } with { $d + 1 }, $d }",
            'rename { $x } to { "n" }',
            "copy { $x }",
            "element counter { 0 }",
            "<a>text {1} more</a>",
            "(1, 2)[. > 1]",
            "delete { $log/logentry }",
            "$a union $b intersect $c",
            "-$x",
            "$a << $b",
            "processing-instruction tgt { 'data' }",
        ],
    )
    def test_reparse_equals(self, query):
        expr = parse(query)
        assert parse(unparse(expr)) == expr

    @pytest.mark.parametrize(
        "literal", ["0.10000000000000000001", "12345678901234567890.5"]
    )
    def test_decimal_literal_keeps_every_digit(self, literal):
        expr = parse(literal)
        assert unparse(expr) == literal
        assert parse(unparse(expr)) == expr

    def test_string_escapes(self):
        expr = parse("'say \"hi\"'")
        assert parse(unparse(expr)) == expr

    def test_attribute_brace_escapes(self):
        expr = parse('<a k="{{x}}"/>')
        assert parse(unparse(expr)) == expr


class TestUnparseModule:
    def test_module_roundtrip(self):
        text = (
            "declare variable $v as xs:integer := 10;"
            "declare function f($a as xs:integer, $b) as item()* { $a + $b };"
            "f($v, 1)"
        )
        module = parse_module(text)
        rendered = unparse_module(module)
        assert parse_module(rendered) == module

    def test_external_variable(self):
        module = parse_module("declare variable $x external; $x")
        assert "external" in unparse_module(module)
        assert parse_module(unparse_module(module)) == module

    def test_module_without_body(self):
        module = parse_module("declare function f() { 1 };")
        assert parse_module(unparse_module(module)) == module
