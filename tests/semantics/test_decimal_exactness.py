"""Tests for exact xs:decimal arithmetic (Decimal-backed)."""

from decimal import Decimal

import pytest

from repro import Engine
from repro.xdm.values import XS_DECIMAL, XS_DOUBLE, XS_INTEGER, AtomicValue


@pytest.fixture
def e() -> Engine:
    return Engine()


class TestExactness:
    def test_classic_float_traps(self, e):
        assert e.execute("0.1 + 0.2").serialize() == "0.3"
        assert e.execute("65.95 * 0.9").serialize() == "59.355"
        assert e.execute("1.1 - 1.0").serialize() == "0.1"

    def test_decimal_literal_keeps_every_digit(self, e):
        assert e.execute("0.1 eq 0.10000000000000000001").first_value() \
            is False
        assert e.execute("string(12345678901234567890.5)").first_value() \
            == "12345678901234567890.5"

    def test_decimal_literal_type(self, e):
        item = e.execute("3.14").items[0]
        assert item.type == XS_DECIMAL
        assert isinstance(item.value, Decimal)
        assert item.value == Decimal("3.14")

    def test_integer_div_yields_exact_decimal(self, e):
        assert e.execute("7 div 2").serialize() == "3.5"
        assert e.execute("1 div 8").serialize() == "0.125"

    def test_decimal_mod_sign(self, e):
        assert e.execute("-7.5 mod 2").serialize() == "-1.5"
        assert e.execute("7.5 mod -2").serialize() == "1.5"

    def test_decimal_idiv(self, e):
        assert e.execute("7.5 idiv 2").first_value() == 3
        assert e.execute("-7.5 idiv 2").first_value() == -3

    def test_double_still_floats(self, e):
        item = e.execute("1.5e0 + 1").items[0]
        assert item.type == XS_DOUBLE
        assert isinstance(item.value, float)

    def test_decimal_plus_double_is_double(self, e):
        assert e.execute("0.1 + 1e0").items[0].type == XS_DOUBLE

    def test_unary_minus_preserves_decimal(self, e):
        item = e.execute("-(1.5)").items[0]
        assert item.type == XS_DECIMAL and item.value == Decimal("-1.5")

    def test_lexical_canonicalization(self, e):
        assert e.execute("2.50 + 0").serialize() == "2.5"
        assert e.execute("2.0 * 2").serialize() == "4"
        assert e.execute("0.0 + 0").serialize() == "0"


class TestDecimalInterop:
    def test_comparisons_exact(self, e):
        assert e.execute("0.1 + 0.2 = 0.3").first_value() is True
        assert e.execute("0.1 + 0.2 eq 0.3").first_value() is True
        assert e.execute("1.5 < 2").first_value() is True

    def test_cast_to_decimal_exact(self, e):
        assert e.execute("'0.30' cast as xs:decimal").serialize() == "0.3"

    def test_functions_preserve_decimal(self, e):
        assert e.execute("abs(-2.5)").items[0].type == XS_DECIMAL
        assert e.execute("floor(2.5)").serialize() == "2"
        assert e.execute("round(2.5)").serialize() == "3"

    def test_instance_of(self, e):
        assert e.execute("1.5 instance of xs:decimal").first_value() is True
        assert e.execute("1.5 instance of xs:double").first_value() is False

    def test_order_by_decimal_keys(self, e):
        out = e.execute(
            "for $x in (2.5, 0.1, 1.75) order by $x return $x"
        ).serialize()
        assert out == "0.1 1.75 2.5"

    def test_python_decimal_binding(self, e):
        e.bind("d", AtomicValue.decimal(Decimal("10.01")))
        assert e.execute("$d * 2").serialize() == "20.02"

    def test_persistence_roundtrip(self, e, tmp_path):
        from repro.persist import load_engine, save_engine

        e.bind("price", AtomicValue.decimal(Decimal("19.99")))
        path = str(tmp_path / "db.json")
        save_engine(e, path)
        restored = load_engine(path)
        assert restored.execute("$price * 3").serialize() == "59.97"

    def test_attribute_content_rendering(self, e):
        assert e.execute('<p v="{ 0.1 + 0.2 }"/>').serialize() == '<p v="0.3"/>'
