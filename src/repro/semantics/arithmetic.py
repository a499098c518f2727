"""Numeric operator semantics (+, -, *, div, idiv, mod).

Implements the XQuery 1.0 dynamic rules the paper's examples rely on:
untypedAtomic operands are cast to numbers, integer arithmetic stays in
xs:integer, ``div`` of two integers produces xs:decimal, xs:decimal is
computed **exactly** (Python :class:`decimal.Decimal` — ``65.95 * 0.9`` is
``59.3550``, not ``59.355000000000004``), division by zero raises FOAR0001
for exact types and yields ±INF/NaN for xs:double.
"""

from __future__ import annotations

import math
from decimal import Decimal, DivisionByZero, InvalidOperation

from repro.errors import ArithmeticError_, TypeError_
from repro.xdm.values import (
    XS_DECIMAL,
    XS_DOUBLE,
    XS_INTEGER,
    AtomicValue,
    cast_to_number,
    is_numeric,
    promote,
)


def arithmetic(op: str, left: AtomicValue, right: AtomicValue) -> AtomicValue:
    """Apply binary arithmetic *op* to two atomized operands."""
    a = cast_to_number(left)
    b = cast_to_number(right)
    if not (is_numeric(a) and is_numeric(b)):
        raise TypeError_(f"arithmetic on non-numeric types {a.type}, {b.type}")
    target, (x, y) = promote((a, b))
    if op == "div" and target == XS_INTEGER:
        # integer div integer is xs:decimal
        target, x, y = XS_DECIMAL, Decimal(x), Decimal(y)
    if target == XS_INTEGER:
        return AtomicValue.integer(_int_op(op, x, y))
    if target == XS_DOUBLE:
        result = _double_op(op, x, y)
        if op == "idiv":
            return AtomicValue.integer(int(result))
        return AtomicValue.double(result)
    result = _decimal_op(op, x, y)
    if op == "idiv":
        return AtomicValue.integer(int(result))
    return AtomicValue(XS_DECIMAL, result)


def _int_op(op: str, x: int, y: int) -> int:
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "idiv":
        if y == 0:
            raise ArithmeticError_("integer division by zero")
        return _trunc_div(x, y)
    if op == "mod":
        if y == 0:
            raise ArithmeticError_("modulus by zero")
        # XQuery mod takes the sign of the dividend.
        return x - _trunc_div(x, y) * y
    raise TypeError_(f"unknown arithmetic operator {op!r}")


def _trunc_div(x: int, y: int) -> int:
    """Integer division truncating toward zero (XQuery idiv)."""
    q = abs(x) // abs(y)
    return q if (x >= 0) == (y >= 0) else -q


def _decimal_op(op: str, x: Decimal, y: Decimal) -> Decimal:
    try:
        if op == "+":
            return x + y
        if op == "-":
            return x - y
        if op == "*":
            return x * y
        if op == "div":
            if y == 0:
                raise ArithmeticError_("decimal division by zero")
            return x / y
        if op == "idiv":
            if y == 0:
                raise ArithmeticError_("integer division by zero")
            return (x / y).to_integral_value(rounding="ROUND_DOWN")
        if op == "mod":
            if y == 0:
                raise ArithmeticError_("modulus by zero")
            return x % y  # Decimal % keeps the dividend's sign (XQuery rule)
    except (DivisionByZero, InvalidOperation) as exc:
        raise ArithmeticError_(f"decimal arithmetic failed: {exc}") from None
    raise TypeError_(f"unknown arithmetic operator {op!r}")


def _double_op(op: str, x: float, y: float) -> float:
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "div":
        if y == 0:
            if x == 0 or math.isnan(x):
                return float("nan")
            return math.inf if x > 0 else -math.inf
        return x / y
    if op == "idiv":
        if y == 0:
            raise ArithmeticError_("integer division by zero")
        quotient = x / y
        if not math.isfinite(quotient):
            # NaN or INF operand, or a quotient past the double range.
            raise ArithmeticError_(
                f"idiv has no integer result for {x!r} and {y!r}",
                code="FOAR0002",
            )
        return float(math.trunc(quotient))
    if op == "mod":
        if y == 0 or not math.isfinite(x):
            return float("nan")
        return math.fmod(x, y)
    raise TypeError_(f"unknown arithmetic operator {op!r}")
