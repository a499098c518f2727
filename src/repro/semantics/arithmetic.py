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
from decimal import (
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    getcontext,
    localcontext,
)

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


def _exact_context(x: Decimal, y: Decimal) -> Context:
    """A context whose precision holds every digit ``+ - * idiv mod``
    can produce from *x* and *y*, where the default keeps 28: the span
    of digit positions the two cover, plus a carry, and the digits of a
    product."""
    (_, x_digits, x_exp), (_, y_digits, y_exp) = x.as_tuple(), y.as_tuple()
    high = max(x_exp + len(x_digits), y_exp + len(y_digits))
    low = min(x_exp, y_exp)
    return Context(prec=max(
        getcontext().prec, high - low + 1, len(x_digits) + len(y_digits)
    ))


def _decimal_op(op: str, x: Decimal, y: Decimal) -> Decimal:
    # div keeps the ambient precision; nothing else may round.
    context = getcontext() if op == "div" else _exact_context(x, y)
    try:
        with localcontext(context):
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
                return x // y  # Decimal // truncates toward zero
            if op == "mod":
                if y == 0:
                    raise ArithmeticError_("modulus by zero")
                # Decimal % keeps the dividend's sign (XQuery rule).
                return x % y
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
