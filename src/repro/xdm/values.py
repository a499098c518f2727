"""Atomic values and sequence helpers of the XDM.

The value space of the engine is: an *item* is either a
:class:`~repro.xdm.nodes.Node` or an :class:`AtomicValue`; a *value* (in the
sense of the paper's judgment ``Expr => value``) is a Python list of items.

The paper focuses on well-formed documents and "does not consider the impact
of types" (Section 3.2), so we implement the small dynamic-type universe that
XQuery 1.0 needs operationally: integer, decimal, double, string, boolean,
untypedAtomic and QName, with the standard promotion and casting rules used
by arithmetic and comparisons.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import Any, Union

from repro.errors import AtomizationError, CardinalityError, TypeError_
from repro.xdm.nodes import Node

# Dynamic type names.  Kept as plain strings: they are compared often and
# rendered in error messages verbatim.
XS_INTEGER = "xs:integer"
XS_DECIMAL = "xs:decimal"
XS_DOUBLE = "xs:double"
XS_STRING = "xs:string"
XS_BOOLEAN = "xs:boolean"
XS_UNTYPED = "xs:untypedAtomic"
XS_QNAME = "xs:QName"

_NUMERIC_TYPES = (XS_INTEGER, XS_DECIMAL, XS_DOUBLE)


class AtomicValue:
    """A typed atomic value.

    ``value`` holds the natural Python representation: ``int`` for
    xs:integer, :class:`decimal.Decimal` for xs:decimal (exact, as the
    XML Schema type requires), ``float`` for xs:double, ``str`` for
    xs:string / xs:untypedAtomic, ``bool`` for xs:boolean and
    :class:`QName` for xs:QName.
    """

    __slots__ = ("type", "value")

    def __init__(self, type_: str, value: Any):
        self.type = type_
        self.value = value

    def __repr__(self) -> str:
        return f"AtomicValue({self.type}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AtomicValue)
            and other.type == self.type
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value))

    # -- convenience constructors --------------------------------------

    @staticmethod
    def integer(v: int) -> "AtomicValue":
        return AtomicValue(XS_INTEGER, int(v))

    @staticmethod
    def decimal(v) -> "AtomicValue":
        """xs:decimal from an int/str/Decimal, or (exactly) from a float's
        shortest decimal representation."""
        if isinstance(v, Decimal):
            return AtomicValue(XS_DECIMAL, v)
        if isinstance(v, float):
            return AtomicValue(XS_DECIMAL, Decimal(repr(v)))
        return AtomicValue(XS_DECIMAL, Decimal(v))

    @staticmethod
    def double(v: float) -> "AtomicValue":
        return AtomicValue(XS_DOUBLE, float(v))

    @staticmethod
    def string(v: str) -> "AtomicValue":
        return AtomicValue(XS_STRING, str(v))

    @staticmethod
    def boolean(v: bool) -> "AtomicValue":
        return AtomicValue(XS_BOOLEAN, bool(v))

    @staticmethod
    def untyped(v: str) -> "AtomicValue":
        return AtomicValue(XS_UNTYPED, str(v))

    # -- rendering ------------------------------------------------------

    def lexical(self) -> str:
        """The canonical lexical (string) form of this value."""
        if self.type == XS_BOOLEAN:
            return "true" if self.value else "false"
        if self.type == XS_DECIMAL:
            text = format(self.value, "f")
            if "." in text:
                text = text.rstrip("0").rstrip(".")
            return text or "0"
        if self.type == XS_DOUBLE:
            f = float(self.value)
            if math.isnan(f):
                return "NaN"
            if math.isinf(f):
                return "INF" if f > 0 else "-INF"
            if f == int(f) and abs(f) < 1e16:
                return str(int(f))
            return repr(f)
        return str(self.value)


class UntypedAtomic(AtomicValue):
    """Shorthand subclass for xs:untypedAtomic (the type of node data)."""

    __slots__ = ()

    def __init__(self, value: str):
        super().__init__(XS_UNTYPED, str(value))


class QName:
    """A qualified name.  Namespace handling is prefix pass-through: the
    engine treats ``prefix:local`` lexically, as the paper's examples do."""

    __slots__ = ("prefix", "local")

    def __init__(self, local: str, prefix: str | None = None):
        self.prefix = prefix
        self.local = local

    def __str__(self) -> str:
        return f"{self.prefix}:{self.local}" if self.prefix else self.local

    def __repr__(self) -> str:
        return f"QName({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, QName)
            and other.prefix == self.prefix
            and other.local == self.local
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.local))

    @staticmethod
    def parse(text: str) -> "QName":
        if ":" in text:
            prefix, local = text.split(":", 1)
            return QName(local, prefix)
        return QName(text)


Item = Union[Node, AtomicValue]
Sequence = list  # list[Item]


# ----------------------------------------------------------------------
# Atomization (fn:data)
# ----------------------------------------------------------------------

def atomize_item(item: Item) -> AtomicValue:
    """Atomize a single item: nodes yield their typed value, which in an
    untyped (schemaless) store is ``xs:untypedAtomic(string-value)``."""
    if isinstance(item, Node):
        return UntypedAtomic(item.string_value)
    return item


def atomize(seq: Sequence) -> list[AtomicValue]:
    """Atomize a sequence item-wise (fn:data)."""
    return [atomize_item(item) for item in seq]


def atomize_single(seq: Sequence, what: str = "operand") -> AtomicValue:
    """Atomize a sequence required to contain exactly one item."""
    if len(seq) != 1:
        raise AtomizationError(
            f"{what} must atomize to exactly one value, got {len(seq)} items"
        )
    return atomize_item(seq[0])


def atomize_optional(seq: Sequence, what: str = "operand") -> AtomicValue | None:
    """Atomize a sequence of zero or one items."""
    if not seq:
        return None
    if len(seq) != 1:
        raise AtomizationError(
            f"{what} must atomize to at most one value, got {len(seq)} items"
        )
    return atomize_item(seq[0])


def singleton(seq: Sequence, what: str = "expression") -> Item:
    """Require and return the only item of *seq*."""
    if len(seq) != 1:
        raise CardinalityError(
            f"{what} must evaluate to exactly one item, got {len(seq)}"
        )
    return seq[0]


def single_node(seq: Sequence, what: str = "expression") -> Node:
    """Require and return the only item of *seq*, which must be a node.

    This realizes the metavariable constraints of the semantics figures
    ("the judgment can only be applied if Expr evaluates to ... a node").
    """
    item = singleton(seq, what)
    if not isinstance(item, Node):
        raise TypeError_(f"{what} must evaluate to a node, got {item!r}")
    return item


def node_sequence(seq: Sequence, what: str = "expression") -> list[Node]:
    """Require every item of *seq* to be a node."""
    for item in seq:
        if not isinstance(item, Node):
            raise TypeError_(
                f"{what} must evaluate to a sequence of nodes, got {item!r}"
            )
    return list(seq)


# ----------------------------------------------------------------------
# Effective boolean value (fn:boolean)
# ----------------------------------------------------------------------

def effective_boolean_value(seq: Sequence) -> bool:
    """XQuery 1.0 effective boolean value rules."""
    if not seq:
        return False
    first = seq[0]
    if isinstance(first, Node):
        return True
    if len(seq) > 1:
        raise TypeError_(
            "effective boolean value of a multi-item atomic sequence"
        )
    if first.type == XS_BOOLEAN:
        return bool(first.value)
    if first.type in (XS_STRING, XS_UNTYPED):
        return len(first.value) > 0
    if first.type in _NUMERIC_TYPES:
        v = first.value
        return not (v == 0 or (isinstance(v, float) and math.isnan(v)))
    raise TypeError_(f"no effective boolean value for {first.type}")


# ----------------------------------------------------------------------
# String rendering of sequences
# ----------------------------------------------------------------------

def item_string(item: Item) -> str:
    """fn:string of a single item."""
    if isinstance(item, Node):
        return item.string_value
    return item.lexical()


def sequence_string(seq: Sequence) -> str:
    """Space-joined string of the atomized sequence (attribute-content and
    text-content rendering used by constructors)."""
    return " ".join(av.lexical() for av in atomize(seq))


# ----------------------------------------------------------------------
# Numeric casting / promotion
# ----------------------------------------------------------------------

#: XML Schema 1.0 lexical forms of the numeric types: ASCII digits, no
#: exponent in an integer or decimal, and a double's special values
#: spelled exactly INF, -INF and NaN.  Python's ``int``, ``Decimal`` and
#: ``float`` also take ``1_000``, non-ASCII digits, ``inf`` or
#: ``Infinity``, so every parse goes through these first.
_LEXICAL = {
    XS_INTEGER: re.compile(r"[+-]?[0-9]+"),
    XS_DECIMAL: re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)"),
    XS_DOUBLE: re.compile(
        r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
        r"|-?INF|NaN"
    ),
}
_PARSE = {XS_INTEGER: int, XS_DECIMAL: Decimal, XS_DOUBLE: float}


def parse_number(text: str, type_name: str):
    """*text* read as xs:integer, xs:decimal or xs:double — an ``int``,
    ``Decimal`` or ``float`` — after collapsing its XML whitespace; None
    when it is not in the type's lexical space."""
    text = text.strip(" \t\r\n")
    if _LEXICAL[type_name].fullmatch(text) is None:
        return None
    return _PARSE[type_name](text)


def to_double(value) -> float:
    """A numeric value promoted to xs:double; an integer beyond the
    double range becomes ±INF (where ``float`` raises)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def string_to_double(text: str) -> float:
    """*text* read as ``fn:number`` reads a string or untypedAtomic: an
    integer form cast to xs:integer, any other double form to xs:double,
    then promoted to double; NaN for a bad form.  The numeric column of
    the value indexes reads element text through this same rule."""
    value = parse_number(text, XS_INTEGER)
    if value is None:
        value = parse_number(text, XS_DOUBLE)
        if value is None:
            return math.nan
    return to_double(value)


def cast_to_number(av: AtomicValue) -> AtomicValue:
    """Cast an atomic value to a numeric type: an untyped or string
    integer form to xs:integer, any other double form to xs:double.  A
    bad form is NaN for untyped data and an error for a string."""
    if av.type in _NUMERIC_TYPES:
        return av
    if av.type in (XS_UNTYPED, XS_STRING):
        value = parse_number(av.value, XS_INTEGER)
        if value is not None:
            return AtomicValue.integer(value)
        value = parse_number(av.value, XS_DOUBLE)
        if value is not None:
            return AtomicValue.double(value)
        if av.type == XS_UNTYPED:
            return AtomicValue.double(math.nan)
        raise TypeError_(f"cannot cast {av.value.strip()!r} to a number")
    if av.type == XS_BOOLEAN:
        return AtomicValue.integer(1 if av.value else 0)
    raise TypeError_(f"cannot cast {av.type} to a number")


def is_numeric(av: AtomicValue) -> bool:
    """True when the value already has a numeric dynamic type."""
    return av.type in _NUMERIC_TYPES


def promote(values: "list[AtomicValue] | tuple[AtomicValue, ...]"):
    """Numeric atomics promoted to their least common type (XQuery type
    promotion: xs:integer, then xs:decimal, then xs:double).  Returns
    ``(type, python_values)``: integers and decimals stay exact, and
    values become ``float`` only when a double is present — an integer
    beyond the double range then becoming ±INF."""
    types = {av.type for av in values}
    if XS_DOUBLE in types:
        return XS_DOUBLE, [to_double(av.value) for av in values]
    if XS_DECIMAL in types:
        return XS_DECIMAL, [Decimal(av.value) for av in values]
    return XS_INTEGER, [av.value for av in values]
