"""Dynamic sequence-type matching and atomic casting.

Supports ``instance of``, ``castable as`` and ``cast as`` over the engine's
dynamic type universe.  The paper leaves *static* typing for future work
(Section 6); these are the standard XQuery 1.0 dynamic operators.
"""

from __future__ import annotations

import math

from repro.errors import TypeError_
from repro.lang.ast import SequenceType
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind
from repro.xdm.values import (
    XS_BOOLEAN,
    XS_DECIMAL,
    XS_DOUBLE,
    XS_INTEGER,
    XS_STRING,
    XS_UNTYPED,
    AtomicValue,
    Item,
    Sequence,
    parse_number,
    to_double,
)

# Derivation chains: a value of the key type is also an instance of every
# type listed (xs:integer derives from xs:decimal in the XML Schema
# hierarchy).
_SUPERTYPES = {
    XS_INTEGER: {XS_INTEGER, XS_DECIMAL, "xs:anyAtomicType"},
    XS_DECIMAL: {XS_DECIMAL, "xs:anyAtomicType"},
    XS_DOUBLE: {XS_DOUBLE, "xs:anyAtomicType"},
    XS_STRING: {XS_STRING, "xs:anyAtomicType"},
    XS_BOOLEAN: {XS_BOOLEAN, "xs:anyAtomicType"},
    XS_UNTYPED: {XS_UNTYPED, "xs:anyAtomicType"},
}

_NODE_KIND_TESTS = {
    "node": None,
    "text": NodeKind.TEXT,
    "comment": NodeKind.COMMENT,
    "element": NodeKind.ELEMENT,
    "attribute": NodeKind.ATTRIBUTE,
    "document-node": NodeKind.DOCUMENT,
    "processing-instruction": NodeKind.PROCESSING_INSTRUCTION,
}


def item_matches(item: Item, kind: str, name: str | None) -> bool:
    """Does *item* match the item test ``kind(name)``?"""
    if kind == "item":
        return True
    if kind in _NODE_KIND_TESTS:
        if not isinstance(item, Node):
            return False
        expected = _NODE_KIND_TESTS[kind]
        if expected is not None and item.kind is not expected:
            return False
        if name not in (None, "*") and item.name != name:
            return False
        return True
    # Atomic type test.
    if isinstance(item, Node):
        return False
    return kind in _SUPERTYPES.get(item.type, {"xs:anyAtomicType"}) or (
        kind == "xs:anyAtomicType"
    )


def matches_sequence_type(seq: Sequence, type_: SequenceType) -> bool:
    """The 'instance of' judgment."""
    if type_.kind == "empty-sequence":
        return not seq
    occurrence = type_.occurrence
    if not seq:
        return occurrence in ("?", "*")
    if len(seq) > 1 and occurrence not in ("*", "+"):
        return False
    return all(item_matches(item, type_.kind, type_.name) for item in seq)


def _lexical(text: str, type_name: str):
    """*text* parsed as the numeric *type_name*; ValueError when it is not
    that type's XML Schema lexical form."""
    value = parse_number(text, type_name)
    if value is None:
        raise ValueError(text)
    return value


def cast_atomic(av: AtomicValue, type_name: str) -> AtomicValue:
    """'cast as' for a single atomic value; raises TypeError_ on failure.

    NaN and ±INF have no xs:integer or xs:decimal value (FOCA0002).  A
    string or untyped value casts to a number only from the XML Schema
    lexical form of the target type (FORG0001 otherwise).
    """
    text = av.lexical()
    numeric = av.type in (XS_INTEGER, XS_DECIMAL, XS_DOUBLE)
    if (
        av.type == XS_DOUBLE
        and not math.isfinite(av.value)
        and type_name in ("xs:integer", "integer", "xs:decimal", "decimal")
    ):
        raise TypeError_(f"cannot cast {text} to {type_name}", code="FOCA0002")
    try:
        if type_name in ("xs:string", "string"):
            return AtomicValue.string(text)
        if type_name in ("xs:untypedAtomic", "untypedAtomic"):
            return AtomicValue.untyped(text)
        if type_name in ("xs:integer", "integer"):
            if numeric:
                return AtomicValue.integer(int(av.value))
            if av.type == XS_BOOLEAN:
                return AtomicValue.integer(1 if av.value else 0)
            return AtomicValue.integer(_lexical(text, XS_INTEGER))
        if type_name in ("xs:decimal", "decimal"):
            if numeric:
                return AtomicValue.decimal(av.value)
            if av.type == XS_BOOLEAN:
                return AtomicValue.decimal(1 if av.value else 0)
            return AtomicValue.decimal(_lexical(text, XS_DECIMAL))
        if type_name in ("xs:double", "double"):
            if numeric:
                return AtomicValue.double(to_double(av.value))
            if av.type == XS_BOOLEAN:
                return AtomicValue.double(1.0 if av.value else 0.0)
            return AtomicValue.double(_lexical(text, XS_DOUBLE))
        if type_name in ("xs:boolean", "boolean"):
            if av.type == XS_BOOLEAN:
                return av
            if av.type in (XS_INTEGER, XS_DECIMAL, XS_DOUBLE):
                return AtomicValue.boolean(bool(av.value) and av.value == av.value)
            stripped = text.strip()
            if stripped in ("true", "1"):
                return AtomicValue.boolean(True)
            if stripped in ("false", "0"):
                return AtomicValue.boolean(False)
            raise ValueError(stripped)
    except (ValueError, OverflowError, ArithmeticError):
        raise TypeError_(
            f"cannot cast {text!r} to {type_name}", code="FORG0001"
        ) from None
    raise TypeError_(f"unknown cast target type {type_name}", code="XPST0051")
