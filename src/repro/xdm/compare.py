"""Comparison semantics: value comparisons, general comparisons and
fn:deep-equal, plus document-order utilities.

These implement the XQuery 1.0 rules the paper's example programs rely on
(e.g. the join predicate ``$t/buyer/@person = $p/@id`` is a *general*
comparison between attribute nodes, which atomizes both sides to
xs:untypedAtomic and compares them as strings).
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.errors import TypeError_
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind
from repro.xdm.values import (
    XS_BOOLEAN,
    XS_DOUBLE,
    XS_STRING,
    XS_UNTYPED,
    AtomicValue,
    Item,
    Sequence,
    atomize,
    is_numeric,
    parse_number,
    to_double,
)

_OPS = {
    "eq": lambda c: c == 0,
    "ne": lambda c: c != 0,
    "lt": lambda c: c < 0,
    "le": lambda c: c <= 0,
    "gt": lambda c: c > 0,
    "ge": lambda c: c >= 0,
}


def _coerce_pair(a: AtomicValue, b: AtomicValue) -> tuple:
    """Coerce two atomics to comparable Python values per the general
    comparison casting rules; returns ``(x, y)`` ready for ``<``/``==``."""
    ta, tb = a.type, b.type
    if ta == XS_UNTYPED and tb == XS_UNTYPED:
        return a.value, b.value
    if ta == XS_UNTYPED:
        if is_numeric(b):
            x = parse_number(a.value, XS_DOUBLE)
            if x is None:
                raise TypeError_(
                    f"cannot cast {a.value!r} to xs:double for comparison",
                    code="FORG0001",
                )
            return x, to_double(b.value)
        if tb == XS_BOOLEAN:
            return _parse_boolean(a.value), b.value
        return a.value, str(b.value)
    if tb == XS_UNTYPED:
        y, x = _coerce_pair(b, a)
        return x, y
    if ta == tb:
        return a.value, b.value
    if is_numeric(a) and is_numeric(b):
        # promote() for a pair, inlined on this hot path: int and Decimal
        # compare exactly as they are.
        if ta == XS_DOUBLE or tb == XS_DOUBLE:
            return to_double(a.value), to_double(b.value)
        return a.value, b.value
    if {ta, tb} == {XS_STRING, XS_UNTYPED}:
        return str(a.value), str(b.value)
    raise TypeError_(f"cannot compare {ta} with {tb}")


def _parse_boolean(text: str) -> bool:
    t = text.strip()
    if t in ("true", "1"):
        return True
    if t in ("false", "0"):
        return False
    raise TypeError_(f"cannot cast {text!r} to xs:boolean")


def compare_atomic(a: AtomicValue, b: AtomicValue) -> int:
    """Three-way comparison of two atomic values after coercion."""
    x, y = _coerce_pair(a, b)
    if isinstance(x, float) and math.isnan(x):
        raise TypeError_("NaN is not comparable")
    if isinstance(y, float) and math.isnan(y):
        raise TypeError_("NaN is not comparable")
    if x == y:
        return 0
    try:
        return -1 if x < y else 1
    except TypeError:
        raise TypeError_(
            f"cannot order {type(x).__name__} against {type(y).__name__}"
        ) from None


def _ordered(test, a: AtomicValue, b: AtomicValue) -> bool:
    """``test`` (an ``_OPS`` entry for lt, le, gt or ge) of the three-way
    comparison of *a* and *b*: false when either side is NaN, as F&O's
    ``op:numeric-less-than`` and friends say — where
    :func:`compare_atomic`, serving total orders, raises."""
    x, y = _coerce_pair(a, b)
    if x != x or y != y:  # NaN
        return False
    if x == y:
        return test(0)
    try:
        return test(-1 if x < y else 1)
    except TypeError:
        raise TypeError_(
            f"cannot order {type(x).__name__} against {type(y).__name__}"
        ) from None


def atomic_equal(a: AtomicValue, b: AtomicValue) -> bool:
    """Equality under general-comparison coercion; NaN equals nothing."""
    x, y = _coerce_pair(a, b)
    if isinstance(x, float) and math.isnan(x):
        return False
    if isinstance(y, float) and math.isnan(y):
        return False
    return x == y


def value_compare(op: str, left: Sequence, right: Sequence) -> Sequence:
    """Value comparison (eq, ne, lt, le, gt, ge).

    Empty operand propagates to the empty sequence; both operands must
    atomize to single values.
    """
    la = atomize(left)
    ra = atomize(right)
    if not la or not ra:
        return []
    if len(la) != 1 or len(ra) != 1:
        raise TypeError_(f"value comparison {op} requires singleton operands")
    if op in ("eq", "ne"):
        eq = atomic_equal(la[0], ra[0])
        return [AtomicValue.boolean(eq if op == "eq" else not eq)]
    return [AtomicValue.boolean(_ordered(_OPS[op], la[0], ra[0]))]


def general_compare(op: str, left: Sequence, right: Sequence) -> bool:
    """General comparison (=, !=, <, <=, >, >=): existential semantics.

    True iff some pair of atomized items satisfies the corresponding value
    comparison.
    """
    la = atomize(left)
    ra = atomize(right)
    if op in ("eq", "ne"):
        for a in la:
            for b in ra:
                eq = atomic_equal(a, b)
                if (op == "eq" and eq) or (op == "ne" and not eq):
                    return True
        return False
    test = _OPS[op]
    for a in la:
        for b in ra:
            if _ordered(test, a, b):
                return True
    return False


def deep_equal(left: Sequence, right: Sequence) -> bool:
    """fn:deep-equal over two sequences."""
    if len(left) != len(right):
        return False
    return all(_deep_equal_item(a, b) for a, b in zip(left, right))


def _deep_equal_item(a: Item, b: Item) -> bool:
    if isinstance(a, Node) != isinstance(b, Node):
        return False
    if isinstance(a, AtomicValue):
        try:
            return atomic_equal(a, b)  # type: ignore[arg-type]
        except TypeError_:
            return False
    return _deep_equal_node(a, b)  # type: ignore[arg-type]


def _deep_equal_node(a: Node, b: Node) -> bool:
    if a.kind is not b.kind:
        return False
    if a.kind in (NodeKind.TEXT, NodeKind.COMMENT):
        return a.string_value == b.string_value
    if a.kind in (NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION):
        return a.name == b.name and a.string_value == b.string_value
    if a.kind is NodeKind.ELEMENT and a.name != b.name:
        return False
    a_attrs = {attr.name: attr.string_value for attr in a.attributes}
    b_attrs = {attr.name: attr.string_value for attr in b.attributes}
    if a_attrs != b_attrs:
        return False
    a_kids = _comparable_children(a)
    b_kids = _comparable_children(b)
    if len(a_kids) != len(b_kids):
        return False
    for x, y in zip(a_kids, b_kids):
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return False
        elif not _deep_equal_node(x, y):
            return False
    return True


def _comparable_children(node: Node) -> list:
    """Children relevant to deep-equal: comments/PIs dropped, runs of
    adjacent text nodes merged into one string (the XDM never distinguishes
    a text run from its concatenation)."""
    out: list = []
    pending_text: list[str] = []
    for child in node.children:
        if child.kind is NodeKind.TEXT:
            pending_text.append(child.string_value)
            continue
        if pending_text:
            out.append("".join(pending_text))
            pending_text = []
        if child.kind in (NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION):
            continue
        out.append(child)
    if pending_text:
        out.append("".join(pending_text))
    return out


def nodes_in_document_order(nodes: Iterable[Node]) -> list[Node]:
    """Sort nodes into document order with duplicate elimination.

    Used to deliver path-expression results per the XPath semantics.  All
    nodes must belong to the same store.
    """
    nodes = list(nodes)
    if not nodes:
        return []
    store = nodes[0].store
    for n in nodes:
        if n.store is not store:
            raise TypeError_("cannot order nodes from different stores")
    nids = store.sort_document_order(n.nid for n in nodes)
    return [Node(store, nid) for nid in nids]
