"""Serialization of store subtrees (and mixed sequences) to XML text."""

from __future__ import annotations

from repro.errors import SerializationError
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind
from repro.xdm.values import AtomicValue, Sequence


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attribute(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize(node: Node, indent: bool = False) -> str:
    """Serialize the subtree rooted at *node* to XML text.

    With ``indent=True`` element-only content is pretty-printed; mixed
    content is always emitted verbatim to preserve the string value.
    """
    parts: list[str] = []
    _serialize_node(node.store, node.nid, parts, 0, indent)
    return "".join(parts)


def serialize_sequence(seq: Sequence, indent: bool = False) -> str:
    """Serialize a value: nodes as XML, atomics via their lexical form,
    adjacent atomics separated by a single space (XSLT/XQuery rules)."""
    parts: list[str] = []
    previous_atomic = False
    for item in seq:
        if isinstance(item, AtomicValue):
            if previous_atomic:
                parts.append(" ")
            parts.append(_escape_text(item.lexical()))
            previous_atomic = True
        else:
            parts.append(serialize(item, indent))
            previous_atomic = False
    return "".join(parts)


_ELEMENT_LIKE = (
    NodeKind.ELEMENT, NodeKind.COMMENT, NodeKind.PROCESSING_INSTRUCTION
)


def _serialize_node(
    store, nid: int, parts: list[str], depth: int, indent: bool
) -> None:
    # Through the store, not Node's navigation properties: those make
    # host handles, which a serializer has no use for.
    kind = store.kind(nid)
    pad = "  " * depth if indent else ""
    if kind is NodeKind.DOCUMENT:
        for child in store.children(nid):
            _serialize_node(store, child, parts, depth, indent)
            if indent:
                parts.append("\n")
        return
    if kind is NodeKind.TEXT:
        parts.append(_escape_text(store.string_value(nid)))
        return
    if kind is NodeKind.COMMENT:
        parts.append(f"<!--{store.string_value(nid)}-->")
        return
    if kind is NodeKind.PROCESSING_INSTRUCTION:
        value = store.string_value(nid)
        body = f" {value}" if value else ""
        parts.append(f"<?{store.name(nid)}{body}?>")
        return
    if kind is NodeKind.ATTRIBUTE:
        raise SerializationError(
            "cannot serialize a free-standing attribute node"
        )
    # Element.
    name = store.name(nid)
    parts.append(f"<{name}")
    for attr in store.attributes(nid):
        parts.append(
            f' {store.name(attr)}='
            f'"{_escape_attribute(store.string_value(attr))}"'
        )
    kids = store.children(nid)
    if not kids:
        parts.append("/>")
        return
    parts.append(">")
    if indent and all(store.kind(kid) in _ELEMENT_LIKE for kid in kids):
        for child in kids:
            parts.append("\n" + "  " * (depth + 1))
            _serialize_node(store, child, parts, depth + 1, indent)
        parts.append("\n" + pad)
    else:
        for child in kids:
            _serialize_node(store, child, parts, depth + 1, False)
    parts.append(f"</{name}>")
