"""A small well-formed XML parser targeting the node store.

Hand-written single-pass scanner.  Supported: the XML declaration, elements,
attributes (single or double quoted), character data, the five predefined
entities plus decimal/hexadecimal character references, CDATA sections,
comments and processing instructions.  Not supported (out of scope for the
paper, Section 3.2 "well-formed documents"): DTDs, general entities,
namespaces beyond lexical prefixes.
"""

from __future__ import annotations

from repro.errors import XMLParseError
from repro.xdm.nodes import Node, held_node
from repro.xdm.store import Store

_PREDEFINED = {"lt": "<", "gt": ">", "amp": "&", "apos": "'", "quot": '"'}

_NAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_:"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")


class _Scanner:
    """Cursor over the input text with line/column tracking."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.n = len(text)

    def location(self) -> tuple[int, int]:
        line = self.text.count("\n", 0, self.pos) + 1
        last_nl = self.text.rfind("\n", 0, self.pos)
        column = self.pos - last_nl
        return line, column

    def error(self, message: str) -> XMLParseError:
        line, column = self.location()
        return XMLParseError(message, line, column)

    def eof(self) -> bool:
        return self.pos >= self.n

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < self.n else ""

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def advance(self, k: int = 1) -> None:
        self.pos += k

    def expect(self, s: str) -> None:
        if not self.startswith(s):
            raise self.error(f"expected {s!r}")
        self.pos += len(s)

    def skip_whitespace(self) -> None:
        while self.pos < self.n and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def read_until(self, marker: str, what: str) -> str:
        end = self.text.find(marker, self.pos)
        if end < 0:
            raise self.error(f"unterminated {what}")
        out = self.text[self.pos : end]
        self.pos = end + len(marker)
        return out

    def read_name(self) -> str:
        start = self.pos
        if self.pos >= self.n or self.text[self.pos] not in _NAME_START:
            raise self.error("expected a name")
        self.pos += 1
        while self.pos < self.n and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.text[start : self.pos]


def _decode(text: str, sc: _Scanner) -> str:
    """Resolve predefined entities and character references in *text*."""
    if "&" not in text:
        return text
    out: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c != "&":
            out.append(c)
            i += 1
            continue
        end = text.find(";", i + 1)
        if end < 0:
            raise sc.error("unterminated entity reference")
        name = text[i + 1 : end]
        try:
            if name.startswith("#x") or name.startswith("#X"):
                out.append(chr(int(name[2:], 16)))
            elif name.startswith("#"):
                out.append(chr(int(name[1:])))
            else:
                out.append(_PREDEFINED[name])
        except (KeyError, ValueError):
            raise sc.error(f"unknown entity &{name};") from None
        i = end + 1
    return "".join(out)


def parse_document(text: str, store: Store | None = None) -> Node:
    """Parse an XML document; return the document node handle.

    A fresh store is created unless one is supplied.  Hostile input —
    however malformed, nested or oversized — yields a typed
    :class:`~repro.errors.XMLParseError`, never an untyped crash: a
    document nested beyond the interpreter's recursion headroom is
    refused, not allowed to blow the stack.
    """
    store = store if store is not None else Store()
    sc = _Scanner(text)
    doc = store.create_document()
    try:
        _parse_prolog(sc)
        _parse_misc(sc, store, doc)
        if sc.eof() or sc.peek() != "<":
            raise sc.error("expected a root element")
        _parse_element(sc, store, doc)
        _parse_misc(sc, store, doc)
    except RecursionError:
        raise sc.error(
            "document nests too deeply to parse; refused"
        ) from None
    sc.skip_whitespace()
    if not sc.eof():
        raise sc.error("content after the root element")
    return held_node(store, doc)


def parse_fragment(text: str, store: Store | None = None) -> Node:
    """Parse a single element (no XML declaration); return its handle.

    The element is parentless — convenient for constructing test fixtures
    and for the examples' literal data.  Same hostile-input contract as
    :func:`parse_document`: malformed or absurdly nested input is a
    typed refusal, never a crash.
    """
    store = store if store is not None else Store()
    sc = _Scanner(text)
    sc.skip_whitespace()
    if sc.eof() or sc.peek() != "<":
        raise sc.error("expected an element")
    try:
        nid = _parse_element(sc, store, None)
    except RecursionError:
        raise sc.error(
            "document nests too deeply to parse; refused"
        ) from None
    sc.skip_whitespace()
    if not sc.eof():
        raise sc.error("content after the element")
    return held_node(store, nid)


def _parse_prolog(sc: _Scanner) -> None:
    sc.skip_whitespace()
    if sc.startswith("<?xml"):
        sc.read_until("?>", "XML declaration")
    sc.skip_whitespace()
    if sc.startswith("<!DOCTYPE"):
        raise sc.error("DTDs are not supported")


def _parse_misc(sc: _Scanner, store: Store, parent: int) -> None:
    """Comments/PIs/whitespace allowed around the root element."""
    while True:
        sc.skip_whitespace()
        if sc.startswith("<!--"):
            sc.advance(4)
            value = sc.read_until("-->", "comment")
            store.append_child(parent, store.create_comment(value))
        elif sc.startswith("<?"):
            sc.advance(2)
            target = sc.read_name()
            value = sc.read_until("?>", "processing instruction").strip()
            store.append_child(
                parent, store.create_processing_instruction(target, value)
            )
        else:
            return


def _parse_element(sc: _Scanner, store: Store, parent: int | None) -> int:
    """Parse one element, attached as *parent*'s last child (when not
    None) before its attributes and content: each attribute is then
    born with its final owner and parent, which key its index posting
    (see repro.index.manager)."""
    sc.expect("<")
    name = sc.read_name()
    element = store.create_element(name)
    if parent is not None:
        store.append_child(parent, element)
    # Attributes.
    while True:
        sc.skip_whitespace()
        ch = sc.peek()
        if ch == ">" or sc.startswith("/>"):
            break
        if not ch:
            raise sc.error(f"unterminated start tag <{name}>")
        attr_name = sc.read_name()
        sc.skip_whitespace()
        sc.expect("=")
        sc.skip_whitespace()
        quote = sc.peek()
        if quote not in ("'", '"'):
            raise sc.error("attribute value must be quoted")
        sc.advance()
        raw = sc.read_until(quote, "attribute value")
        value = _decode(raw, sc)
        if store.attribute_named(element, attr_name) is not None:
            raise sc.error(f"duplicate attribute {attr_name!r} on <{name}>")
        store.add_attribute(element, attr_name, value)
    if sc.startswith("/>"):
        sc.advance(2)
        return element
    sc.expect(">")
    _parse_content(sc, store, element, name)
    return element


def _parse_content(sc: _Scanner, store: Store, element: int, name: str) -> None:
    text_parts: list[str] = []

    def flush_text() -> None:
        if text_parts:
            store.append_child(element, store.create_text("".join(text_parts)))
            text_parts.clear()

    while True:
        if sc.eof():
            raise sc.error(f"unterminated element <{name}>")
        if sc.startswith("</"):
            flush_text()
            sc.advance(2)
            end_name = sc.read_name()
            if end_name != name:
                raise sc.error(
                    f"mismatched end tag </{end_name}> for <{name}>"
                )
            sc.skip_whitespace()
            sc.expect(">")
            return
        if sc.startswith("<!--"):
            flush_text()
            sc.advance(4)
            value = sc.read_until("-->", "comment")
            store.append_child(element, store.create_comment(value))
        elif sc.startswith("<![CDATA["):
            sc.advance(len("<![CDATA["))
            text_parts.append(sc.read_until("]]>", "CDATA section"))
        elif sc.startswith("<?"):
            flush_text()
            sc.advance(2)
            target = sc.read_name()
            value = sc.read_until("?>", "processing instruction").strip()
            store.append_child(
                element, store.create_processing_instruction(target, value)
            )
        elif sc.peek() == "<":
            flush_text()
            _parse_element(sc, store, element)
        else:
            start = sc.pos
            nxt = sc.text.find("<", sc.pos)
            if nxt < 0:
                nxt = sc.n
            raw = sc.text[start:nxt]
            sc.pos = nxt
            text_parts.append(_decode(raw, sc))
