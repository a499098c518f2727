"""Node handles: the user-facing view of store nodes.

A :class:`Node` is a lightweight, hashable handle pairing a
:class:`~repro.xdm.store.Store` with a node id.  Node identity (the ``is``
operator of XQuery) is identity of the ``(store, id)`` pair.  All structural
accessors delegate to the store, so handles always observe the *current*
state — exactly the behaviour the paper's compositional updates require.

Handles given to the host are :class:`HeldNode` s: the nodes one call
returns share one :class:`~repro.xdm.store.Pin`, which keeps their trees
in the store's root set until the last of them is gone (see
:meth:`Store.reclaim <repro.xdm.store.Store.reclaim>`).  They are made in
three places only: query results and ``Engine.variable`` (:func:`held`,
:func:`held_from_snapshot`), the navigation properties below, and the
XML parse entry points.  The evaluator's own handles are plain
:class:`Node` s and cost nothing extra; code inside the engine navigates
through the store, not through these properties.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice

from repro.xdm.store import NodeKind, Pin, Store


class Node:
    """Handle to a node in a :class:`Store`."""

    __slots__ = ("store", "nid")

    def __init__(self, store: Store, nid: int):
        self.store = store
        self.nid = nid

    # -- identity ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Node)
            and other.store is self.store
            and other.nid == self.nid
        )

    def __hash__(self) -> int:
        return hash((id(self.store), self.nid))

    def __repr__(self) -> str:
        name = self.name
        label = f" {name}" if name else ""
        return f"<Node {self.kind.value}{label} #{self.nid}>"

    # -- accessors -----------------------------------------------------

    @property
    def kind(self) -> NodeKind:
        """The XDM node kind."""
        return self.store.kind(self.nid)

    @property
    def name(self) -> str | None:
        """Element/attribute name or PI target; None for other kinds."""
        return self.store.name(self.nid)

    @property
    def parent(self) -> Node | None:
        """The parent node, or None when detached / a root."""
        pid = self.store.parent(self.nid)
        return None if pid is None else held_node(self.store, pid)

    @property
    def children(self) -> list[Node]:
        """Child nodes in document order."""
        return held_ids(self.store, self.store.children(self.nid))

    @property
    def attributes(self) -> list[Node]:
        """Attribute nodes of an element (empty for other kinds)."""
        return held_ids(self.store, self.store.attributes(self.nid))

    @property
    def string_value(self) -> str:
        """The XDM string-value accessor."""
        return self.store.string_value(self.nid)

    @property
    def root(self) -> Node:
        """The root of the tree currently containing this node."""
        return held_node(self.store, self.store.root(self.nid))

    def attribute(self, name: str) -> Node | None:
        """The attribute named *name*, or None."""
        aid = self.store.attribute_named(self.nid, name)
        return None if aid is None else held_node(self.store, aid)

    def descendants(self, include_self: bool = False) -> Iterator[Node]:
        """Descendant nodes in document order (attributes excluded)."""
        return held_walk(
            self, self.store.descendants(self.nid, include_self)
        )

    def ancestors(self, include_self: bool = False) -> Iterator[Node]:
        """Ancestor nodes, nearest first."""
        return held_walk(self, self.store.ancestors(self.nid, include_self))

    def element_children(self, name: str | None = None) -> list[Node]:
        """Child elements, optionally filtered by name."""
        store = self.store
        return held_ids(store, tuple(
            child for child in store.children(self.nid)
            if store.kind(child) is NodeKind.ELEMENT
            and (name is None or store.name(child) == name)
        ))

    def deep_copy(self) -> Node:
        """A parentless deep copy of this node (new node ids throughout)."""
        return held_node(self.store, self.store.deep_copy(self.nid))

    def is_ancestor_of(self, other: Node) -> bool:
        """True if this node is a (proper) ancestor of *other*."""
        if other.store is not self.store:
            return False
        for anc in self.store.ancestors(other.nid):
            if anc == self.nid:
                return True
        return False


class HeldNode(Node):
    """A host's handle: a :class:`Node` that keeps its call's pin alive."""

    __slots__ = ("_pin",)

    def __init__(self, store: Store, nid: int, pin: Pin | None):
        self.store = store
        self.nid = nid
        self._pin = pin


def held_ids(store, nids: tuple[int, ...]) -> list[Node]:
    """Host handles for *nids* of *store*, sharing one pin.  A snapshot
    or transaction view keeps its own records, so its handles need none."""
    if not nids or not isinstance(store, Store):
        return [Node(store, nid) for nid in nids]
    pin = store.hold(nids)
    return [HeldNode(store, nid, pin) for nid in nids]


def held_node(store, nid: int) -> Node:
    """The host handle for one node (see :func:`held_ids`)."""
    return held_ids(store, (nid,))[0]


_WALK_BATCH = 64


def held_walk(start: Node, nids: Iterator[int]) -> Iterator[Node]:
    """Host handles for the ids *nids* yields, made lazily: the ids are
    pinned a batch at a time as the host reads them, so a walk costs in
    proportion to what it reads, not to the tree.  Each id keeps its own
    pin count, as a handle must stay valid after a later statement moves
    its node to another tree.  The generator holds *start*, and with it
    *start*'s pin, while it walks."""
    store = start.store
    while True:
        batch = tuple(islice(nids, _WALK_BATCH))
        if not batch:
            return
        yield from held_ids(store, batch)


def held(items: list) -> list:
    """*items* for the host: every node of a live store not held already
    becomes a :class:`HeldNode`, all under one pin per store (results
    hold nodes of one store, so one pin).  A copy when any node was
    replaced, else *items* itself."""
    positions: dict[Store, list[int]] = {}
    for index, item in enumerate(items):
        if type(item) is Node and isinstance(item.store, Store):
            positions.setdefault(item.store, []).append(index)
    if not positions:
        return items
    out = list(items)
    for store, indexes in positions.items():
        pin = store.hold(tuple(out[index].nid for index in indexes))
        for index in indexes:
            out[index] = HeldNode(store, out[index].nid, pin)
    return out


def held_from_snapshot(items: Iterable, store: Store, snapshot) -> list:
    """Host handles for a snapshot read's result: a node below the
    snapshot's ceiling becomes a held handle into the live *store*; a
    snapshot-local node, or one the live store has reclaimed since the
    snapshot was taken, keeps its snapshot handle (whose view stays
    readable)."""
    out = list(items)
    local = snapshot._is_local
    indexes = [
        index for index, item in enumerate(out)
        if isinstance(item, Node) and not local(item.nid)
    ]
    if not indexes:
        return out
    pin, gone = store.hold_present([out[index].nid for index in indexes])
    for index in indexes:
        nid = out[index].nid
        if nid not in gone:
            out[index] = HeldNode(store, nid, pin)
    return out
