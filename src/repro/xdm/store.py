"""The node store of the XQuery! data model.

Section 3.2 of the paper defines the store as the structure that specifies,
"for each node id, its kind (element, attribute, text...), parent, name, and
content".  This module implements that structure together with the accessors
and constructors corresponding to the XDM, and the mutation primitives the
update-application layer (``repro.semantics.update``) is built on.

Design notes
------------

* Node ids are dense integers allocated by the store; a node's identity is
  its id.  Handles (:class:`repro.xdm.nodes.Node`) pair a store with an id.
* ``delete`` in XQuery! *detaches* (Section 3.1): the parent link is severed
  but the record survives, so detached subtrees remain queryable through
  whatever still refers to them.  A tree nothing refers to any more is
  garbage; :meth:`Store.reclaim` frees such trees when a statement ends
  and :meth:`Store.gc` frees every one, both under one root rule (see
  "Reclaiming unreachable nodes" in ``docs/internals.md``).
* Document order is structural: nodes are ordered by (root id, path of
  sibling positions), with attributes ordered after their owner element and
  before its children.  Distinct trees are ordered by root node id, which is
  stable (allocation order), satisfying XDM's "stable, total order".
"""

from __future__ import annotations

import enum
import itertools
import threading
from collections import deque
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from repro.concurrent.locks import RWLock
from repro.errors import StoreError, UpdateApplicationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.concurrent.snapshot import StoreSnapshot


class NodeKind(enum.Enum):
    """The seven XDM node kinds (we omit namespace nodes)."""

    DOCUMENT = "document"
    ELEMENT = "element"
    ATTRIBUTE = "attribute"
    TEXT = "text"
    COMMENT = "comment"
    PROCESSING_INSTRUCTION = "processing-instruction"


_HAS_CHILDREN = (NodeKind.DOCUMENT, NodeKind.ELEMENT)
_HAS_VALUE = (
    NodeKind.ATTRIBUTE,
    NodeKind.TEXT,
    NodeKind.COMMENT,
    NodeKind.PROCESSING_INSTRUCTION,
)


class _NodeRecord:
    """Mutable per-node state.  Internal to the store."""

    __slots__ = ("kind", "name", "parent", "children", "attributes", "value")

    def __init__(self, kind: NodeKind, name: str | None, value: str | None):
        self.kind = kind
        self.name = name
        self.parent: int | None = None
        # children: child node ids in document order (documents/elements).
        # attributes: attribute node ids, in stable insertion order.
        # Both start as the shared empty tuple (most records are leaves,
        # which never get either); the mutators that add an id put a
        # list in place on the first one.
        self.children: list[int] | tuple[()] = ()
        self.attributes: list[int] | tuple[()] = ()
        self.value = value


class Pin:
    """One host call's hold on the node ids it handed out.

    Every handle one call returns (a query result, a navigation
    property, a parse) shares one pin; when the last of them is gone the
    pin's finalizer queues the ids for release.  The finalizer may run
    in any thread and in the middle of anything, the collector
    included, so it only appends to a deque (atomic under the GIL); the
    counts themselves change under the store's pin lock, when the next
    pin or collection drains the queue.
    """

    __slots__ = ("store", "nids")

    def __init__(self, store: "Store", nids: tuple[int, ...]):
        self.store = store
        self.nids = nids

    def __del__(self) -> None:
        self.store._released.append(self.nids)


class UndoLog:
    """What one applied Δ changed (see :meth:`Store.begin_undo`).

    A pre-image consumer like a snapshot: it keeps the first pre-image
    :meth:`Store._cow` offers per id below the *watermark* (``_next_id``
    at the start of Δ).  Ids at or above it are Δ's own and are dropped
    on rollback; the log only tracks how high they reach (*top*).
    """

    __slots__ = ("watermark", "top", "saved")

    def __init__(self, watermark: int):
        self.watermark = watermark
        self.top = watermark
        # nid -> (name, parent, children, attributes, value) before Δ.
        self.saved: dict[int, tuple] = {}

    def _save_preimages(
        self, nids: Iterable[int], records: dict[int, "_NodeRecord"]
    ) -> None:
        saved = self.saved
        for nid in nids:
            if nid >= self.watermark:
                self.top = max(self.top, nid + 1)
            elif nid not in saved and nid in records:
                rec = records[nid]
                saved[nid] = (rec.name, rec.parent, tuple(rec.children),
                              tuple(rec.attributes), rec.value)


class Store:
    """A mutable XDM node store.

    All structural state lives here; nodes returned to user code are thin
    handles.  Every mutating method validates its preconditions and raises
    :class:`~repro.errors.UpdateApplicationError` on violation, mirroring the
    paper's "partial function from stores to stores".
    """

    def __init__(self) -> None:
        self._records: dict[int, _NodeRecord] = {}
        self._next_id = 0
        # Structural version: bumped by every mutation that can change
        # document order; order keys are cached against it.
        self._version = 0
        self._order_cache: dict[int, tuple] = {}
        # Secondary index over the order cache: tree root id -> the cached
        # node ids under it.  A structural mutation invalidates only the
        # mutated tree's keys (see _touch), so an insert into one tree no
        # longer destroys cached order keys for every other tree.
        self._cached_roots: dict[int, set[int]] = {}
        # Element-name index: name -> ids of elements bearing it, anywhere
        # in the store (live or detached).  Maintained on create/rename;
        # used by the descendant-axis fast path.
        self._name_index: dict[str, set[int]] = {}
        # Value indexes (attribute values, text tokens): empty with the
        # store, then maintained incrementally by _alloc and the mutators
        # below.  Deferred import — repro.index imports store symbols.
        from repro.index.manager import IndexManager

        self._indexes = IndexManager(self)
        # The manager's numeric columns (name -> column), dropped by the
        # mutators below whenever an element of that name could read a
        # different number() or stop being alone under its parent.  The
        # manager only ever changes this dict in place.
        self._columns = self._indexes.columns
        # Observability: cumulative counts a traced execution reports
        # the difference of (store.nodes_created / store.nodes_detached).
        self.nodes_created = 0
        self.nodes_detached = 0
        self.nodes_reclaimed = 0
        # Concurrency: the query-granularity reader-writer lock.  The
        # store itself does not take it — callers running queries
        # concurrently do (the ConcurrentExecutor holds the write side
        # for updating queries; see repro.concurrent).
        self.lock = RWLock()
        # Node-id allocation: next() on the C-level counter is atomic
        # under the GIL, so even unsupported concurrent constructors get
        # unique ids without a lock on the allocation hot path.
        # _next_id mirrors the watermark (every id below it is spoken
        # for) for snapshot ceilings and undo logs; it is exact under
        # the supported discipline, where allocation happens
        # single-threaded or under the store's write lock.
        self._id_counter = itertools.count()
        # Active copy-on-write snapshot views and undo logs; every
        # structural mutation offers them a pre-image first (see _cow).
        # Empty in the single-threaded, non-atomic case, where the
        # whole machinery costs one truthiness test per mutation.
        self._snapshots: list = []
        # Reclamation (see reclaim): host pins per node id, the pin
        # lock that guards them, pins whose handles are gone, ids whose
        # tree may have become unreachable, and the ids the caller held
        # at the last collection.
        self._pins: dict[int, int] = {}
        self._pin_lock = threading.Lock()
        self._released: deque = deque()
        self._candidates: set[int] = set()
        self._held_last: set[int] = set()
        # False for a store that mirrors another's journal (a replica
        # before promotion): the primary's root set — its host pins, its
        # open transactions — is not visible here, and a later record
        # may name a node this store would see as garbage.
        self.reclaims = True

    def _drop_columns(self, *names: str | None) -> None:
        """Drop the numeric columns of *names* (callers test
        ``self._columns`` first, so this runs only while one exists)."""
        for name in names:
            if name is not None:
                self._columns.pop(name, None)

    def _touch(self, *roots: int) -> None:
        """Invalidate cached order keys (and nothing else: the name and
        value indexes are kept in step by the mutators themselves).

        With explicit *roots* (the affected trees' **pre-mutation** root
        ids) only those trees' keys are dropped; mutators compute the
        roots before restructuring, since a mutation can change which tree
        a node belongs to.  With no arguments the whole cache is wiped
        (raw record installs, whole-table rebinds).
        """
        self._version += 1
        if not roots:
            self._order_cache.clear()
            self._cached_roots.clear()
            return
        for root in roots:
            nids = self._cached_roots.pop(root, None)
            if nids:
                for nid in nids:
                    self._order_cache.pop(nid, None)

    # ------------------------------------------------------------------
    # Copy-on-write snapshots (repro.concurrent)
    # ------------------------------------------------------------------

    def _cow(self, *nids: int) -> None:
        """Offer pre-images of *nids* to every snapshot and undo log.

        Called by every structural mutator **before** it changes a
        record, so a snapshot always captures the state the record had
        when the snapshot was taken (first offer wins; later offers of an
        already-saved record are ignored by the snapshot).  Moving
        attributes to another index key offers them too (see
        :meth:`IndexManager.on_move`).
        """
        # tuple(): GIL-atomic copy — release_snapshot may run from a
        # reader thread mid-iteration; a just-released snapshot may still
        # receive an offer (harmless), an active one is never skipped.
        for snapshot in tuple(self._snapshots):
            snapshot._save_preimages(nids, self._records)

    def begin_snapshot(self) -> "StoreSnapshot":
        """Open a frozen read view of the store's current state.

        Creation is O(1): nothing is copied up front.  Mutations that
        follow pay one pre-image copy per mutated record per active
        snapshot.  Callers should :meth:`release_snapshot` when done so
        later mutations stop paying for it.
        """
        from repro.concurrent.snapshot import StoreSnapshot

        snapshot = StoreSnapshot(
            store=self,
            records=self._records,
            ceiling=self._next_id,
            version=self._version,
        )
        self._snapshots.append(snapshot)
        return snapshot

    def release_snapshot(self, snapshot: "StoreSnapshot | UndoLog") -> None:
        """Stop feeding pre-images to *snapshot* (idempotent).

        The snapshot remains readable — whatever it has already captured
        stays valid — but mutations after release are free again."""
        try:
            self._snapshots.remove(snapshot)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Constructors (XDM constructor functions)
    # ------------------------------------------------------------------

    def _reset_ids(self, next_id: int) -> None:
        """Re-seed id allocation (rollback / persistence load)."""
        self._next_id = next_id
        self._id_counter = itertools.count(next_id)

    def _alloc(
        self,
        kind: NodeKind,
        name: str | None,
        value: str | None,
        parent: int | None = None,
    ) -> int:
        """A new record; *parent* links it upward only (a deep copy's
        node, which its parent lists once the copy wires it)."""
        nid = next(self._id_counter)
        self._next_id = nid + 1
        rec = self._records[nid] = _NodeRecord(kind, name, value)
        rec.parent = parent
        if kind is NodeKind.ELEMENT and name:
            # Every element enters the name index at birth — including
            # deep-copy clones, which do not go through create_element.
            self._name_index.setdefault(name, set()).add(nid)
            if self._columns:
                # A deep copy gives the new element its children without
                # a mutator, so its name's column goes at birth.
                self._drop_columns(name)
        self._indexes.on_alloc(nid, kind, name, value, parent)
        self.nodes_created += 1
        return nid

    def create_document(self) -> int:
        """Allocate a new, empty document node and return its id."""
        return self._alloc(NodeKind.DOCUMENT, None, None)

    def create_element(self, name: str) -> int:
        """Allocate a new parentless element node named *name*."""
        if not name:
            raise StoreError("element name must be non-empty")
        return self._alloc(NodeKind.ELEMENT, name, None)

    def create_attribute(self, name: str, value: str) -> int:
        """Allocate a new parentless attribute node."""
        if not name:
            raise StoreError("attribute name must be non-empty")
        return self._alloc(NodeKind.ATTRIBUTE, name, value)

    def create_text(self, value: str) -> int:
        """Allocate a new parentless text node."""
        return self._alloc(NodeKind.TEXT, None, value)

    def create_comment(self, value: str) -> int:
        """Allocate a new parentless comment node."""
        return self._alloc(NodeKind.COMMENT, None, value)

    def create_processing_instruction(self, target: str, value: str) -> int:
        """Allocate a new parentless processing-instruction node."""
        return self._alloc(NodeKind.PROCESSING_INSTRUCTION, target, value)

    # ------------------------------------------------------------------
    # Accessors (XDM accessor functions)
    # ------------------------------------------------------------------

    def _rec(self, nid: int) -> _NodeRecord:
        try:
            return self._records[nid]
        except KeyError:
            raise StoreError(f"unknown node id {nid}") from None

    def __contains__(self, nid: int) -> bool:
        return nid in self._records

    def __len__(self) -> int:
        """Number of live records (including detached ones)."""
        return len(self._records)

    def kind(self, nid: int) -> NodeKind:
        """Return the node kind of *nid*."""
        return self._rec(nid).kind

    def name(self, nid: int) -> str | None:
        """Return the node name (element/attribute name, PI target)."""
        return self._rec(nid).name

    def parent(self, nid: int) -> int | None:
        """Return the parent node id, or None for parentless nodes."""
        return self._rec(nid).parent

    def children(self, nid: int) -> tuple[int, ...]:
        """Return the child node ids in document order."""
        return tuple(self._rec(nid).children)

    def child_count(self, nid: int) -> int:
        """Number of children of *nid*, without copying the child list."""
        return len(self._rec(nid).children)

    def count_named(self, name: str) -> int:
        """How many elements named *name* the live store holds, in every
        tree (detached ones too), without copying the name index."""
        return len(self._name_index.get(name, ()))

    def children_named(self, nid: int, name: str) -> list[int]:
        """Ids of the element children of *nid* named *name*, in order."""
        rec = self._rec
        return [
            child for child in rec(nid).children
            if (record := rec(child)).kind is NodeKind.ELEMENT
            and record.name == name
        ]

    def attributes(self, nid: int) -> tuple[int, ...]:
        """Return the attribute node ids of an element, in stable order."""
        return tuple(self._rec(nid).attributes)

    def value(self, nid: int) -> str | None:
        """Return the content string of a text/attribute/comment/PI node."""
        return self._rec(nid).value

    def string_value(self, nid: int) -> str:
        """The XDM string-value accessor.

        For documents and elements this is the concatenation of the string
        values of all descendant text nodes, in document order.
        """
        rec = self._rec(nid)
        if rec.kind in _HAS_VALUE:
            return rec.value or ""
        parts: list[str] = []
        stack = list(reversed(rec.children))
        while stack:
            cur = self._rec(stack.pop())
            if cur.kind is NodeKind.TEXT:
                parts.append(cur.value or "")
            elif cur.kind in _HAS_CHILDREN:
                stack.extend(reversed(cur.children))
        return "".join(parts)

    def attribute_named(self, nid: int, name: str) -> int | None:
        """Return the id of the attribute named *name* on element *nid*."""
        rec = self._rec(nid)
        for aid in rec.attributes:
            if self._rec(aid).name == name:
                return aid
        return None

    def root(self, nid: int) -> int:
        """Return the id of the root of the tree containing *nid*."""
        cur = nid
        while True:
            parent = self._rec(cur).parent
            if parent is None:
                return cur
            cur = parent

    def descendants_named(self, nid: int, name: str) -> list[int]:
        """Element descendants of *nid* named *name*, via the name index.

        Returns ids in arbitrary order (callers sort into document order).
        Equivalent to filtering :meth:`descendants` by name, but touches
        only index candidates — O(candidates × depth) instead of
        O(subtree) — which wins on selective names in large trees.
        """
        candidates = self._name_index.get(name)
        if not candidates:
            return []
        out = []
        # tuple() takes a GIL-atomic copy: concurrent element construction
        # may add to the index set while a snapshot-less reader iterates.
        for candidate in tuple(candidates):
            if candidate == nid:
                continue
            cur = self._records[candidate].parent
            while cur is not None:
                if cur == nid:
                    out.append(candidate)
                    break
                cur = self._records[cur].parent
        return out

    @property
    def indexes(self):
        """The store's value-index manager (see :mod:`repro.index`)."""
        return self._indexes

    def attr_eq_probe(
        self,
        name: str,
        value: str,
        limit: int | None = None,
        path: tuple = (),
    ) -> tuple[int, ...] | None:
        """Ids of attribute nodes bearing ``name="value"``, store-wide,
        narrowed by *path*: ``(owner,)`` keeps those owned by an element
        named *owner*, ``(owner, parent)`` also needs the owner's parent
        named *parent* (None: a document, or no parent).

        Exact on content and names; callers re-check attachment
        (containment) because the index also lists detached attributes
        and other trees.  None when more than *limit* nodes qualify: a
        caller that could scan *limit* nodes instead scans.
        """
        return self._indexes.attr_probe(name, value, limit, path)

    def token_probe(self, needle: str) -> tuple[int, ...] | None:
        """Candidate text-node ids for a ``contains`` search (superset;
        callers verify).  None when the needle cannot use the index."""
        return self._indexes.token_probe(needle)

    def text_eq_probe(self, target: str) -> tuple[int, ...] | None:
        """Candidate text-node ids for a string value equal to *target*
        (superset; callers verify).  None when the target cannot use
        the index."""
        return self._indexes.text_eq_probe(target)

    def numeric_range_probe(
        self,
        name: str,
        bounds: list[tuple[str, float]],
        limit: int | None = None,
    ) -> tuple[int, ...] | None:
        """Ids of the elements named *name* whose ``number()`` meets
        every ``(op, double)`` bound, store-wide (callers re-check
        attachment); None when the scan could raise or match an element
        the numeric column lacks, or more than *limit* match."""
        return self._indexes.numeric_range_probe(name, bounds, limit)

    def descendants(self, nid: int, include_self: bool = False) -> Iterator[int]:
        """Yield descendant node ids in document order.

        Attributes are *not* descendants (XPath axis semantics).
        """
        if include_self:
            yield nid
        stack = list(reversed(self._rec(nid).children))
        while stack:
            cur = stack.pop()
            yield cur
            rec = self._rec(cur)
            if rec.kind in _HAS_CHILDREN:
                stack.extend(reversed(rec.children))

    def ancestors(self, nid: int, include_self: bool = False) -> Iterator[int]:
        """Yield ancestor node ids, nearest first."""
        if include_self:
            yield nid
        cur = self._rec(nid).parent
        while cur is not None:
            yield cur
            cur = self._rec(cur).parent

    def size(self, nid: int) -> int:
        """Number of nodes in the subtree rooted at *nid* (incl. attrs)."""
        total = 0
        stack = [nid]
        while stack:
            current = self._rec(stack.pop())
            total += 1 + len(current.attributes)
            stack.extend(current.children)
        return total

    # ------------------------------------------------------------------
    # Document order
    # ------------------------------------------------------------------

    def order_key(self, nid: int) -> tuple:
        """A sortable key realizing document order.

        The key is ``(root_id, pos_0, pos_1, ...)`` where ``pos_i`` is the
        child index at depth ``i``; attribute nodes sort between their owner
        element and its first child via a ``-1`` marker component.  Keys are
        cached; any structural mutation invalidates the cache.
        """
        cached = self._order_cache.get(nid)
        if cached is not None:
            return cached
        rec = self._rec(nid)
        parent = rec.parent
        if parent is None:
            key: tuple = (nid, ())
        else:
            prec = self._rec(parent)
            if rec.kind is NodeKind.ATTRIBUTE:
                # (-1, k): after the element's own key, before child (0, _).
                mine = (-1, prec.attributes.index(nid))
            else:
                mine = (0, prec.children.index(nid))
            root, path = self.order_key(parent)
            key = (root, path + (mine,))
        self._order_cache[nid] = key
        self._cached_roots.setdefault(key[0], set()).add(nid)
        return key

    def compare_order(self, a: int, b: int) -> int:
        """Return -1/0/1 as *a* precedes/equals/follows *b* in doc order."""
        ka, kb = self.order_key(a), self.order_key(b)
        if ka == kb:
            return 0
        # An ancestor's key is a strict prefix of its descendants' keys and
        # tuple comparison already places prefixes first, but the attribute
        # marker (-1) must sort *before* child entries (0); Python tuple
        # comparison of (-1, i) < (0, j) gives exactly that.
        return -1 if ka < kb else 1

    def sort_document_order(self, nids: Iterable[int]) -> list[int]:
        """Sort node ids into document order, removing duplicates."""
        return sorted(set(nids), key=self.order_key)

    # ------------------------------------------------------------------
    # Mutators (used by update application and node construction)
    # ------------------------------------------------------------------

    def _check_can_parent(self, parent: int) -> _NodeRecord:
        rec = self._rec(parent)
        if rec.kind not in _HAS_CHILDREN:
            raise UpdateApplicationError(
                f"cannot insert children into a {rec.kind.value} node"
            )
        return rec

    def _check_insertable(self, nid: int) -> _NodeRecord:
        rec = self._rec(nid)
        if rec.parent is not None:
            raise UpdateApplicationError(
                f"node {nid} already has a parent; insert requires a "
                "parentless node (the normalization copy rule guarantees "
                "this for well-formed programs)"
            )
        if rec.kind is NodeKind.DOCUMENT:
            raise UpdateApplicationError("cannot insert a document node")
        return rec

    def append_child(self, parent: int, child: int) -> None:
        """Attach parentless *child* as the last child of *parent*."""
        prec = self._check_can_parent(parent)
        crec = self._check_insertable(child)
        if crec.kind is NodeKind.ATTRIBUTE:
            raise UpdateApplicationError(
                "attribute nodes must be attached with set_attribute"
            )
        if crec.children or parent == child:
            self._check_no_cycle(parent, child)
        if self._snapshots:
            self._cow(parent, child)
        if self._columns:
            self._drop_columns(prec.name, crec.name)
        if prec.children:
            prec.children.append(child)
        else:
            prec.children = [child]
        crec.parent = parent
        if crec.attributes:
            self._indexes.on_move(
                crec.attributes, (crec.name, None), (crec.name, prec.name)
            )
        # Appending as last child shifts no existing sibling position, so
        # only the attached subtree's keys (cached under root == child,
        # since the child was parentless) go stale.
        self._touch(child)

    def insert_child_at(self, parent: int, index: int, child: int) -> None:
        """Attach parentless *child* at position *index* among children."""
        prec = self._check_can_parent(parent)
        crec = self._check_insertable(child)
        if crec.kind is NodeKind.ATTRIBUTE:
            raise UpdateApplicationError(
                "attribute nodes must be attached with set_attribute"
            )
        if not 0 <= index <= len(prec.children):
            raise UpdateApplicationError(
                f"insert position {index} out of range for node {parent}"
            )
        if crec.children or parent == child:
            self._check_no_cycle(parent, child)
        if index == len(prec.children):
            # Equivalent to append: no sibling shifts.
            roots: tuple[int, ...] = (child,)
        else:
            # Inserting mid-list shifts every following sibling (and its
            # descendants), so the whole target tree goes stale too.
            roots = (self.root(parent), child)
        if self._snapshots:
            self._cow(parent, child)
        if self._columns:
            self._drop_columns(prec.name, crec.name)
        if prec.children:
            prec.children.insert(index, child)
        else:
            prec.children = [child]
        crec.parent = parent
        if crec.attributes:
            self._indexes.on_move(
                crec.attributes, (crec.name, None), (crec.name, prec.name)
            )
        self._touch(*roots)

    def insert_after(self, parent: int, anchor: int, child: int) -> None:
        """Attach *child* immediately after sibling *anchor*.

        Precondition (paper Section 3.2): *anchor* must be a child of
        *parent*.
        """
        prec = self._check_can_parent(parent)
        try:
            idx = prec.children.index(anchor)
        except ValueError:
            raise UpdateApplicationError(
                f"anchor node {anchor} is not a child of {parent}"
            ) from None
        self.insert_child_at(parent, idx + 1, child)

    def insert_before(self, parent: int, anchor: int, child: int) -> None:
        """Attach *child* immediately before sibling *anchor*."""
        prec = self._check_can_parent(parent)
        try:
            idx = prec.children.index(anchor)
        except ValueError:
            raise UpdateApplicationError(
                f"anchor node {anchor} is not a child of {parent}"
            ) from None
        self.insert_child_at(parent, idx, child)

    def set_attribute(self, element: int, attr: int) -> None:
        """Attach parentless attribute node *attr* to *element*.

        Replaces any existing attribute with the same name (the replaced
        attribute is detached, per the detach philosophy).
        """
        erec = self._rec(element)
        if erec.kind is not NodeKind.ELEMENT:
            raise UpdateApplicationError("attributes can only go on elements")
        arec = self._rec(attr)
        if arec.kind is not NodeKind.ATTRIBUTE:
            raise UpdateApplicationError(f"node {attr} is not an attribute")
        if arec.parent is not None:
            raise UpdateApplicationError(
                f"attribute {attr} already belongs to element {arec.parent}"
            )
        existing = self.attribute_named(element, arec.name or "")
        if existing is not None:
            self.detach(existing)
        if self._snapshots:
            self._cow(element, attr)
        if erec.attributes:
            erec.attributes.append(attr)
        else:
            erec.attributes = [attr]
        arec.parent = element
        self._indexes.on_move(
            (attr,), (None, None),
            (erec.name, self._records[erec.parent].name
             if erec.parent is not None else None),
        )
        # Appending to the attribute list shifts nothing; only the
        # (parentless) attribute's own cached key goes stale.
        self._touch(attr)

    def add_attribute(self, element: int, name: str, value: str) -> int:
        """Allocate an attribute on *element*, which has none named
        *name* (the parser's path): the attribute is born attached, so
        its index posting is keyed once.  Returns its id."""
        erec = self._rec(element)
        if erec.kind is not NodeKind.ELEMENT:
            raise UpdateApplicationError("attributes can only go on elements")
        if not name:
            raise StoreError("attribute name must be non-empty")
        attr = self._alloc(NodeKind.ATTRIBUTE, name, value, element)
        if self._snapshots:
            self._cow(element)
        if erec.attributes:
            erec.attributes.append(attr)
        else:
            erec.attributes = [attr]
        self._touch(attr)
        return attr

    def detach(self, nid: int) -> None:
        """Sever the parent link of *nid* (the paper's delete semantics).

        The node and its subtree stay live in the store and remain fully
        queryable through any variable still holding them (Section 3.1).
        Detaching an already-parentless node is a no-op, matching the
        tolerant reading of repeated deletes.
        """
        rec = self._rec(nid)
        parent = rec.parent
        if parent is None:
            return
        self.nodes_detached += 1
        # Removal shifts following siblings and reroots the detached
        # subtree, so the whole (pre-mutation) containing tree goes stale.
        tree_root = self.root(nid)
        if self._snapshots:
            self._cow(nid, parent)
        prec = self._rec(parent)
        if self._columns:
            self._drop_columns(prec.name, rec.name)
        if rec.kind is NodeKind.ATTRIBUTE:
            siblings = prec.attributes
            grand = prec.parent
            self._indexes.on_move(
                (nid,),
                (prec.name,
                 self._records[grand].name if grand is not None else None),
                (None, None),
            )
        else:
            siblings = prec.children
            if rec.attributes:
                self._indexes.on_move(
                    rec.attributes, (rec.name, prec.name), (rec.name, None)
                )
        # It lists nid, so it is a list, not the shared empty tuple.
        assert isinstance(siblings, list)
        siblings.remove(nid)
        rec.parent = None
        # Both halves may now be unreachable: the detached subtree, and
        # the tree it left if only the subtree was held.
        self._candidates.add(nid)
        self._candidates.add(tree_root)
        self._touch(tree_root)

    def rename(self, nid: int, name: str) -> None:
        """Change the node name of an element, attribute or PI."""
        rec = self._rec(nid)
        if rec.kind not in (
            NodeKind.ELEMENT,
            NodeKind.ATTRIBUTE,
            NodeKind.PROCESSING_INSTRUCTION,
        ):
            raise UpdateApplicationError(
                f"cannot rename a {rec.kind.value} node"
            )
        if not name:
            raise UpdateApplicationError("new name must be non-empty")
        if (
            rec.kind is NodeKind.ATTRIBUTE
            and rec.parent is not None
            and rec.name != name
            and self.attribute_named(rec.parent, name) is not None
        ):
            # Attribute names are unique per element (check_invariants).
            raise UpdateApplicationError(
                f"element {rec.parent} already has an attribute {name!r}",
                code="XUDY0021",
            )
        if self._snapshots:
            self._cow(nid)
        if self._columns:
            self._drop_columns(rec.name, name)
        if rec.kind is NodeKind.ELEMENT and rec.name != name:
            self._name_index.get(rec.name, set()).discard(nid)
            self._name_index.setdefault(name, set()).add(nid)
        self._indexes.on_rename(nid, rec, name)
        rec.name = name
        self._version += 1

    def set_value(self, nid: int, value: str) -> None:
        """Replace the content of a text/attribute/comment/PI node."""
        rec = self._rec(nid)
        if rec.kind not in _HAS_VALUE:
            raise UpdateApplicationError(
                f"cannot set the value of a {rec.kind.value} node"
            )
        if self._snapshots:
            self._cow(nid)
        if self._columns and rec.parent is not None:
            self._drop_columns(self._records[rec.parent].name)
        self._indexes.on_set_value(nid, rec, value)
        rec.value = value
        self._version += 1

    def _check_no_cycle(self, parent: int, child: int) -> None:
        # Inserting a node above itself would create a cycle.  Since the
        # inserted node must be parentless, a cycle can only arise if
        # `parent` is inside the subtree of `child` (so callers skip the
        # walk for a childless child other than `parent`: the parser
        # attaches every element before its content).
        cur: int | None = parent
        while cur is not None:
            if cur == child:
                raise UpdateApplicationError(
                    "insert would create a cycle (target is a descendant "
                    "of the inserted node)"
                )
            cur = self._rec(cur).parent

    # ------------------------------------------------------------------
    # Deep copy (the `copy { ... }` operator and the normalization rule)
    # ------------------------------------------------------------------

    def deep_copy(self, nid: int) -> int:
        """Copy the subtree rooted at *nid*; the copy is parentless.

        Implements the ``deepcopy(store, node)`` data-model operation of
        Fig. 2: new node ids are allocated for every node in the subtree.
        Iterative, so arbitrarily deep trees copy without hitting the
        Python recursion limit.
        """
        root_rec = self._rec(nid)
        root_copy = self._alloc(root_rec.kind, root_rec.name, root_rec.value)
        # Work stack of (source id, copied id) pairs whose attributes and
        # children still need copying.
        stack = [(nid, root_copy)]
        while stack:
            source, copied = stack.pop()
            source_rec = self._rec(source)
            copied_rec = self._rec(copied)
            attributes: list[int] = []
            for aid in source_rec.attributes:
                arec = self._rec(aid)
                attributes.append(
                    self._alloc(arec.kind, arec.name, arec.value, copied)
                )
            children: list[int] = []
            for cid in source_rec.children:
                crec = self._rec(cid)
                ccopy = self._alloc(crec.kind, crec.name, crec.value, copied)
                children.append(ccopy)
                stack.append((cid, ccopy))
            # Leaves keep the shared empty tuple they were born with.
            if attributes:
                copied_rec.attributes = attributes
            if children:
                copied_rec.children = children
        return root_copy

    # ------------------------------------------------------------------
    # Reclaiming unreachable trees
    #
    # A tree is reachable while one of its nodes is in the root set: the
    # ids the caller holds (the engine's fn:doc catalog and global
    # bindings), the ids a host handle pins, and — while a transaction
    # is open — every id older than its view, which its session globals
    # and buffered Δ may name.  A tree none of whose nodes is, nothing
    # can reach again: the paper's "garbage collection of persistent but
    # unreachable nodes" (Section 4.1).
    # ------------------------------------------------------------------

    def hold(self, nids: tuple[int, ...]) -> Pin:
        """Pin *nids* for host handles; they stay in the root set until
        the returned pin is gone."""
        with self._pin_lock:
            self._unpin_released()
            pins = self._pins
            for nid in nids:
                pins[nid] = pins.get(nid, 0) + 1
        return Pin(self, nids)

    def hold_present(self, nids: list[int]) -> tuple[Pin | None, set[int]]:
        """Pin those of *nids* the store still has; returns the pin (None
        when it has none of them) and the ids already reclaimed.  The
        check and the pin share one hold of the pin lock, so a
        collection in another thread cannot free an id in between."""
        present = []
        gone = set()
        with self._pin_lock:
            self._unpin_released()
            records = self._records
            pins = self._pins
            for nid in nids:
                if nid in records:
                    pins[nid] = pins.get(nid, 0) + 1
                    present.append(nid)
                else:
                    gone.add(nid)
        return (Pin(self, tuple(present)) if present else None), gone

    def _unpin_released(self) -> None:
        """Take the ids of finalized pins off their counts (the caller
        holds the pin lock); an id whose count reaches 0 becomes a
        candidate.  Every new pin does this first, so under read-only
        traffic, where no statement ends, the queue stays as short as
        the pins finalized since the last one."""
        released = self._released
        pins = self._pins
        candidates = self._candidates
        while released:
            for nid in released.popleft():
                left = pins.get(nid, 0) - 1
                if left > 0:
                    pins[nid] = left
                else:
                    pins.pop(nid, None)
                    candidates.add(nid)

    def reclaim(self, held: set[int], since: int | None = None) -> int:
        """Free every candidate tree no node of which is in the root set
        (*held* plus pins and open transactions); the statement-end
        collection.  Returns the number of records freed.

        The candidates are the trees that may have become unreachable
        since the last collection, so the cost follows them, not the
        store: subtrees :meth:`detach` cut off and the trees they left,
        ids whose last pin went away, ids held last time but not now
        (a rebound global), and the parentless ids allocated at or above
        *since* (the statements' construction).  A tree kept only for an
        open transaction stays a candidate for the next collection.  The
        caller must let no statement run on the store meanwhile: a tree
        one is still building looks unreachable.
        """
        candidates = self._candidates
        if held != self._held_last:
            candidates.update(self._held_last.difference(held))
            self._held_last = held
        if since is not None:
            records = self._records
            for nid in range(since, self._next_id):
                rec = records.get(nid)
                if rec is not None and rec.parent is None:
                    candidates.add(nid)
        if not candidates and not self._released:
            return 0
        return self._collect(held, everything=False)

    def gc(self, live_roots: Iterable[int]) -> int:
        """:meth:`reclaim` with every tree a candidate: drop every tree
        no node of which is in *live_roots*, pinned, or visible to an
        open transaction.  Returns the number of records freed."""
        return self._collect(set(live_roots), everything=True)

    def _collect(self, held: set[int], everything: bool) -> int:
        records = self._records
        pins = self._pins
        candidates = self._candidates
        with self._pin_lock:
            self._unpin_released()
            if not self.reclaims:
                candidates.clear()
                return 0
            if everything:
                roots = {
                    nid for nid, rec in records.items() if rec.parent is None
                }
            elif candidates:
                roots = set()
                for nid in candidates:
                    rec = records.get(nid)
                    if rec is None:
                        continue  # freed already
                    while rec.parent is not None:
                        nid = rec.parent
                        rec = records[nid]
                    roots.add(nid)
            else:
                return 0
            candidates.clear()
            # An open transaction's view reads every id below its
            # ceiling, and commit replays its Δ against them.
            floor = min(
                (view.ceiling for view in self._snapshots
                 if getattr(view, "holds_base", False)),
                default=-1,
            ) if self._snapshots else -1
            dead: list[int] = []
            for root in roots:
                if root in held or root in pins:
                    continue
                tree: list[int] = []
                stack = [root]
                kept = old = False
                while stack:
                    nid = stack.pop()
                    if nid in held or nid in pins:
                        kept = True
                        break
                    if nid < floor:
                        old = True
                    tree.append(nid)
                    rec = records[nid]
                    if rec.children:
                        stack.extend(rec.children)
                    if rec.attributes:
                        stack.extend(rec.attributes)
                if kept:
                    continue
                if old:
                    candidates.add(root)
                    continue
                dead.extend(tree)
            if dead:
                if self._columns:
                    # Whole trees go, so only their elements' names'
                    # columns can change.
                    self._drop_columns(*{
                        records[nid].name for nid in dead
                        if records[nid].kind is NodeKind.ELEMENT
                    })
                self._drop(dead)
                self.nodes_reclaimed += len(dead)
                # Snapshot bundles and their result caches key on it.
                self._version += 1
        return len(dead)

    # ------------------------------------------------------------------
    # Raw record rows (replay, reload)
    #
    # The constructors cannot express arbitrary ids, so journal replay,
    # transaction commit and persistence load install whole records.
    # A row is ``(nid, kind, name, parent, children, attributes,
    # value)``, *kind* a NodeKind or its string value.  These methods
    # and the undo rollback are the only writers of the record table
    # besides the mutators above, and keep the name and value indexes
    # in step.
    # ------------------------------------------------------------------

    def _put(self, nid, kind, name, parent, children, attributes, value):
        if self._columns:
            self._columns.clear()
        rec = _NodeRecord(NodeKind(kind), name, value)
        rec.parent = parent
        if children:
            rec.children = list(children)
        if attributes:
            rec.attributes = list(attributes)
        self._records[nid] = rec
        if rec.kind is NodeKind.ELEMENT and name:
            self._name_index.setdefault(name, set()).add(nid)
        return rec

    def install_rows(self, rows: Iterable) -> int:
        """Install *rows* whose ids the store does not hold yet.

        Rows for ids already present are skipped: a node's links only
        ever change through update primitives, so an existing record is
        already at the state the row captured.  Each new record gets its
        postings exactly as an allocation would.  Returns the number of
        records created.
        """
        created = 0
        attributes = []
        for row in rows:
            nid = row[0]
            if nid in self._records:
                continue
            if self._snapshots:
                # No pre-image to give, but an undo log learns how high
                # the ids it must drop on rollback reach.
                self._cow(nid)
            rec = self._put(*row)
            if rec.kind is NodeKind.ATTRIBUTE:
                # Rows come in any order: key it once its owner is in.
                attributes.append(nid)
            else:
                self._indexes.on_alloc(nid, rec.kind, rec.name, rec.value)
            created += 1
        if attributes:
            self._indexes.index_attrs(attributes)
        if created:
            self._touch()
        return created

    def drop_records(self, nids: Iterable[int]) -> None:
        """Remove the records of *nids* outright, postings included
        (discarding scratch allocations); drops every numeric column."""
        if self._columns:
            self._columns.clear()
        self._drop(list(nids))

    def _drop(self, nids: list[int]) -> None:
        records = self._records
        if self._snapshots:
            self._cow(*nids)
        # Postings first, while every record a key names is still here.
        for nid in nids:
            self._indexes.on_free(nid, records[nid])
        for nid in nids:
            rec = records[nid]
            if rec.kind is NodeKind.ELEMENT and rec.name:
                self._name_index.get(rec.name, set()).discard(nid)
            del records[nid]
            key = self._order_cache.pop(nid, None)
            if key is not None:
                cached = self._cached_roots.get(key[0])
                if cached is not None:
                    cached.discard(nid)
                    if not cached:
                        del self._cached_roots[key[0]]

    def load_rows(self, rows: Iterable, next_id: int) -> None:
        """Replace the whole record table with *rows* (persistence load)
        and re-seed allocation at *next_id*.

        The record table and both indexes are *rebound*, never cleared in
        place, so every active snapshot keeps the frozen set it captured;
        they are detached, since pre-images from the new table would
        describe a different world.  The name index is filled as rows go
        in, the value indexes in one rebuild afterwards.
        """
        for snapshot in self._snapshots:
            snapshot._detached = True
        self._snapshots = []
        self._records = {}
        self._name_index = {}
        for row in rows:
            self._put(*row)
        self._reset_ids(next_id)
        self._indexes.ensure_built()
        self._touch()

    # ------------------------------------------------------------------
    # Undo logs (failure atomicity for snap)
    # ------------------------------------------------------------------

    def begin_undo(self) -> UndoLog:
        """Start recording what the mutations that follow change, so a
        Δ that fails mid-application can be un-applied with
        :meth:`rollback_undo` (snap as a failure-containment boundary,
        which the paper's full version proposes).  Costs one pre-image
        per record touched; callers :meth:`end_undo` on every exit."""
        log = UndoLog(self._next_id)
        self._snapshots.append(log)
        return log

    def end_undo(self, log: UndoLog) -> None:
        """Stop recording into *log* (idempotent)."""
        self.release_snapshot(log)

    def rollback_undo(self, log: UndoLog) -> None:
        """Put the store back exactly as it was at :meth:`begin_undo`.

        Records created since are dropped, every logged record gets its
        pre-image back in place (postings moved where name or value
        differ), allocation resumes at the watermark.  The table is not
        rebound: indexes are repaired, not rebuilt, and open snapshots
        stay attached (offered the pre-images first, as for any
        mutation)."""
        self.end_undo(log)
        if self._columns:
            self._columns.clear()
        records = self._records
        top = max(self._next_id, log.top)
        self.drop_records(
            [nid for nid in range(log.watermark, top) if nid in records]
        )
        saved = log.saved
        # Every attribute whose key a logged record is part of: the
        # logged attributes and the current attributes of logged
        # elements and of their element children.  (An attribute that
        # changed owner, or an owner that changed parent, was logged
        # itself.)  The keys come out before the pre-images go in,
        # whichever path they carry, and go back in computed afresh.
        moved = set()
        for nid in saved:
            rec = records[nid]
            if rec.kind is NodeKind.ATTRIBUTE:
                moved.add(nid)
                continue
            moved.update(rec.attributes)
            for cid in rec.children:
                child = records.get(cid)
                if child is not None:
                    moved.update(child.attributes)
        moved.intersection_update(records)  # Δ's own ones are gone
        if self._snapshots and saved:
            self._cow(*saved, *moved)
        self._indexes.unindex_attrs(moved)
        for nid, (name, parent, children, attributes, value) in saved.items():
            rec = records[nid]
            if rec.name != name or rec.value != value:
                if rec.kind is NodeKind.ELEMENT:
                    self._name_index.get(rec.name, set()).discard(nid)
                    self._name_index.setdefault(name, set()).add(nid)
                if rec.kind is not NodeKind.ATTRIBUTE:
                    self._indexes.on_free(nid, rec)
                    self._indexes.on_alloc(nid, rec.kind, name, value)
                rec.name = name
                rec.value = value
            rec.parent = parent
            rec.children = list(children)
            rec.attributes = list(attributes)
        self._indexes.index_attrs(moved)
        self._reset_ids(log.watermark)
        self._touch()

    # ------------------------------------------------------------------
    # Introspection / debugging helpers
    # ------------------------------------------------------------------

    def node_ids(self) -> tuple[int, ...]:
        """All live node ids (mainly for tests and invariant checks)."""
        return tuple(self._records)

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property-based tests.

        * every child's parent pointer names the node listing it,
        * no node is listed as a child twice,
        * attribute names are unique per element,
        * parent chains are acyclic,
        * every cached order key matches a fresh recomputation (the scoped
          invalidation of ``_touch`` never leaves a stale key behind).
        """
        seen_child_of: dict[int, int] = {}
        for nid, rec in self._records.items():
            for cid in rec.children:
                crec = self._rec(cid)
                if crec.parent != nid:
                    raise StoreError(
                        f"child {cid} of {nid} has parent {crec.parent}"
                    )
                if cid in seen_child_of:
                    raise StoreError(f"node {cid} has two parents")
                seen_child_of[cid] = nid
            names = [self._rec(aid).name for aid in rec.attributes]
            if len(names) != len(set(names)):
                raise StoreError(f"duplicate attribute names on {nid}")
            for aid in rec.attributes:
                if self._rec(aid).parent != nid:
                    raise StoreError(f"attribute {aid} parent mismatch")
        for nid in self._records:
            slow: int | None = nid
            seen: set[int] = set()
            while slow is not None:
                if slow in seen:
                    raise StoreError(f"parent cycle through {nid}")
                seen.add(slow)
                slow = self._rec(slow).parent
        # Name index: exactly the live elements, under their current name.
        indexed = {
            nid for ids in self._name_index.values() for nid in ids
        }
        elements = {
            nid
            for nid, rec in self._records.items()
            if rec.kind is NodeKind.ELEMENT
        }
        if indexed != elements:
            raise StoreError(
                "name index out of sync: "
                f"{sorted(indexed ^ elements)} differ"
            )
        for name, ids in self._name_index.items():
            for nid in ids:
                if self._rec(nid).name != name:
                    raise StoreError(
                        f"node {nid} indexed under {name!r} but named "
                        f"{self._rec(nid).name!r}"
                    )
        # Value indexes: the incrementally maintained postings must agree
        # exactly with a from-scratch rebuild.
        self._indexes.verify()
        # Order cache: no stale keys, and the root index mirrors the cache.
        for nid, key in self._order_cache.items():
            if nid not in self._records:
                raise StoreError(f"order key cached for dead node {nid}")
            if key != self._fresh_order_key(nid):
                raise StoreError(
                    f"stale cached order key for node {nid}: {key} != "
                    f"{self._fresh_order_key(nid)}"
                )
            if nid not in self._cached_roots.get(key[0], ()):
                raise StoreError(
                    f"cached order key for {nid} missing from the root "
                    f"index under {key[0]}"
                )
        for root, nids in self._cached_roots.items():
            for nid in nids:
                cached = self._order_cache.get(nid)
                if cached is None or cached[0] != root:
                    raise StoreError(
                        f"root index lists {nid} under {root} but the "
                        f"cache has {cached}"
                    )

    def _fresh_order_key(self, nid: int) -> tuple:
        """Recompute a node's order key without the cache (verification)."""
        parts: list[tuple[int, int]] = []
        cur = nid
        while True:
            rec = self._rec(cur)
            parent = rec.parent
            if parent is None:
                return (cur, tuple(reversed(parts)))
            prec = self._rec(parent)
            if rec.kind is NodeKind.ATTRIBUTE:
                parts.append((-1, prec.attributes.index(cur)))
            else:
                parts.append((0, prec.children.index(cur)))
            cur = parent
