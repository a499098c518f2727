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
  but the record survives, so detached subtrees remain queryable.  The store
  therefore never frees records implicitly; :meth:`Store.gc` reclaims
  unreachable detached trees on demand (the paper defers GC, we provide it).
* Document order is structural: nodes are ordered by (root id, path of
  sibling positions), with attributes ordered after their owner element and
  before its children.  Distinct trees are ordered by root node id, which is
  stable (allocation order), satisfying XDM's "stable, total order".
"""

from __future__ import annotations

import enum
import itertools
import threading
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
        self.children: list[int] = []
        # attributes: attribute node ids, in stable insertion order.
        self.attributes: list[int] = []
        self.value = value


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
        # Observability: a repro.obs.Tracer while a traced execution is in
        # flight, else None.  Hot paths guard on None so that disabled
        # instrumentation costs one attribute load per event.
        self._obs = None
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
        already-saved record are ignored by the snapshot).
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

    def _alloc(self, kind: NodeKind, name: str | None, value: str | None) -> int:
        nid = next(self._id_counter)
        self._next_id = nid + 1
        self._records[nid] = _NodeRecord(kind, name, value)
        if kind is NodeKind.ELEMENT and name:
            # Every element enters the name index at birth — including
            # deep-copy clones, which do not go through create_element.
            self._name_index.setdefault(name, set()).add(nid)
        self._indexes.on_alloc(nid, kind, name, value)
        if self._obs is not None:
            self._obs.count("store.nodes_created")
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
        self, name: str, value: str, limit: int | None = None
    ) -> tuple[int, ...] | None:
        """Ids of attribute nodes bearing ``name="value"``, store-wide.

        Exact on content; callers re-check attachment (owner element,
        containment) because the index is content-keyed and also lists
        detached attributes.  None when more than *limit* nodes bear the
        pair: a caller that could scan *limit* nodes instead scans.
        """
        return self._indexes.attr_probe(name, value, limit)

    def token_probe(self, needle: str) -> tuple[int, ...] | None:
        """Candidate text-node ids for a ``contains`` search (superset;
        callers verify).  None when the needle cannot use the index."""
        return self._indexes.token_probe(needle)

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
        self._check_no_cycle(parent, child)
        if self._snapshots:
            self._cow(parent, child)
        prec.children.append(child)
        crec.parent = parent
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
        prec.children.insert(index, child)
        crec.parent = parent
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
        erec.attributes.append(attr)
        arec.parent = element
        # Appending to the attribute list shifts nothing; only the
        # (parentless) attribute's own cached key goes stale.
        self._touch(attr)

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
        if self._obs is not None:
            self._obs.count("store.nodes_detached")
        # Removal shifts following siblings and reroots the detached
        # subtree, so the whole (pre-mutation) containing tree goes stale.
        tree_root = self.root(nid)
        if self._snapshots:
            self._cow(nid, parent)
        prec = self._rec(parent)
        if rec.kind is NodeKind.ATTRIBUTE:
            prec.attributes.remove(nid)
        else:
            prec.children.remove(nid)
        rec.parent = None
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
        if self._snapshots:
            self._cow(nid)
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
        self._indexes.on_set_value(nid, rec, value)
        rec.value = value
        self._version += 1

    def _check_no_cycle(self, parent: int, child: int) -> None:
        # Inserting a node above itself would create a cycle.  Since the
        # inserted node must be parentless, a cycle can only arise if
        # `parent` is inside the subtree of `child`.
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
            for aid in source_rec.attributes:
                arec = self._rec(aid)
                acopy = self._alloc(arec.kind, arec.name, arec.value)
                self._rec(acopy).parent = copied
                copied_rec.attributes.append(acopy)
            for cid in source_rec.children:
                crec = self._rec(cid)
                ccopy = self._alloc(crec.kind, crec.name, crec.value)
                self._rec(ccopy).parent = copied
                copied_rec.children.append(ccopy)
                stack.append((cid, ccopy))
        return root_copy

    # ------------------------------------------------------------------
    # Garbage collection of unreachable detached trees
    # ------------------------------------------------------------------

    def gc(self, live_roots: Iterable[int]) -> int:
        """Drop every record not reachable from *live_roots*.

        The caller supplies the node ids still referenced from the outside
        (bound variables, documents).  Returns the number of reclaimed
        records.  This implements the "garbage collection of persistent but
        unreachable nodes" the paper mentions as a consequence of the detach
        semantics (Section 4.1).
        """
        reachable: set[int] = set()
        stack = [self.root(nid) for nid in live_roots if nid in self._records]
        while stack:
            cur = stack.pop()
            if cur in reachable:
                continue
            reachable.add(cur)
            rec = self._rec(cur)
            stack.extend(rec.children)
            stack.extend(rec.attributes)
        dead = [nid for nid in self._records if nid not in reachable]
        self.drop_records(dead)
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
        rec = _NodeRecord(NodeKind(kind), name, value)
        rec.parent = parent
        rec.children = list(children)
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
        for row in rows:
            nid = row[0]
            if nid in self._records:
                continue
            if self._snapshots:
                # No pre-image to give, but an undo log learns how high
                # the ids it must drop on rollback reach.
                self._cow(nid)
            rec = self._put(*row)
            self._indexes.on_alloc(nid, rec.kind, rec.name, rec.value)
            created += 1
        if created:
            self._touch()
        return created

    def drop_records(self, nids: Iterable[int]) -> None:
        """Remove the records of *nids* outright, postings included
        (garbage collection, discarding scratch allocations)."""
        for nid in nids:
            rec = self._records[nid]
            if self._snapshots:
                self._cow(nid)
            if rec.kind is NodeKind.ELEMENT and rec.name:
                self._name_index.get(rec.name, set()).discard(nid)
            self._indexes.on_free(nid, rec)
            del self._records[nid]
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
        records = self._records
        top = max(self._next_id, log.top)
        self.drop_records(
            [nid for nid in range(log.watermark, top) if nid in records]
        )
        saved = log.saved
        if self._snapshots and saved:
            self._cow(*saved)
        for nid, (name, parent, children, attributes, value) in saved.items():
            rec = records[nid]
            if rec.name != name or rec.value != value:
                if rec.kind is NodeKind.ELEMENT:
                    self._name_index.get(rec.name, set()).discard(nid)
                    self._name_index.setdefault(name, set()).add(nid)
                self._indexes.on_free(nid, rec)
                self._indexes.on_alloc(nid, rec.kind, name, value)
                rec.name = name
                rec.value = value
            rec.parent = parent
            rec.children = list(children)
            rec.attributes = list(attributes)
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
