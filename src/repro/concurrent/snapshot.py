"""Copy-on-write snapshot views of a :class:`~repro.xdm.store.Store`.

The paper's snap semantics (Section 3) already forces every query to see
a *fixed* store between snapshot boundaries: inside the innermost snap no
effect is observable, and a read-only query is one big effect-free region.
A :class:`StoreSnapshot` realizes that fixed store physically, so pure
queries can run against it from any thread with no lock at all while an
updating query mutates the live store concurrently.

Mechanism (MVCC-lite)
---------------------

* Creation is O(1): the snapshot keeps a reference to the live record
  dict, the allocation *ceiling* (``_next_id`` at creation — ids at or
  above it did not exist and are invisible), and an empty *overlay*.
* Every live-store mutator offers the snapshot a **pre-image** of the
  records it is about to change (:meth:`Store._cow` → first offer wins).
  The overlay therefore accumulates exactly the snapshot-time state of
  whatever changed since.
* A read resolves a node id *seqlock style*: check the overlay, read the
  live record's fields into an immutable :class:`_SnapRecord`, then
  re-check the overlay.  If the id appeared in the overlay in between, a
  mutation raced the read and the overlay holds the authoritative
  pre-image; otherwise the fields read are provably snapshot-time state
  (the pre-image is always saved *before* the first field changes).
  Consistent reads are memoized in ``_frozen``, so each base record is
  resolved at most once per snapshot no matter how many queries share it.
* Queries still *construct* nodes (element constructors, ``deepcopy`` of
  content).  Those allocate in a snapshot-local id space and their
  records are mutable; pre-existing (base) records can never be mutated
  through a snapshot — the purity analysis routes updating queries away
  from snapshots, and the mutators here enforce it anyway.

Because a snapshot is immutable-by-construction, it can safely cache
derived data the live store must keep invalidating: string values, name
index lookups and document-order keys computed here are shared by every
query running against the snapshot.  On read-heavy workloads this shared
memoization, not parallelism, is the throughput win.

Thread safety: any number of threads may read one snapshot concurrently
(memo dicts see benign same-value races; local allocation takes a
mutex).  The writer feeding pre-images is the serialized updating query.
Each thread must only mutate local nodes it created itself — the
executor guarantees this by giving each request its own evaluation.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from threading import Lock
from typing import TYPE_CHECKING

from repro.errors import StoreError, UpdateApplicationError
from repro.xdm.store import _HAS_CHILDREN, _HAS_VALUE, NodeKind, _NodeRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xdm.store import Store


class _SnapRecord:
    """An immutable pre-image of a node record at snapshot time."""

    __slots__ = ("kind", "name", "parent", "children", "attributes", "value")

    def __init__(
        self,
        kind: NodeKind,
        name: str | None,
        parent: int | None,
        children: tuple[int, ...],
        attributes: tuple[int, ...],
        value: str | None,
    ):
        self.kind = kind
        self.name = name
        self.parent = parent
        self.children = children
        self.attributes = attributes
        self.value = value


def _freeze(rec: _NodeRecord) -> _SnapRecord:
    return _SnapRecord(
        rec.kind,
        rec.name,
        rec.parent,
        tuple(rec.children),
        tuple(rec.attributes),
        rec.value,
    )


class StoreSnapshot:
    """A frozen read view of a store, plus a local space for construction.

    Duck-type compatible with :class:`~repro.xdm.store.Store` for
    everything the evaluator and the algebra interpreter touch, so a
    :class:`~repro.xdm.nodes.Node` handle works unchanged against it.
    Obtain one with :meth:`Store.begin_snapshot`; hand it back with
    :meth:`Store.release_snapshot` so later mutations stop paying the
    pre-image cost (released snapshots stay readable forever).
    """

    def __init__(
        self,
        store: "Store",
        records: dict[int, _NodeRecord],
        ceiling: int,
        version: int,
    ):
        self.store = store
        self.version = version
        self._base_records = records
        self._ceiling = ceiling
        # The live name and value indexes, captured with the records: a
        # whole-table rebind (Store.load_rows) installs fresh dicts, so
        # these stay the ones describing the table this snapshot reads.
        self._name_index = store._name_index
        self._attr_index = store._indexes.attr_index
        self._token_index = store._indexes.token_index
        # Pre-images fed by the live store's mutators.  Entries are never
        # removed, so a hit is authoritative forever.
        self._overlay: dict[int, _SnapRecord] = {}
        # Memo of consistent base reads (seqlock-verified or overlay).
        self._frozen: dict[int, _SnapRecord] = {}
        # Snapshot-local construction space.  Ids start at the ceiling;
        # they may numerically collide with post-snapshot live ids, which
        # is harmless because those are invisible here and the local dict
        # is consulted first.
        self._local: dict[int, _NodeRecord] = {}
        self._local_next = ceiling
        self._local_mutex = Lock()
        self._local_name_index: dict[str, set[int]] = {}
        # Shared derived-data memos (the point of immutability).
        self._string_values: dict[int, str] = {}
        self._descendants_named: dict[tuple[int, str], tuple[int, ...]] = {}
        # Document-order cache, same scheme as the live store's; base
        # entries never invalidate, local mutators invalidate their tree.
        self._order_cache: dict[int, tuple] = {}
        self._cached_roots: dict[int, set[int]] = {}
        # Set by Store.load_rows(): the base dict was rebound and is
        # frozen in place, so no further pre-images are needed (or
        # wanted).
        self._detached = False
        # Same cumulative counts as Store (snapshot-local constructions).
        self.nodes_created = 0
        self.nodes_detached = 0

    # -- pre-image intake (called by the serialized writer) --------------

    def _save_preimages(
        self, nids: Iterable[int], records: dict[int, _NodeRecord]
    ) -> None:
        if self._detached:
            return
        overlay = self._overlay
        for nid in nids:
            if nid >= self._ceiling or nid in overlay:
                continue
            rec = records.get(nid)
            if rec is not None:
                overlay[nid] = _freeze(rec)

    # -- record resolution ------------------------------------------------

    def _rec(self, nid: int):
        """Resolve *nid* to its snapshot-time record (or local record)."""
        local = self._local.get(nid)
        if local is not None:
            return local
        frozen = self._frozen.get(nid)
        if frozen is not None:
            return frozen
        if nid >= self._ceiling:
            raise StoreError(
                f"unknown node id {nid} (created after this snapshot)"
            )
        overlay = self._overlay
        records = self._base_records
        while True:
            pre = overlay.get(nid)
            if pre is not None:
                self._frozen[nid] = pre
                return pre
            rec = records.get(nid)
            if rec is None:
                # Deleted after snapshot time: gc offered a pre-image
                # before deleting, so the overlay must have it now.
                pre = overlay.get(nid)
                if pre is not None:
                    self._frozen[nid] = pre
                    return pre
                raise StoreError(f"unknown node id {nid}")
            snap = _freeze(rec)
            if nid in overlay:
                # A mutation raced our field reads; the overlay now holds
                # the authoritative pre-image.  Loop and take it.
                continue
            # No pre-image existed before or after reading the fields, so
            # no mutation of this record has begun: the read is clean.
            self._frozen[nid] = snap
            return snap

    def _is_local(self, nid: int) -> bool:
        return nid in self._local

    def _local_rec(self, nid: int) -> _NodeRecord:
        rec = self._local.get(nid)
        if rec is None:
            raise UpdateApplicationError(
                f"node {nid} is part of the shared snapshot; snapshots are "
                "read-only for pre-existing nodes (updating queries must "
                "run against the live store)"
            )
        return rec

    def __contains__(self, nid: int) -> bool:
        if nid in self._local:
            return True
        try:
            self._rec(nid)
        except StoreError:
            return False
        return True

    def __len__(self) -> int:
        # Base records at snapshot time = ceiling minus ids never used;
        # the precise count is not tracked, so report what is resolvable.
        return self._ceiling + len(self._local)

    # -- constructors (snapshot-local) ------------------------------------

    def _alloc(
        self, kind: NodeKind, name: str | None, value: str | None
    ) -> int:
        with self._local_mutex:
            nid = self._local_next
            self._local_next += 1
            self.nodes_created += 1
        self._local[nid] = _NodeRecord(kind, name, value)
        if kind is NodeKind.ELEMENT and name:
            self._local_name_index.setdefault(name, set()).add(nid)
        return nid

    def create_document(self) -> int:
        return self._alloc(NodeKind.DOCUMENT, None, None)

    def create_element(self, name: str) -> int:
        if not name:
            raise UpdateApplicationError("element name must be non-empty")
        return self._alloc(NodeKind.ELEMENT, name, None)

    def create_attribute(self, name: str, value: str) -> int:
        if not name:
            raise UpdateApplicationError("attribute name must be non-empty")
        return self._alloc(NodeKind.ATTRIBUTE, name, value)

    def create_text(self, value: str) -> int:
        return self._alloc(NodeKind.TEXT, None, value)

    def create_comment(self, value: str) -> int:
        return self._alloc(NodeKind.COMMENT, None, value)

    def create_processing_instruction(self, target: str, value: str) -> int:
        return self._alloc(NodeKind.PROCESSING_INSTRUCTION, target, value)

    # -- accessors ---------------------------------------------------------

    def kind(self, nid: int) -> NodeKind:
        return self._rec(nid).kind

    def name(self, nid: int) -> str | None:
        return self._rec(nid).name

    def parent(self, nid: int) -> int | None:
        return self._rec(nid).parent

    def children(self, nid: int) -> tuple[int, ...]:
        return tuple(self._rec(nid).children)

    def child_count(self, nid: int) -> int:
        return len(self._rec(nid).children)

    def attributes(self, nid: int) -> tuple[int, ...]:
        return tuple(self._rec(nid).attributes)

    def value(self, nid: int) -> str | None:
        return self._rec(nid).value

    def string_value(self, nid: int) -> str:
        rec = self._rec(nid)
        if rec.kind in _HAS_VALUE:
            return rec.value or ""
        local = nid in self._local
        if not local:
            cached = self._string_values.get(nid)
            if cached is not None:
                return cached
        parts: list[str] = []
        stack = list(reversed(rec.children))
        while stack:
            cur = self._rec(stack.pop())
            if cur.kind is NodeKind.TEXT:
                parts.append(cur.value or "")
            elif cur.kind in _HAS_CHILDREN:
                stack.extend(reversed(cur.children))
        result = "".join(parts)
        if not local:
            # A base subtree is frozen, so its string value never changes
            # and every query sharing this snapshot reuses it.
            self._string_values[nid] = result
        return result

    def attribute_named(self, nid: int, name: str) -> int | None:
        for aid in self._rec(nid).attributes:
            if self._rec(aid).name == name:
                return aid
        return None

    def root(self, nid: int) -> int:
        cur = nid
        while True:
            parent = self._rec(cur).parent
            if parent is None:
                return cur
            cur = parent

    def descendants_named(self, nid: int, name: str) -> list[int]:
        """Element descendants named *name* (arbitrary order), memoized.

        Candidates come from three places: the live name index filtered to
        ids below the ceiling (post-snapshot elements are invisible), the
        overlay (elements renamed or collected away *after* snapshot time
        keep their old name here), and the local index.  Every candidate
        is verified against the snapshot's own records, which also rejects
        ids renamed *to* the name after snapshot time.
        """
        local = nid in self._local
        if not local:
            memo = self._descendants_named.get((nid, name))
            if memo is not None:
                return list(memo)
        candidates: set[int] = set()
        ceiling = self._ceiling
        live = self._name_index.get(name)
        if live:
            # tuple(): GIL-atomic copy; construction in other threads may
            # grow the set while we iterate.
            for c in tuple(live):
                if c < ceiling:
                    candidates.add(c)
        for c, pre in list(self._overlay.items()):
            if pre.kind is NodeKind.ELEMENT and pre.name == name:
                candidates.add(c)
        if local:
            for c in tuple(self._local_name_index.get(name, ())):
                candidates.add(c)
        out = []
        for candidate in candidates:
            if candidate == nid:
                continue
            try:
                crec = self._rec(candidate)
            except StoreError:
                continue
            if crec.kind is not NodeKind.ELEMENT or crec.name != name:
                continue
            cur = crec.parent
            while cur is not None:
                if cur == nid:
                    out.append(candidate)
                    break
                cur = self._rec(cur).parent
        if not local:
            self._descendants_named[(nid, name)] = tuple(out)
        return out

    def _probes_blind_below(self, nid: int) -> bool:
        """True when the value probes cannot see into *nid*'s subtree: a
        snapshot-local tree is query construction, which no index covers
        (and under which no base node can ever be attached)."""
        return nid in self._local

    def _local_candidates(self, kind: NodeKind) -> Iterable[int]:
        """Local ids of *kind* a value probe must consider besides the
        index postings: none for a read-only snapshot (see
        :meth:`_probes_blind_below`); a transaction view adds its
        buffered writes."""
        return ()

    def attr_eq_probe(
        self, name: str, value: str, limit: int | None = None
    ) -> tuple[int, ...] | None:
        """Snapshot-consistent attribute-value probe.

        Candidates come from the store's attribute index (filtered to ids
        below the ceiling — post-snapshot attributes are invisible) plus
        the overlay (attributes whose value changed, or which were
        reclaimed, after snapshot time keep their snapshot-time content
        there); each candidate is then verified against the snapshot's
        own record resolution, which also rejects attributes revalued
        *to* the target after snapshot time.  The index is maintained by
        the writer from the store's birth, so a reader always has one to
        ask and never builds anything itself.  None when the live
        posting list is longer than *limit* (see
        :meth:`Store.attr_eq_probe`).
        """
        ceiling = self._ceiling
        candidates: set[int] = set()
        live = self._attr_index.get((name, value))
        if live:
            if limit is not None and len(live) > limit:
                return None
            # tuple(): GIL-atomic copy; the writer may mutate postings
            # while this reader iterates.
            for c in tuple(live):
                if c < ceiling:
                    candidates.add(c)
        for c, pre in list(self._overlay.items()):
            if (
                pre.kind is NodeKind.ATTRIBUTE
                and pre.name == name
                and (pre.value or "") == value
            ):
                candidates.add(c)
        candidates.update(self._local_candidates(NodeKind.ATTRIBUTE))
        out = []
        for candidate in candidates:
            try:
                rec = self._rec(candidate)
            except StoreError:
                continue
            if (
                rec.kind is NodeKind.ATTRIBUTE
                and rec.name == name
                and (rec.value or "") == value
            ):
                out.append(candidate)
        return tuple(out)

    def token_probe(self, needle: str) -> tuple[int, ...] | None:
        """Snapshot-consistent ``contains`` candidate probe (superset;
        callers verify).  Same three-way sourcing as
        :meth:`attr_eq_probe`; None when the needle cannot be anchored."""
        from repro.index.manager import token_matcher, tokenize

        matches = token_matcher(needle)
        if matches is None:
            return None
        ceiling = self._ceiling
        candidates: set[int] = set()
        for tok, postings in list(self._token_index.items()):
            if matches(tok):
                for c in tuple(postings):
                    if c < ceiling:
                        candidates.add(c)
        for c, pre in list(self._overlay.items()):
            if pre.kind is NodeKind.TEXT and any(
                matches(tok) for tok in tokenize(pre.value)
            ):
                candidates.add(c)
        candidates.update(self._local_candidates(NodeKind.TEXT))
        out = []
        for candidate in candidates:
            try:
                rec = self._rec(candidate)
            except StoreError:
                continue
            # Re-run the matcher on the snapshot-visible value: a text
            # node revalued *to* a matching content after snapshot time
            # sits in the live index but must stay invisible here.
            if rec.kind is NodeKind.TEXT and any(
                matches(tok) for tok in tokenize(rec.value or "")
            ):
                out.append(candidate)
        return tuple(out)

    def descendants(
        self, nid: int, include_self: bool = False
    ) -> Iterator[int]:
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
        if include_self:
            yield nid
        cur = self._rec(nid).parent
        while cur is not None:
            yield cur
            cur = self._rec(cur).parent

    def size(self, nid: int) -> int:
        total = 0
        stack = [nid]
        while stack:
            current = self._rec(stack.pop())
            total += 1 + len(current.attributes)
            stack.extend(current.children)
        return total

    # -- document order ----------------------------------------------------

    def order_key(self, nid: int) -> tuple:
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
                mine = (-1, prec.attributes.index(nid))
            else:
                mine = (0, prec.children.index(nid))
            root, path = self.order_key(parent)
            key = (root, path + (mine,))
        self._order_cache[nid] = key
        self._cached_roots.setdefault(key[0], set()).add(nid)
        return key

    def compare_order(self, a: int, b: int) -> int:
        ka, kb = self.order_key(a), self.order_key(b)
        if ka == kb:
            return 0
        return -1 if ka < kb else 1

    def sort_document_order(self, nids: Iterable[int]) -> list[int]:
        return sorted(set(nids), key=self.order_key)

    def _touch(self, *roots: int) -> None:
        """Invalidate cached order keys for *local* trees only.

        Base entries are never passed here — base structure is frozen, so
        its keys are valid for the snapshot's whole lifetime."""
        for root in roots:
            nids = self._cached_roots.pop(root, None)
            if nids:
                for nid in nids:
                    self._order_cache.pop(nid, None)

    # -- mutators (snapshot-local nodes only) ------------------------------
    #
    # Pure queries never update pre-existing nodes (that is what makes
    # them pure), but element construction builds new trees through the
    # same mutator API.  Each mutator therefore demands a *local* target
    # and refuses to touch the shared frozen base.

    def _check_can_parent(self, parent: int) -> _NodeRecord:
        rec = self._local_rec(parent)
        if rec.kind not in _HAS_CHILDREN:
            raise UpdateApplicationError(
                f"cannot insert children into a {rec.kind.value} node"
            )
        return rec

    def _check_insertable(self, nid: int) -> _NodeRecord:
        rec = self._local_rec(nid)
        if rec.parent is not None:
            raise UpdateApplicationError(
                f"node {nid} already has a parent; insert requires a "
                "parentless node"
            )
        if rec.kind is NodeKind.DOCUMENT:
            raise UpdateApplicationError("cannot insert a document node")
        return rec

    def _check_no_cycle(self, parent: int, child: int) -> None:
        cur: int | None = parent
        while cur is not None:
            if cur == child:
                raise UpdateApplicationError(
                    "insert would create a cycle (target is a descendant "
                    "of the inserted node)"
                )
            cur = self._rec(cur).parent

    def append_child(self, parent: int, child: int) -> None:
        prec = self._check_can_parent(parent)
        crec = self._check_insertable(child)
        if crec.kind is NodeKind.ATTRIBUTE:
            raise UpdateApplicationError(
                "attribute nodes must be attached with set_attribute"
            )
        self._check_no_cycle(parent, child)
        prec.children.append(child)
        crec.parent = parent
        self._touch(child)

    def insert_child_at(self, parent: int, index: int, child: int) -> None:
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
        roots = (child,) if index == len(prec.children) else (
            self.root(parent),
            child,
        )
        prec.children.insert(index, child)
        crec.parent = parent
        self._touch(*roots)

    def insert_after(self, parent: int, anchor: int, child: int) -> None:
        prec = self._check_can_parent(parent)
        try:
            idx = prec.children.index(anchor)
        except ValueError:
            raise UpdateApplicationError(
                f"anchor node {anchor} is not a child of {parent}"
            ) from None
        self.insert_child_at(parent, idx + 1, child)

    def insert_before(self, parent: int, anchor: int, child: int) -> None:
        prec = self._check_can_parent(parent)
        try:
            idx = prec.children.index(anchor)
        except ValueError:
            raise UpdateApplicationError(
                f"anchor node {anchor} is not a child of {parent}"
            ) from None
        self.insert_child_at(parent, idx, child)

    def set_attribute(self, element: int, attr: int) -> None:
        erec = self._local_rec(element)
        if erec.kind is not NodeKind.ELEMENT:
            raise UpdateApplicationError("attributes can only go on elements")
        arec = self._local_rec(attr)
        if arec.kind is not NodeKind.ATTRIBUTE:
            raise UpdateApplicationError(f"node {attr} is not an attribute")
        if arec.parent is not None:
            raise UpdateApplicationError(
                f"attribute {attr} already belongs to element {arec.parent}"
            )
        existing = self.attribute_named(element, arec.name or "")
        if existing is not None:
            self.detach(existing)
        erec.attributes.append(attr)
        arec.parent = element
        self._touch(attr)

    def detach(self, nid: int) -> None:
        rec = self._local_rec(nid)
        parent = rec.parent
        if parent is None:
            return
        self.nodes_detached += 1
        tree_root = self.root(nid)
        prec = self._local_rec(parent)
        if rec.kind is NodeKind.ATTRIBUTE:
            prec.attributes.remove(nid)
        else:
            prec.children.remove(nid)
        rec.parent = None
        self._touch(tree_root)

    def rename(self, nid: int, name: str) -> None:
        rec = self._local_rec(nid)
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
        if rec.kind is NodeKind.ELEMENT and rec.name != name:
            self._local_name_index.get(rec.name, set()).discard(nid)
            self._local_name_index.setdefault(name, set()).add(nid)
        rec.name = name

    def set_value(self, nid: int, value: str) -> None:
        rec = self._local_rec(nid)
        if rec.kind not in _HAS_VALUE:
            raise UpdateApplicationError(
                f"cannot set the value of a {rec.kind.value} node"
            )
        rec.value = value

    # -- deep copy ---------------------------------------------------------

    def deep_copy(self, nid: int) -> int:
        """Copy a (base or local) subtree into the local space."""
        root_rec = self._rec(nid)
        root_copy = self._alloc(root_rec.kind, root_rec.name, root_rec.value)
        stack = [(nid, root_copy)]
        while stack:
            source, copied = stack.pop()
            source_rec = self._rec(source)
            copied_rec = self._local[copied]
            for aid in source_rec.attributes:
                arec = self._rec(aid)
                acopy = self._alloc(arec.kind, arec.name, arec.value)
                self._local[acopy].parent = copied
                copied_rec.attributes.append(acopy)
            for cid in source_rec.children:
                crec = self._rec(cid)
                ccopy = self._alloc(crec.kind, crec.name, crec.value)
                self._local[ccopy].parent = copied
                copied_rec.children.append(ccopy)
                stack.append((cid, ccopy))
        return root_copy

    # -- unsupported Store operations -------------------------------------

    def gc(self, live_roots: Iterable[int]) -> int:
        """Snapshots never collect (local space dies with the snapshot)."""
        return 0

    def begin_undo(self):
        raise StoreError(
            "snapshots cannot apply an atomic Δ; updating queries must "
            "run against the live store"
        )

    # -- introspection -----------------------------------------------------

    @property
    def ceiling(self) -> int:
        """First node id *not* visible through this snapshot's base view."""
        return self._ceiling

    @property
    def detached(self) -> bool:
        """True once the base store rebound its record table from under
        us (the captured view, indexes included, stays fully readable)."""
        return self._detached

    def __repr__(self) -> str:
        return (
            f"StoreSnapshot(ceiling={self._ceiling}, "
            f"version={self.version}, overlay={len(self._overlay)}, "
            f"local={len(self._local)}, detached={self._detached})"
        )
