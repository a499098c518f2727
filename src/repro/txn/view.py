"""A writable MVCC view: the read/write workspace of one transaction.

A :class:`~repro.concurrent.snapshot.StoreSnapshot` already gives a
transaction everything but writes: an O(1) frozen view of the store at
begin time (pre-image overlay, ceiling) plus a local id space for
construction.  :class:`TransactionView` extends it with *buffered
mutability*: the mutators' single record-resolution gateway
(``_local_rec``) is overridden to copy a base record into the local
space on first write — copy-on-first-write at transaction granularity —
after which every read through the view resolves the local (mutated)
record first.  That is exactly read-your-writes: statements inside the
transaction see their own effects, while the base store and every other
snapshot stay untouched until commit replays the buffered Δ under the
store write lock.

The view also speaks the store's undo protocol (``begin_undo`` /
``rollback_undo`` / ``end_undo``) over its *local* state only, so
``apply_update_list(atomic=True)`` gives each statement inside the
transaction the same failure containment a snap has against the live
store: a failed statement rolls the view back and leaves the
transaction usable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.concurrent.snapshot import StoreSnapshot
from repro.errors import StoreError
from repro.xdm.store import NodeKind, _NodeRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.xdm.store import Store


class TransactionView(StoreSnapshot):
    """A snapshot that buffers writes instead of refusing them.

    Open one with :func:`begin_transaction_view` (which registers it for
    pre-image feeding like any snapshot).  All of the base class's
    derived-data memos assume base records are immutable; here a write
    can touch a base record's local copy, so the memos are dropped on
    every mutation once any base record has been materialized, and the
    descendant name lookup always consults the local index (a locally
    constructed element can now live *under* a base node).
    """

    def __init__(
        self,
        store: "Store",
        records: dict[int, _NodeRecord],
        ceiling: int,
        version: int,
    ):
        super().__init__(store, records, ceiling, version)
        # Base ids whose records were copied into the local space for
        # mutation.  Empty ⇒ the view behaves exactly like a snapshot
        # (pure construction), and the memo fast paths stay on.
        self._materialized: set[int] = set()

    # -- the copy-on-first-write gateway ----------------------------------

    def _forget_memos(self) -> None:
        if self._string_values:
            self._string_values.clear()
        if self._descendants_named:
            self._descendants_named.clear()

    def _local_rec(self, nid: int) -> _NodeRecord:
        rec = self._local.get(nid)
        if rec is None:
            # Resolve the snapshot-time record (StoreError for unknown
            # ids — same failure the live store's mutators give) and
            # copy it into the local space.  From here on the view
            # reads the mutable copy.
            snap = self._rec(nid)
            rec = _NodeRecord(snap.kind, snap.name, snap.value)
            rec.parent = snap.parent
            rec.children = list(snap.children)
            rec.attributes = list(snap.attributes)
            self._local[nid] = rec
            self._materialized.add(nid)
            if snap.kind is NodeKind.ELEMENT and snap.name:
                self._local_name_index.setdefault(snap.name, set()).add(nid)
        if self._materialized:
            # Once any base record is writable the immutability premise
            # behind the shared memos is gone: a mutation of a local
            # node attached under a base node changes base string
            # values and descendant sets too.  Dropping the memos on
            # every mutation is cheap (dict.clear) and always safe.
            self._forget_memos()
        return rec

    # -- derived data that must see buffered writes -----------------------

    def descendants_named(self, nid: int, name: str) -> list[int]:
        # The base implementation consults the local name index only for
        # local context nodes; in a transaction view, locally created
        # (or materialized) elements can sit under *any* node, and
        # nothing may be memoized across mutations.
        candidates: set[int] = set()
        ceiling = self._ceiling
        live = self._name_index.get(name)
        if live:
            for c in tuple(live):
                if c < ceiling:
                    candidates.add(c)
        for c, pre in list(self._overlay.items()):
            if pre.kind is NodeKind.ELEMENT and pre.name == name:
                candidates.add(c)
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
        return out

    def string_value(self, nid: int) -> str:
        # Same computation as the base class, but never memoized: the
        # value can change under buffered writes.
        from repro.xdm.store import _HAS_CHILDREN, _HAS_VALUE

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

    # -- value probes that see buffered writes ------------------------------
    # The live postings know nothing about this view's writes.  Every
    # record a write touched is in the local space, though: constructed
    # nodes, and base records copied there on first write (a revalued,
    # renamed or detached attribute or text node, a detached owner).  So
    # the snapshot's candidates plus the local records of the probed kind
    # are a superset of the truth, and the snapshot's verification step,
    # which resolves each candidate through _rec (local copy first),
    # makes the answer exact.  Local nodes can sit under base nodes and
    # base nodes under local ones, so no subtree is hidden from a probe.

    def _probes_blind_below(self, nid: int) -> bool:
        return False

    def _local_candidates(self, kind: NodeKind) -> list[int]:
        return [nid for nid, rec in self._local.items() if rec.kind is kind]

    # Bound here, not only inherited, so that a wrapper installed on one
    # class (a profiler's, say) never runs inside the other's probes.
    attr_eq_probe = StoreSnapshot.attr_eq_probe
    token_probe = StoreSnapshot.token_probe
    text_eq_probe = StoreSnapshot.text_eq_probe

    # -- statement-level failure containment -------------------------------
    # The store's undo protocol; a view's log is a copy of its local
    # space, O(what the transaction wrote so far), never O(store).

    def begin_undo(self) -> tuple:
        records = {
            nid: (
                rec.kind,
                rec.name,
                rec.parent,
                tuple(rec.children),
                tuple(rec.attributes),
                rec.value,
            )
            for nid, rec in self._local.items()
        }
        return (
            records,
            self._local_next,
            {name: set(ids) for name, ids in self._local_name_index.items()},
            set(self._materialized),
        )

    def end_undo(self, log: tuple) -> None:
        pass

    def rollback_undo(self, log: tuple) -> None:
        records, self._local_next, self._local_name_index, materialized = log
        self._materialized = materialized
        self._local = {}
        for nid, row in records.items():
            kind, name, parent, children, attributes, value = row
            rec = _NodeRecord(kind, name, value)
            rec.parent = parent
            rec.children = list(children)
            rec.attributes = list(attributes)
            self._local[nid] = rec
        self._forget_memos()
        self._order_cache.clear()
        self._cached_roots.clear()

    def __repr__(self) -> str:
        return (
            f"TransactionView(ceiling={self._ceiling}, "
            f"local={len(self._local)}, "
            f"materialized={len(self._materialized)}, "
            f"detached={self._detached})"
        )


def begin_transaction_view(store: "Store") -> TransactionView:
    """Open a :class:`TransactionView` of *store*'s current state.

    Mirrors :meth:`Store.begin_snapshot` (the view participates in the
    same pre-image feed); the caller must hold the store write lock so
    the (records, ceiling, version) triple is consistent, and must hand
    the view back with :meth:`Store.release_snapshot`.
    """
    view = TransactionView(
        store=store,
        records=store._records,
        ceiling=store._next_id,
        version=store._version,
    )
    store._snapshots.append(view)
    return view
