"""Pending update requests, update lists (Δ) and their application.

Section 3.2 of the paper:

* an *update request* is a tuple ``opname(par1, ..., parn)`` whose
  application is a partial function from stores to stores;
* an *update list* Δ is an ordered list of requests, collected during the
  evaluation inside a ``snap`` scope and applied when the scope closes;
* application supports three semantics — **ordered**, **nondeterministic**
  and **conflict-detection** — chosen per ``snap``.

Insert positions are *symbolic* (first/last/before/after a target node) and
resolve against the store **at application time**.  This realizes the
paper's Section 3.4 nested-snap example: with

    snap ordered { insert {<a/>} into $x,
                   snap { insert {<b/>} into $x },
                   insert {<c/>} into $x }

the inner snap applies ``<b/>`` while ``<a/>`` is still pending, and the
outer snap then *appends* ``<a/>`` and ``<c/>``, producing
``<b/><a/><c/>`` "in this order" — which requires ``as last`` to mean
"last at application time", exactly as in the later W3C XQuery Update
Facility that this paper influenced.

One deliberate generalization over the paper's Fig. 2: ``delete {Expr}``
accepts a node *sequence* and emits one request per node — the paper's own
use case (``snap delete $log/logentry``) requires this.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.errors import ExecutionControlError, UpdateApplicationError
from repro.xdm.store import NodeKind, Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.journal import Journal
    from repro.obs.tracer import Tracer

# Group tokens tie together the request pair a single `replace` emits
# (Fig. 2: insert-after + delete of the same node).  The conflict checker
# exempts a pair sharing a group from the anchor-vs-delete rule — the pair
# is one logical write.  Tokens are engine-global and never reused.
_group_counter = itertools.count(1)


def next_group() -> int:
    """A fresh request-group token (see module docstring)."""
    return next(_group_counter)

# Symbolic insert positions.
INSERT_FIRST = "first"
INSERT_LAST = "last"
INSERT_BEFORE = "before"
INSERT_AFTER = "after"

_VALID_POSITIONS = (INSERT_FIRST, INSERT_LAST, INSERT_BEFORE, INSERT_AFTER)


class ApplySemantics(enum.Enum):
    """The three update-application semantics of Section 3.2."""

    ORDERED = "ordered"
    NONDETERMINISTIC = "nondeterministic"
    CONFLICT_DETECTION = "conflict-detection"

    @staticmethod
    def from_keyword(keyword: str | None) -> "ApplySemantics":
        """Map the optional snap keyword to a semantics (default ordered)."""
        if keyword is None:
            return ApplySemantics.ORDERED
        return ApplySemantics(keyword)


@dataclass(frozen=True)
class InsertRequest:
    """insert(nodeseq, position, target).

    For ``first``/``last`` the target is the future parent; for
    ``before``/``after`` it is the sibling anchor whose parent is resolved
    at application time.  Preconditions (checked on apply, per the paper's
    "partial function" reading): inserted nodes must be parentless, the
    parent must accept children, a sibling anchor must have a parent.
    """

    nodes: tuple[int, ...]
    position: str
    target: int
    group: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.position not in _VALID_POSITIONS:
            raise UpdateApplicationError(
                f"invalid insert position {self.position!r}"
            )

    def apply(self, store: Store) -> None:
        if self.position in (INSERT_FIRST, INSERT_LAST):
            parent = self.target
        else:
            parent = store.parent(self.target)
            if parent is None:
                raise UpdateApplicationError(
                    f"insert {self.position} anchor #{self.target} has no "
                    "parent at application time"
                )
        regular = []
        for node in self.nodes:
            if store.kind(node) is NodeKind.ATTRIBUTE:
                store.set_attribute(parent, node)
            else:
                regular.append(node)
        if not regular:
            return
        if self.position == INSERT_LAST:
            for node in regular:
                store.append_child(parent, node)
        elif self.position == INSERT_FIRST:
            for index, node in enumerate(regular):
                store.insert_child_at(parent, index, node)
        elif self.position == INSERT_AFTER:
            anchor = self.target
            for node in regular:
                store.insert_after(parent, anchor, node)
                anchor = node
        else:  # before
            for node in regular:
                store.insert_before(parent, self.target, node)

    def describe(self) -> str:
        return f"insert({list(self.nodes)} {self.position} #{self.target})"


@dataclass(frozen=True)
class DeleteRequest:
    """delete(node): detach *node* from its parent (Section 3.1)."""

    node: int
    group: Optional[int] = field(default=None, compare=False)

    def apply(self, store: Store) -> None:
        store.detach(self.node)

    def describe(self) -> str:
        return f"delete(#{self.node})"


@dataclass(frozen=True)
class SetValueRequest:
    """replace value of(node, text): overwrite the *content* of a node.

    An extension in the style of the later XQuery Update Facility: for a
    text/attribute/comment/PI node the string value is replaced; for an
    element (or document), its children are detached and replaced by one
    text node (created at application time).
    """

    node: int
    text: str

    def apply(self, store: Store) -> None:
        kind = store.kind(self.node)
        if kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            for child in store.children(self.node):
                store.detach(child)
            if self.text:
                store.append_child(self.node, store.create_text(self.text))
            return
        store.set_value(self.node, self.text)

    def describe(self) -> str:
        return f"set-value(#{self.node} to {self.text!r})"


@dataclass(frozen=True)
class RenameRequest:
    """rename(node, name)."""

    node: int
    name: str

    def apply(self, store: Store) -> None:
        store.rename(self.node, self.name)

    def describe(self) -> str:
        return f"rename(#{self.node} to {self.name!r})"


UpdateRequest = Union[
    InsertRequest, DeleteRequest, RenameRequest, SetValueRequest
]

# Δ is a plain Python list; order is the one the semantics rules specify.
UpdateList = list


def apply_one(store: Store, request: UpdateRequest) -> None:
    """Apply a single update request (raises on precondition violation)."""
    request.apply(store)


def apply_update_list(
    store: Store,
    delta: UpdateList,
    semantics: ApplySemantics = ApplySemantics.ORDERED,
    permutation: list[int] | None = None,
    atomic: bool = False,
    tracer: "Tracer | None" = None,
    journal: "Journal | None" = None,
    control=None,
    txn_log=None,
) -> None:
    """Apply Δ to the store under the chosen semantics.

    * ORDERED — requests are applied exactly in Δ order.
    * NONDETERMINISTIC — the engine may pick any order; this implementation
      applies Δ order by default, or the caller-supplied *permutation*
      (used by tests to exercise the semantics' full latitude).
    * CONFLICT_DETECTION — first proves Δ conflict-free (linear time, two
      hash tables — Section 4.1); raises
      :class:`~repro.errors.ConflictError` otherwise, then applies in any
      order (Δ order here, since order is immaterial once verified).

    With ``atomic=True`` a precondition failure mid-application rolls the
    store back to its pre-Δ state before re-raising — snap as a
    failure-containment boundary (an extension the paper's Section 5
    sketches for its full version).  The rollback replays an undo log
    (:meth:`~repro.xdm.store.Store.begin_undo`) holding the pre-image of
    each record Δ touched, so it costs O(|Δ|), not O(store).

    With a *journal*, the applied requests — in their resolved order,
    after conflict checking — are appended as one durable record before
    this function returns (snap as the unit of durability; see
    :mod:`repro.durability.journal`).  A Δ that fails a precondition is
    never journaled, and a journal append failure rolls the store back
    (when ``atomic``) and raises
    :class:`~repro.errors.DurabilityError`, so the in-memory store
    never acknowledges a snap the disk does not hold.

    With a *control* (an
    :class:`~repro.concurrent.control.ExecutionControl`), application
    stays interruptible even inside a huge Δ: the conflict scan polls it
    unconditionally (pure reads), and the apply loop polls it when an
    undo log is recording — a mid-apply interrupt then rolls back to the
    pre-Δ store, preserving the all-or-nothing discipline.  Without an
    undo log the loop never polls (an interrupt there would half-apply).
    The control's admission guard, when present, bounds the Δ length
    before anything applies and the journal's circuit breaker, when
    present, refuses the commit with a typed
    :class:`~repro.errors.CircuitOpenError` while the durability path is
    known-bad — both refusals leave the store untouched.

    With a *txn_log* (the engine's
    :class:`~repro.txn.TransactionManager`), a fully applied non-empty Δ
    is published — in its resolved order — as one committed mini-
    transaction, so open MVCC transactions validate against direct
    (autocommit) writes too.  Nothing is published for a failed or
    rolled-back Δ.
    """
    from repro.semantics.conflicts import check_conflict_free

    delta = list(delta)  # accept both plain lists and Delta ropes
    if tracer is not None:
        # Every snap closure lands here, so this is *the* place the
        # "pending-update-list length per snap" histogram is fed.
        tracer.count("snap.count")
        tracer.observe("snap.pending_updates", len(delta))
    if control is not None and delta:
        guard = control.guard
        if guard is not None:
            # Admission bound on the pending-update-list length; a
            # refusal discards the Δ whole, store untouched.
            guard.check_delta(len(delta))
    if semantics is ApplySemantics.CONFLICT_DETECTION:
        check_conflict_free(delta, tracer=tracer, control=control)
    order = range(len(delta))
    if permutation is not None:
        if semantics is ApplySemantics.ORDERED:
            raise UpdateApplicationError(
                "ordered semantics does not permit reordering Δ"
            )
        if sorted(permutation) != list(range(len(delta))):
            raise UpdateApplicationError("invalid permutation of Δ")
        order = permutation  # type: ignore[assignment]
    breaker = journal.breaker if journal is not None else None
    if breaker is not None and delta:
        # Degraded read-only mode: while the durability circuit is open
        # a non-empty Δ is refused before anything touches the store.
        # Reads carry an empty Δ and never reach this gate.
        breaker.admit()
    entry = None
    if journal is not None and delta:
        # Built pre-apply: the entry captures the payload subtrees and
        # the id watermark as the replayed ops will find them.
        entry = journal.build_entry(
            store, [delta[index] for index in order], semantics
        )
    undo = store.begin_undo() if atomic and delta else None
    try:
        indexes = getattr(store, "_indexes", None)
        maintained_before = indexes.maintained if indexes is not None else 0
        try:
            if undo is None or control is None:
                for index in order:
                    delta[index].apply(store)
            else:
                # Interruptible application: with an undo log a fired
                # deadline/cancel/budget mid-Δ rolls back to the pre-Δ
                # store, so polling here cannot half-apply a snap.
                for position, index in enumerate(order):
                    if position % 64 == 0:
                        control.check()
                    delta[index].apply(store)
        except UpdateApplicationError:
            # A failed snap journals nothing: the entry is discarded whole.
            if undo is not None:
                store.rollback_undo(undo)
            if breaker is not None and delta:
                # The journal was never exercised; a half-open probe slot
                # must not stay reserved for an outcome that never comes.
                breaker.release_probe()
            raise
        except ExecutionControlError:
            # Only reachable from the polling loop, which requires the undo
            # log: the Δ is un-applied whole, never half-applied.
            store.rollback_undo(undo)
            if breaker is not None and delta:
                breaker.release_probe()
            raise
        if tracer is not None and indexes is not None:
            # O(|Δ|) incremental index maintenance done inside this snap —
            # the number the "no rebuild on the write path" claim rests on.
            tracer.observe(
                "index.maintained_per_snap",
                indexes.maintained - maintained_before,
            )
        if entry is not None:
            try:
                journal.commit(entry, store)
            except Exception as exc:
                from repro.errors import DurabilityError, StaleEpochError

                if isinstance(exc, StaleEpochError):
                    # A deposed primary's fenced append: un-apply so the
                    # dead engine's memory does not silently diverge, and
                    # let the typed refusal through unwrapped.
                    if undo is not None:
                        store.rollback_undo(undo)
                    raise
                if not isinstance(exc, OSError):
                    raise
                # The append failed but the process lives: un-apply (when we
                # can) so memory does not run ahead of disk, and surface a
                # typed error either way.
                if undo is not None:
                    store.rollback_undo(undo)
                if breaker is not None:
                    breaker.record_failure(f"journal append failed: {exc}")
                raise DurabilityError(
                    f"journal append failed: {exc}"
                    + ("" if undo is not None else "; the in-memory "
                       "store kept the snap (atomic_snaps was off)")
                ) from exc
            if breaker is not None:
                breaker.record_success()
        elif breaker is not None and delta:
            # Journal present but entry None cannot happen for a non-empty
            # Δ today; keep the probe accounting robust regardless.
            breaker.release_probe()
    finally:
        if undo is not None:
            store.end_undo(undo)
    if txn_log is not None and delta:
        # The Δ is fully applied (and journaled when durable): publish it
        # for OCC validation by open transactions.
        txn_log.record_applied([delta[index] for index in order])
