"""Property: a rolled-back atomic Δ leaves no trace.

``apply_update_list(atomic=True)`` un-applies a failed Δ from an undo
log (``Store.begin_undo`` / ``rollback_undo``) holding the pre-image of
each record the Δ touched.  For random Δs over a small document —
inserts first/last/before/after (attribute payloads included), deletes,
renames of elements and attributes, value replacement of text,
attribute and element nodes (the element case allocates a text node at
apply time) — under all three application semantics, with the failure
forced at every prefix length and after a full apply (journal append
``OSError``, fenced ``StaleEpochError``), the rollback must leave:

* every record equal, field by field, to its pre-Δ state, the id
  watermark unchanged and the next allocation landing on the id it
  would have had before the Δ;
* ``check_invariants()`` green (name index, value indexes against a
  rebuild, order keys) with no index rebuild;
* a snapshot opened before the Δ attached and still reading the pre-Δ
  store, probes included.

The commit path of a transaction uses the same log; its journal
``OSError`` and replay-divergence aborts must also restore the store.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.errors import (
    ConflictError,
    DurabilityError,
    QueryCancelledError,
    StaleEpochError,
    TransactionConflictError,
    UpdateApplicationError,
)
from repro.semantics.conflicts import check_conflict_free
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    SetValueRequest,
    apply_update_list,
)
from repro.xdm.store import NodeKind, Store

NAMES = ["a", "b", "k", "x"]
TEXTS = ["", "v w", "t1", "fresh text"]


def build(seed: int):
    """A small document plus parentless insert payloads, identical for
    equal seeds (so a twin store has the same ids)."""
    rng = random.Random(seed)
    store = Store()
    root = store.create_element("r")
    for name in ("a", "b", "c"):
        element = store.create_element(name)
        store.set_attribute(
            element, store.create_attribute("k", rng.choice(TEXTS[1:]))
        )
        store.append_child(element, store.create_text(rng.choice(TEXTS)))
        store.append_child(root, element)
        inner = store.create_element("d")
        store.append_child(element, inner)
    payloads = []
    for index in range(6):
        kind = rng.choice(("element", "attribute", "text"))
        if kind == "element":
            node = store.create_element(rng.choice(NAMES))
            store.set_attribute(node, store.create_attribute("k", "p"))
            store.append_child(node, store.create_text(f"p{index}"))
        elif kind == "attribute":
            node = store.create_attribute(rng.choice(NAMES), f"p{index}")
        else:
            node = store.create_text(f"p{index} q")
        payloads.append(node)
    # Renaming a text node is a precondition failure that no conflict
    # rule sees: the request spliced in to force a rollback.
    poison = RenameRequest(store.create_text("poison"), "x")
    return store, root, payloads, poison


def doc_nodes(store: Store, root: int, ceiling: int) -> list[int]:
    """The document's nodes that existed before Δ (below *ceiling*): a
    request can only name nodes its evaluation saw."""
    out = []
    for nid in store.descendants(root, include_self=True):
        out.append(nid)
        out.extend(store.attributes(nid))
    return [nid for nid in out if nid < ceiling]


def draw_request(rng, twin: Store, root: int, payloads: list[int], ceiling):
    """One request that applies cleanly to *twin* in its current state,
    or None when the drawn shape has no valid target."""
    nodes = doc_nodes(twin, root, ceiling)
    shape = rng.choice(
        ("first", "last", "before", "after", "delete", "rename", "value")
    )
    if shape in ("first", "last", "before", "after"):
        if not payloads:
            return None
        count = min(len(payloads), rng.randint(1, 2))
        take = [payloads.pop() for _ in range(count)]
        if shape in ("first", "last"):
            targets = [n for n in nodes if twin.kind(n) is NodeKind.ELEMENT]
        else:
            targets = [
                n
                for n in nodes
                if twin.parent(n) is not None
                and twin.kind(n) is not NodeKind.ATTRIBUTE
            ]
        if not targets:
            payloads.extend(take)
            return None
        return InsertRequest(tuple(take), shape, rng.choice(targets))
    if shape == "delete":
        targets = [n for n in nodes if n != root]
        return DeleteRequest(rng.choice(targets)) if targets else None
    if shape == "rename":
        target = rng.choice(
            [
                n
                for n in nodes
                if twin.kind(n) in (NodeKind.ELEMENT, NodeKind.ATTRIBUTE)
            ]
        )
        names = NAMES
        owner = twin.parent(target)
        if twin.kind(target) is NodeKind.ATTRIBUTE and owner is not None:
            # Attribute names stay unique per element.
            taken = {twin.name(a) for a in twin.attributes(owner)}
            names = [name for name in NAMES if name not in taken]
            if not names:
                return None
        return RenameRequest(target, rng.choice(names))
    targets = [n for n in nodes if n != root]
    return SetValueRequest(rng.choice(targets), rng.choice(TEXTS))


def scenario(seed: int, length: int, semantics: ApplySemantics):
    """(store, poison, Δ) where Δ applies cleanly to *store* in order;
    conflict-free when *semantics* demands it."""
    store, root, payloads, poison = build(seed)
    twin, _, twin_payloads, _ = build(seed)
    assert payloads == twin_payloads
    rng = random.Random(seed * 31 + length)
    ceiling = twin._next_id
    delta: list = []
    for _ in range(length):
        request = draw_request(rng, twin, root, payloads, ceiling)
        if request is None:
            continue
        if semantics is ApplySemantics.CONFLICT_DETECTION:
            try:
                check_conflict_free(delta + [request, poison])
            except ConflictError:
                if isinstance(request, InsertRequest):
                    payloads.extend(request.nodes)
                continue
        request.apply(twin)
        delta.append(request)
    return store, poison, delta


def dump(store, nids) -> dict:
    """The records of *nids*, field by field (a store or a snapshot)."""
    return {
        nid: (
            store.kind(nid),
            store.name(nid),
            store.parent(nid),
            tuple(store.children(nid)),
            tuple(store.attributes(nid)),
            store.value(nid),
        )
        for nid in nids
    }


class _Journal:
    """Journal-shaped stub whose append fails after a full apply."""

    breaker = None

    def __init__(self, exc: Exception):
        self.exc = exc

    def build_entry(self, store, requests, semantics):
        return object()

    def commit(self, entry, store):
        raise self.exc


def assert_rolled_back(store: Store, snap, before: dict, next_id: int):
    assert set(store.node_ids()) == set(before)
    assert dump(store, before) == before
    assert store._next_id == next_id
    assert store.indexes.rebuilds == 0
    store.check_invariants()
    assert not snap.detached
    assert dump(snap, before) == before
    for nid, (kind, name, _, _, _, value) in before.items():
        if kind is NodeKind.ATTRIBUTE:
            assert nid in snap.attr_eq_probe(name, value or "")
            assert nid in store.attr_eq_probe(name, value or "")


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.sampled_from(list(ApplySemantics)),
)
def test_rollback_restores_pre_delta_store(seed, length, semantics):
    store, poison, delta = scenario(seed, length, semantics)
    before = dump(store, store.node_ids())
    next_id = store._next_id
    store.sort_document_order(before)  # cached order keys must not go stale
    snap = store.begin_snapshot()
    rng = random.Random(seed)

    # A precondition failure at every prefix length.
    for k in range(len(delta) + 1):
        spliced = delta[:k] + [poison] + delta[k:]
        permutation = None
        if semantics is ApplySemantics.NONDETERMINISTIC:
            permutation = list(range(len(spliced)))
            rng.shuffle(permutation)
        with pytest.raises(UpdateApplicationError):
            apply_update_list(
                store, spliced, semantics, permutation, atomic=True
            )
        assert_rolled_back(store, snap, before, next_id)

    # A journal append failure after the whole Δ applied.
    for exc, raised in (
        (OSError("disk full"), DurabilityError),
        (StaleEpochError("deposed"), StaleEpochError),
    ):
        with pytest.raises(raised):
            apply_update_list(
                store, delta, semantics, atomic=True, journal=_Journal(exc)
            )
        assert_rolled_back(store, snap, before, next_id)

    assert store._snapshots == [snap]
    # The next allocation lands where it would have before any Δ.
    assert store.create_element("z") == next_id
    # And the clean Δ still applies in full afterwards.
    store.release_snapshot(snap)
    apply_update_list(store, delta, semantics, atomic=True)
    assert store._snapshots == []
    store.check_invariants()


def test_interrupt_mid_delta_rolls_back():
    """The ExecutionControlError site: the apply loop polls every 64
    requests, so a control that fires on its second poll interrupts a
    Δ with 64 requests already applied."""

    class FiresSecond:
        guard = None
        polls = 0

        def check(self):
            self.polls += 1
            if self.polls == 2:
                raise QueryCancelledError("cancelled")

    store = Store()
    root = store.create_element("r")
    delta = [
        InsertRequest((store.create_element("n"),), "last", root)
        for _ in range(100)
    ]
    before = dump(store, store.node_ids())
    next_id = store._next_id
    snap = store.begin_snapshot()
    with pytest.raises(QueryCancelledError):
        apply_update_list(
            store,
            delta,
            ApplySemantics.ORDERED,
            atomic=True,
            control=FiresSecond(),
        )
    assert_rolled_back(store, snap, before, next_id)


# ----------------------------------------------------------------------
# Transaction commit: the same log under the write lock
# ----------------------------------------------------------------------

DOC = "<r><a k='1'>one</a><b k='2'>two</b></r>"

STATEMENTS = [
    "snap insert { <c k='3'>three</c> } into { $doc/r }",
    "snap replace value of { $doc/r/a/@k } with { '9' }",
    "snap rename { $doc/r/b } to { 'bb' }",
    "snap delete { $doc/r/a }",
    "snap replace value of { $doc/r/bb } with { 'new' }",
]


def transaction_engine():
    engine = Engine(atomic_snaps=True)
    engine.load_document("doc", DOC)
    return engine


class _GroupJournal:
    breaker = None

    def commit_group(self, entries, store, txn_id):
        raise OSError("disk full")


def open_transaction(engine, statements):
    session = engine.session()
    txn = session.begin()
    for query in statements:
        txn.execute(query)
    return txn


@pytest.mark.parametrize("failure", ["journal-oserror", "replay-diverges"])
@pytest.mark.parametrize("count", [1, 3, len(STATEMENTS)])
def test_failed_commit_restores_store(failure, count):
    engine = transaction_engine()
    store = engine.store
    txn = open_transaction(engine, STATEMENTS[:count])
    before = dump(store, store.node_ids())
    next_id = store._next_id
    snap = store.begin_snapshot()
    if failure == "journal-oserror":
        engine.evaluator.journal = _GroupJournal()
        expected = DurabilityError
    else:
        # The last statement's recorded watermark no longer matches what
        # replaying it allocates: commit detects the divergence after
        # every statement's rows and requests went in.
        txn._recorder.statements[-1].post_local += 1
        expected = TransactionConflictError
    with pytest.raises(expected):
        txn.commit()
    engine.evaluator.journal = None
    assert_rolled_back(store, snap, before, next_id)
    assert store._snapshots == [snap]
    assert engine.execute("string($doc/r)").first_value() == "onetwo"
