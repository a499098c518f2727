"""Property: a checkpoint written from the row image is a full encode.

A durable engine's checkpoint re-encodes only the records the store
offered to its :class:`~repro.persist.RowImage` since the last one and
reuses the cached encoding of every other row.  For random sequences of
store changes — Δs of inserts (first/last/before/after, attribute
payloads included), deletes, renames and value replacements (attributes
too) under all three application semantics, atomic Δs that fail part
way so ``rollback_undo`` runs, transaction commits (``install_rows``),
``Store.gc`` (``drop_records``) and ``Store.load_rows`` of an earlier
table (which detaches the image) — the checkpoint taken after every
step must be byte-equal to a from-scratch encode of the engine, and
must load back into a store that passes ``check_invariants()``.
"""

import json
import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro.durability import DurableEngine
from repro.durability.manifest import read_manifest
from repro.errors import ConflictError, UpdateApplicationError, XQueryError
from repro.persist import load_engine
from repro.semantics.conflicts import check_conflict_free
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    RenameRequest,
    SetValueRequest,
    apply_update_list,
)
from repro.xdm.store import NodeKind

from tests.dump_reference import reference_dump

DOC = '<r><a k="1">t1<d/></a><b k="2">t2</b><c k="3"/></r>'
NAMES = ["a", "b", "k", "x"]
TEXTS = ["", "v w", "t1", "fresh"]
STEPS = ["delta", "failed", "commit", "gc", "load_rows"]
COMMITS = [
    'snap {{ insert {{ <t n="{n}">x{n}</t> }} into {{ $doc/r }} }}',
    'snap {{ insert {{ attribute m {{ "{n}" }} }} into {{ $doc/r/*[1] }} }}',
    "snap {{ delete {{ $doc/r/*[last()] }} }}",
    'snap {{ rename {{ $doc/r/*[1] }} to {{ "n{n}" }} }}',
    'snap {{ replace value of {{ $doc/r/*[1]/@k }} with {{ "{n}" }} }}',
]


def doc_nodes(store, root):
    out = []
    for nid in store.descendants(root, include_self=True):
        out.append(nid)
        out.extend(store.attributes(nid))
    return out


def payload(rng, store):
    kind = rng.choice(("element", "attribute", "text"))
    if kind == "element":
        node = store.create_element(rng.choice(NAMES))
        store.set_attribute(node, store.create_attribute("k", "p"))
        store.append_child(node, store.create_text(rng.choice(TEXTS)))
        return node
    if kind == "attribute":
        return store.create_attribute(rng.choice(NAMES), rng.choice(TEXTS))
    return store.create_text(rng.choice(TEXTS))


def draw_request(rng, store, root):
    """One request against the document as it stands, or None when the
    drawn shape has no target left."""
    shape = rng.choice(
        ("first", "last", "before", "after", "delete", "rename", "value")
    )
    kinds = {
        "first": (NodeKind.DOCUMENT, NodeKind.ELEMENT),
        "last": (NodeKind.DOCUMENT, NodeKind.ELEMENT),
        "rename": (NodeKind.ELEMENT, NodeKind.ATTRIBUTE),
    }.get(shape, tuple(NodeKind))
    targets = [
        n
        for n in doc_nodes(store, root)
        if store.kind(n) in kinds
        and (n != root or shape in ("first", "last"))
        and not (
            shape in ("before", "after")
            and store.kind(n) is NodeKind.ATTRIBUTE
        )
    ]
    if not targets:
        return None
    target = rng.choice(targets)
    if shape in ("first", "last", "before", "after"):
        node = payload(rng, store)
        while shape in ("before", "after") and (
            store.kind(node) is NodeKind.ATTRIBUTE
        ):
            node = payload(rng, store)
        return InsertRequest((node,), shape, target)
    if shape == "delete":
        return DeleteRequest(target)
    if shape == "rename":
        return RenameRequest(target, rng.choice(NAMES))
    return SetValueRequest(target, rng.choice(TEXTS))


def apply_delta(rng, store, root, semantics, poison=False):
    delta = []
    for _ in range(rng.randint(1, 4)):
        request = draw_request(rng, store, root)
        if request is not None:
            delta.append(request)
    if poison:
        # Renaming a text node fails at application time, after the
        # requests before it already changed the store.
        delta.insert(
            rng.randint(0, len(delta)),
            RenameRequest(store.create_text("poison"), "x"),
        )
    permutation = None
    if semantics is ApplySemantics.NONDETERMINISTIC:
        permutation = list(range(len(delta)))
        rng.shuffle(permutation)
    elif semantics is ApplySemantics.CONFLICT_DETECTION:
        try:
            check_conflict_free(delta)
        except ConflictError:
            return
    try:
        apply_update_list(store, delta, semantics, permutation, atomic=True)
    except UpdateApplicationError:
        # Attribute-name clashes and anchors a delete detached fail
        # mid-Δ too: either way the undo log rolls the store back.
        pass


def checkpoint_matches(engine, path):
    engine.checkpoint()
    checkpoint = os.path.join(path, read_manifest(path)["checkpoint"])
    with open(checkpoint, encoding="utf-8") as handle:
        written = handle.read()
    assert written == reference_dump(engine)
    load_engine(checkpoint).store.check_invariants()
    return written


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10_000),
    st.lists(
        st.tuples(
            st.sampled_from(STEPS), st.sampled_from(list(ApplySemantics))
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_checkpoint_bytes_equal_a_full_encode(seed, steps):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d")
        engine = DurableEngine(
            path, fsync="never", compact_max_records=None,
            compact_max_bytes=None,
        )
        engine.load_document("doc", DOC)
        store = engine.store
        root = engine.evaluator.documents["doc"].nid
        tables = [json.loads(checkpoint_matches(engine, path))]
        for step, semantics in steps:
            if step in ("delta", "failed"):
                apply_delta(rng, store, root, semantics, step == "failed")
            elif step == "commit":
                query = rng.choice(COMMITS).format(n=rng.randint(0, 99))
                try:
                    with (
                        engine.session() as session,
                        session.transaction() as txn,
                    ):
                        txn.execute(query)
                except XQueryError:
                    pass  # e.g. no target left: the transaction rolls back
            elif step == "gc":
                store.gc([root])
            else:
                table = rng.choice(tables)
                store.load_rows(table["records"], table["next_id"])
            tables.append(json.loads(checkpoint_matches(engine, path)))
        engine.close()


def test_save_engine_writes_the_reference_bytes(tmp_path):
    from repro import Engine
    from repro.persist import save_engine

    engine = Engine()
    engine.load_document("doc", DOC)
    engine.bind("n", 3)
    target = str(tmp_path / "dump.json")
    save_engine(engine, target)
    with open(target, encoding="utf-8") as handle:
        assert handle.read() == reference_dump(engine)
