"""Tests for the atomic-snap extension (failure containment).

The paper's Section 5 sketches using snap to control "the extent of
failure propagation"; `Engine(atomic_snaps=True)` realizes it: a Δ that
fails a precondition mid-application rolls the whole snap back.
"""

import pytest

from repro import Engine
from repro.errors import UpdateApplicationError
from repro.semantics.update import (
    ApplySemantics,
    DeleteRequest,
    InsertRequest,
    apply_update_list,
)
from repro.xdm.store import Store


def failing_delta(store: Store, root: int, child: int):
    """Two requests: a good rename-equivalent insert, then an insert whose
    anchor will have been detached (precondition failure)."""
    good = store.create_element("good")
    bad = store.create_element("bad")
    return [
        InsertRequest((good,), "last", root),
        DeleteRequest(child),
        InsertRequest((bad,), "after", child),  # child now parentless
    ]


class TestCheckpointRestore:
    """The store's undo log: begin_undo is the checkpoint, rollback_undo
    the restore, at the cost of the records touched in between."""

    def test_roundtrip(self):
        store = Store()
        root = store.create_element("root")
        child = store.create_element("child")
        store.append_child(root, child)
        store.set_attribute(root, store.create_attribute("k", "v"))
        undo = store.begin_undo()
        store.detach(child)
        store.rename(root, "changed")
        store.set_value(store.attributes(root)[0], "w")
        extra = store.create_element("extra")
        store.append_child(root, extra)
        store.rollback_undo(undo)
        assert store.name(root) == "root"
        assert store.children(root) == (child,)
        assert store.parent(child) == root
        assert extra not in store
        assert store.attr_eq_probe("k", "v") == store.attributes(root)
        assert store.descendants_named(root, "child") == [child]
        assert store._snapshots == []
        store.check_invariants()

    def test_restore_resets_allocation(self):
        store = Store()
        root = store.create_element("root")
        undo = store.begin_undo()
        junk = store.create_element("junk")
        store.rollback_undo(undo)
        fresh = store.create_element("fresh")
        assert fresh == junk and fresh != root
        store.check_invariants()

    def test_end_without_rollback_keeps_changes(self):
        store = Store()
        root = store.create_element("root")
        undo = store.begin_undo()
        store.rename(root, "kept")
        store.end_undo(undo)
        store.end_undo(undo)  # idempotent
        assert store.name(root) == "kept"
        assert store._snapshots == []


class TestAtomicApply:
    def setup_method(self):
        self.store = Store()
        self.root = self.store.create_element("root")
        self.child = self.store.create_element("child")
        self.store.append_child(self.root, self.child)

    def test_non_atomic_leaves_partial_state(self):
        delta = failing_delta(self.store, self.root, self.child)
        with pytest.raises(UpdateApplicationError):
            apply_update_list(self.store, delta, ApplySemantics.ORDERED)
        # The first insert and the delete happened before the failure.
        names = [self.store.name(c) for c in self.store.children(self.root)]
        assert names == ["good"]

    def test_atomic_rolls_back(self):
        delta = failing_delta(self.store, self.root, self.child)
        with pytest.raises(UpdateApplicationError):
            apply_update_list(
                self.store, delta, ApplySemantics.ORDERED, atomic=True
            )
        names = [self.store.name(c) for c in self.store.children(self.root)]
        assert names == ["child"]
        self.store.check_invariants()

    def test_atomic_success_applies_normally(self):
        fresh = self.store.create_element("fresh")
        delta = [InsertRequest((fresh,), "last", self.root)]
        apply_update_list(
            self.store, delta, ApplySemantics.ORDERED, atomic=True
        )
        assert fresh in self.store.children(self.root)


class TestEngineAtomicSnaps:
    def make(self, atomic: bool) -> Engine:
        engine = Engine(atomic_snaps=atomic)
        engine.bind("x", engine.parse_fragment("<x><a/><b/></x>"))
        return engine

    FAILING = """
        snap { insert { <ok/> } into { $x },
               delete { $x/a },
               insert { <bad/> } after { $x/a } }
    """

    def test_atomic_engine_rolls_back(self):
        engine = self.make(atomic=True)
        with pytest.raises(UpdateApplicationError):
            engine.execute(self.FAILING)
        assert engine.execute("$x").serialize() == "<x><a/><b/></x>"

    def test_non_atomic_engine_partial(self):
        engine = self.make(atomic=False)
        with pytest.raises(UpdateApplicationError):
            engine.execute(self.FAILING)
        # ok inserted, a deleted, then failure: partial state remains.
        assert engine.execute("$x").serialize() == "<x><b/><ok/></x>"

    def test_atomic_applies_clean_deltas(self):
        engine = self.make(atomic=True)
        engine.execute("insert { <ok/> } into { $x }")
        assert engine.execute("count($x/ok)").first_value() == 1

    def test_atomic_with_optimizer(self):
        engine = Engine(atomic_snaps=True)
        engine.bind("x", engine.parse_fragment("<x><a/></x>"))
        engine.bind("s", [1, 2, 3])
        engine.execute(
            "for $i in $s return insert { <n/> } into { $x }", optimize=True
        )
        assert engine.execute("count($x/n)").first_value() == 3
