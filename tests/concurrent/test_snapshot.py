"""Copy-on-write store snapshots: isolation, memoization, locality."""

import pytest

from repro.errors import StoreError, UpdateApplicationError
from repro.xdm import NodeKind, Store


def build_tree(store):
    """<doc><a>x</a><b k="1">y</b></doc> — returns (root, a, b, text_a)."""
    root = store.create_element("doc")
    a = store.create_element("a")
    ta = store.create_text("x")
    store.append_child(a, ta)
    b = store.create_element("b")
    store.set_attribute(b, store.create_attribute("k", "1"))
    tb = store.create_text("y")
    store.append_child(b, tb)
    store.append_child(root, a)
    store.append_child(root, b)
    return root, a, b, ta


class TestIsolation:
    def test_snapshot_sees_pre_mutation_state(self):
        store = Store()
        root, a, b, _ = build_tree(store)
        snap = store.begin_snapshot()
        new = store.create_element("c")
        store.append_child(root, new)
        store.set_value(store.children(a)[0], "CHANGED")
        store.rename(b, "renamed")
        # Live store reflects the mutations...
        assert len(store.children(root)) == 3
        assert store.string_value(a) == "CHANGED"
        assert store.name(b) == "renamed"
        # ...the snapshot does not.
        assert len(snap.children(root)) == 2
        assert snap.string_value(a) == "x"
        assert snap.name(b) == "b"
        store.release_snapshot(snap)

    def test_snapshot_survives_detach_and_gc(self):
        store = Store()
        root, a, b, _ = build_tree(store)
        snap = store.begin_snapshot()
        store.detach(a)
        reclaimed = store.gc([root])
        assert reclaimed > 0
        # The snapshot still reads the detached subtree via its overlay.
        assert snap.string_value(a) == "x"
        assert snap.parent(a) == root
        assert [snap.name(c) for c in snap.children(root)] == ["a", "b"]
        store.release_snapshot(snap)

    def test_two_snapshots_see_their_own_epochs(self):
        store = Store()
        root, a, _, _ = build_tree(store)
        first = store.begin_snapshot()
        store.set_value(store.children(a)[0], "second-epoch")
        second = store.begin_snapshot()
        store.set_value(store.children(a)[0], "live")
        assert first.string_value(a) == "x"
        assert second.string_value(a) == "second-epoch"
        assert store.string_value(a) == "live"
        store.release_snapshot(first)
        store.release_snapshot(second)

    def test_release_is_idempotent(self):
        store = Store()
        build_tree(store)
        snap = store.begin_snapshot()
        store.release_snapshot(snap)
        store.release_snapshot(snap)

    def test_released_snapshot_stops_accumulating(self):
        store = Store()
        root, a, _, _ = build_tree(store)
        snap = store.begin_snapshot()
        store.release_snapshot(snap)
        store.set_value(store.children(a)[0], "after-release")
        # Reads now follow the live store (no overlay entries recorded).
        assert snap.string_value(a) == "after-release"


class TestDerivedData:
    def test_string_value_is_memoized(self):
        store = Store()
        root, *_ = build_tree(store)
        snap = store.begin_snapshot()
        assert snap.string_value(root) == "xy"
        assert root in snap._string_values
        assert snap.string_value(root) == "xy"
        store.release_snapshot(snap)

    def test_descendants_named_tracks_snapshot_not_live(self):
        store = Store()
        root, a, b, _ = build_tree(store)
        snap = store.begin_snapshot()
        store.rename(a, "gone")          # renamed away live
        extra = store.create_element("a")  # added live, post-snapshot
        store.append_child(root, extra)
        live = store.descendants_named(root, "a")
        snapped = snap.descendants_named(root, "a")
        assert live == [extra]
        assert snapped == [a]
        store.release_snapshot(snap)

    def test_document_order_matches_live_for_unchanged_tree(self):
        store = Store()
        root, a, b, _ = build_tree(store)
        snap = store.begin_snapshot()
        nids = [b, a, root]
        assert snap.sort_document_order(nids) == store.sort_document_order(
            nids
        )
        assert snap.compare_order(a, b) == -1
        store.release_snapshot(snap)


class TestLocalSpace:
    def test_constructed_nodes_live_above_the_ceiling(self):
        store = Store()
        root, *_ = build_tree(store)
        snap = store.begin_snapshot()
        local = snap.create_element("fresh")
        assert local >= snap.ceiling
        assert snap._is_local(local)
        assert snap.kind(local) is NodeKind.ELEMENT
        store.release_snapshot(snap)

    def test_local_tree_construction_and_mutation(self):
        store = Store()
        build_tree(store)
        snap = store.begin_snapshot()
        el = snap.create_element("out")
        text = snap.create_text("hello")
        snap.append_child(el, text)
        assert snap.string_value(el) == "hello"
        snap.set_value(text, "bye")
        assert snap.string_value(el) == "bye"
        store.release_snapshot(snap)

    def test_deep_copy_of_base_subtree_into_local_space(self):
        store = Store()
        root, a, _, _ = build_tree(store)
        snap = store.begin_snapshot()
        copy = snap.deep_copy(a)
        assert snap._is_local(copy)
        assert snap.name(copy) == "a"
        assert snap.string_value(copy) == "x"
        # The copy is mutable; the base original still is not.
        snap.rename(copy, "mine")
        assert snap.name(copy) == "mine"
        assert store.name(a) == "a"
        store.release_snapshot(snap)

    def test_base_nodes_are_read_only(self):
        store = Store()
        root, a, _, _ = build_tree(store)
        snap = store.begin_snapshot()
        with pytest.raises(UpdateApplicationError, match="read-only"):
            snap.rename(a, "nope")
        with pytest.raises(UpdateApplicationError, match="read-only"):
            snap.set_value(store.children(a)[0], "nope")
        with pytest.raises(UpdateApplicationError, match="read-only"):
            snap.append_child(root, snap.create_element("x"))
        store.release_snapshot(snap)

    def test_checkpoint_restore_rejected(self):
        store = Store()
        build_tree(store)
        snap = store.begin_snapshot()
        with pytest.raises(StoreError):
            snap.begin_undo()
        store.release_snapshot(snap)


class TestStoreLifecycle:
    def test_restore_detaches_snapshots(self):
        # Rebinding the whole record table (persistence load) detaches;
        # rolling back an atomic snap does not (tests/property/
        # test_undo_log.py).
        store = Store()
        root, *_ = build_tree(store)
        snap = store.begin_snapshot()
        store.load_rows([], 0)
        assert snap.detached
        # A detached snapshot still answers from what it froze; the
        # executor just refuses to route new queries onto it.
        assert snap.name(root) == "doc"
        assert store._snapshots == []

    def test_unknown_node_raises(self):
        store = Store()
        build_tree(store)
        snap = store.begin_snapshot()
        with pytest.raises(StoreError):
            snap.kind(10_000)
        store.release_snapshot(snap)
