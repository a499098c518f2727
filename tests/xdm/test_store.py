"""Unit tests for the XDM node store (paper Section 3.2)."""

import pytest

from repro.errors import StoreError, UpdateApplicationError
from repro.xdm.store import NodeKind, Store


@pytest.fixture
def store() -> Store:
    return Store()


def build_tree(store: Store) -> dict[str, int]:
    """<a x="1"><b>text</b><c/></a> plus a free-standing <free/>."""
    a = store.create_element("a")
    b = store.create_element("b")
    c = store.create_element("c")
    t = store.create_text("text")
    x = store.create_attribute("x", "1")
    free = store.create_element("free")
    store.append_child(a, b)
    store.append_child(b, t)
    store.append_child(a, c)
    store.set_attribute(a, x)
    return {"a": a, "b": b, "c": c, "t": t, "x": x, "free": free}


class TestConstructorsAndAccessors:
    def test_element_kind_and_name(self, store):
        nid = store.create_element("item")
        assert store.kind(nid) is NodeKind.ELEMENT
        assert store.name(nid) == "item"
        assert store.parent(nid) is None
        assert store.children(nid) == ()

    def test_empty_element_name_rejected(self, store):
        with pytest.raises(StoreError):
            store.create_element("")

    def test_attribute_value(self, store):
        nid = store.create_attribute("id", "42")
        assert store.kind(nid) is NodeKind.ATTRIBUTE
        assert store.value(nid) == "42"

    def test_text_comment_pi(self, store):
        t = store.create_text("hi")
        c = store.create_comment("note")
        p = store.create_processing_instruction("target", "data")
        assert store.kind(t) is NodeKind.TEXT
        assert store.kind(c) is NodeKind.COMMENT
        assert store.kind(p) is NodeKind.PROCESSING_INSTRUCTION
        assert store.name(p) == "target"

    def test_unknown_node_id(self, store):
        with pytest.raises(StoreError):
            store.kind(999)

    def test_string_value_concatenates_descendant_text(self, store):
        ids = build_tree(store)
        extra = store.create_text("-more")
        store.append_child(ids["c"], extra)
        assert store.string_value(ids["a"]) == "text-more"
        assert store.string_value(ids["x"]) == "1"

    def test_attribute_named(self, store):
        ids = build_tree(store)
        assert store.attribute_named(ids["a"], "x") == ids["x"]
        assert store.attribute_named(ids["a"], "nope") is None

    def test_root_and_ancestors(self, store):
        ids = build_tree(store)
        assert store.root(ids["t"]) == ids["a"]
        assert list(store.ancestors(ids["t"])) == [ids["b"], ids["a"]]

    def test_descendants_in_document_order(self, store):
        ids = build_tree(store)
        assert list(store.descendants(ids["a"])) == [ids["b"], ids["t"], ids["c"]]

    def test_size_counts_subtree_and_attributes(self, store):
        ids = build_tree(store)
        assert store.size(ids["a"]) == 5  # a, x, b, t, c


class TestMutators:
    def test_append_child_sets_parent(self, store):
        ids = build_tree(store)
        store.append_child(ids["c"], ids["free"])
        assert store.parent(ids["free"]) == ids["c"]

    def test_insert_requires_parentless_node(self, store):
        ids = build_tree(store)
        with pytest.raises(UpdateApplicationError):
            store.append_child(ids["a"], ids["b"])  # b already has a parent

    def test_cannot_insert_into_text(self, store):
        ids = build_tree(store)
        with pytest.raises(UpdateApplicationError):
            store.append_child(ids["t"], ids["free"])

    def test_cycle_rejected(self, store):
        ids = build_tree(store)
        # a is a parentless root; inserting it under its own descendant c
        # would create a cycle.
        with pytest.raises(UpdateApplicationError):
            store.append_child(ids["c"], ids["a"])

    def test_insert_before_after(self, store):
        ids = build_tree(store)
        n1 = store.create_element("n1")
        n2 = store.create_element("n2")
        store.insert_after(ids["a"], ids["b"], n1)
        store.insert_before(ids["a"], ids["b"], n2)
        assert store.children(ids["a"]) == (n2, ids["b"], n1, ids["c"])

    def test_insert_anchor_must_be_child(self, store):
        ids = build_tree(store)
        with pytest.raises(UpdateApplicationError):
            store.insert_after(ids["a"], ids["t"], ids["free"])

    def test_insert_position_out_of_range(self, store):
        ids = build_tree(store)
        with pytest.raises(UpdateApplicationError):
            store.insert_child_at(ids["a"], 7, ids["free"])

    def test_detach_is_idempotent(self, store):
        ids = build_tree(store)
        store.detach(ids["b"])
        assert store.parent(ids["b"]) is None
        assert store.children(ids["a"]) == (ids["c"],)
        store.detach(ids["b"])  # no-op, no error
        # The detached subtree is still intact (paper Section 3.1).
        assert store.string_value(ids["b"]) == "text"

    def test_detach_attribute(self, store):
        ids = build_tree(store)
        store.detach(ids["x"])
        assert store.attributes(ids["a"]) == ()
        assert store.value(ids["x"]) == "1"

    def test_set_attribute_replaces_same_name(self, store):
        ids = build_tree(store)
        x2 = store.create_attribute("x", "2")
        store.set_attribute(ids["a"], x2)
        assert store.attribute_named(ids["a"], "x") == x2
        assert store.parent(ids["x"]) is None  # old one detached

    def test_set_attribute_rejects_non_attribute(self, store):
        ids = build_tree(store)
        with pytest.raises(UpdateApplicationError):
            store.set_attribute(ids["a"], ids["free"])

    def test_rename_element_and_attribute(self, store):
        ids = build_tree(store)
        store.rename(ids["b"], "renamed")
        store.rename(ids["x"], "y")
        assert store.name(ids["b"]) == "renamed"
        assert store.name(ids["x"]) == "y"

    def test_rename_text_rejected(self, store):
        ids = build_tree(store)
        with pytest.raises(UpdateApplicationError):
            store.rename(ids["t"], "nope")

    def test_rename_attribute_onto_sibling_name_rejected(self, store):
        ids = build_tree(store)
        other = store.create_attribute("y", "2")
        store.set_attribute(ids["a"], other)
        with pytest.raises(UpdateApplicationError) as info:
            store.rename(other, "x")
        assert info.value.code == "XUDY0021"
        assert store.name(other) == "y"
        store.rename(other, "y")  # renaming to its own name is a no-op
        store.check_invariants()

    def test_set_value(self, store):
        ids = build_tree(store)
        store.set_value(ids["t"], "new")
        assert store.string_value(ids["a"]) == "new"
        with pytest.raises(UpdateApplicationError):
            store.set_value(ids["a"], "elements have no value")


class TestDocumentOrder:
    def test_total_order_within_tree(self, store):
        ids = build_tree(store)
        order = store.sort_document_order(
            [ids["c"], ids["t"], ids["a"], ids["b"], ids["x"]]
        )
        assert order == [ids["a"], ids["x"], ids["b"], ids["t"], ids["c"]]

    def test_attributes_before_children(self, store):
        ids = build_tree(store)
        assert store.compare_order(ids["x"], ids["b"]) == -1
        assert store.compare_order(ids["a"], ids["x"]) == -1

    def test_cross_tree_order_stable(self, store):
        ids = build_tree(store)
        assert store.compare_order(ids["a"], ids["free"]) == -1
        assert store.compare_order(ids["free"], ids["a"]) == 1

    def test_compare_self(self, store):
        ids = build_tree(store)
        assert store.compare_order(ids["b"], ids["b"]) == 0

    def test_sort_deduplicates(self, store):
        ids = build_tree(store)
        assert store.sort_document_order([ids["b"], ids["b"]]) == [ids["b"]]

    def test_order_cache_invalidation(self, store):
        ids = build_tree(store)
        assert store.compare_order(ids["b"], ids["c"]) == -1
        # Move c before b; cached keys must refresh.
        store.detach(ids["c"])
        store.insert_child_at(ids["a"], 0, ids["c"])
        assert store.compare_order(ids["b"], ids["c"]) == 1


class TestDeepCopy:
    def test_copy_is_parentless_with_fresh_ids(self, store):
        ids = build_tree(store)
        copy = store.deep_copy(ids["a"])
        assert store.parent(copy) is None
        assert copy != ids["a"]
        assert store.string_value(copy) == "text"
        assert store.name(copy) == "a"
        copied_attr = store.attribute_named(copy, "x")
        assert copied_attr is not None and copied_attr != ids["x"]

    def test_copy_is_independent(self, store):
        ids = build_tree(store)
        copy = store.deep_copy(ids["a"])
        store.rename(ids["b"], "changed")
        copied_b = store.children(copy)[0]
        assert store.name(copied_b) == "b"


class TestGC:
    def test_gc_reclaims_unreachable(self, store):
        ids = build_tree(store)
        store.detach(ids["b"])
        reclaimed = store.gc(live_roots=[ids["a"]])
        assert reclaimed == 3  # b, its text, and <free/>
        assert ids["b"] not in store
        assert ids["a"] in store

    def test_gc_keeps_detached_but_referenced(self, store):
        ids = build_tree(store)
        store.detach(ids["b"])
        reclaimed = store.gc(live_roots=[ids["a"], ids["b"]])
        assert reclaimed == 1  # only <free/>
        assert ids["t"] in store  # kept via b


class TestInvariants:
    def test_invariants_hold_after_mutations(self, store):
        ids = build_tree(store)
        store.detach(ids["b"])
        store.append_child(ids["c"], ids["b"])
        store.rename(ids["a"], "z")
        store.check_invariants()

    def test_invariants_detect_corruption(self, store):
        ids = build_tree(store)
        # Corrupt directly: duplicate child entry.
        store._records[ids["a"]].children.append(ids["b"])
        with pytest.raises(StoreError):
            store.check_invariants()
