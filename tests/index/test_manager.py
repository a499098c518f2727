"""The value-index manager: indexes that live as long as their store,
O(|op|) maintenance, probe supersets, and the stale-index regressions
around update, rollback and reload."""

import pytest

from repro.engine import Engine
from repro.errors import UpdateApplicationError
from repro.persist import load_engine, save_engine
from repro.errors import StoreError
from repro.index.manager import IndexManager, token_matcher, tokenize
from repro.xdm import NodeKind, Store


def build_doc(store):
    """<doc><a k="1">hello world</a><b k="2">goodbye</b></doc>"""
    root = store.create_element("doc")
    a = store.create_element("a")
    store.set_attribute(a, store.create_attribute("k", "1"))
    ta = store.create_text("hello world")
    store.append_child(a, ta)
    b = store.create_element("b")
    store.set_attribute(b, store.create_attribute("k", "2"))
    tb = store.create_text("goodbye")
    store.append_child(b, tb)
    store.append_child(root, a)
    store.append_child(root, b)
    return root, a, b, ta, tb


def dump_rows(store):
    """The store's records as :meth:`Store.load_rows` rows."""
    return [
        (
            nid,
            store.kind(nid),
            store.name(nid),
            store.parent(nid),
            store.children(nid),
            store.attributes(nid),
            store.value(nid),
        )
        for nid in store.node_ids()
    ]


class TestTokenMatcher:
    def test_single_token_needle_matches_containing_token(self):
        matcher = token_matcher("ell")
        assert matcher("hello")
        assert not matcher("world")

    def test_empty_and_leading_whitespace_needles_unanchorable(self):
        assert token_matcher("") is None
        assert token_matcher(" x") is None
        assert token_matcher("\tx") is None

    def test_multi_token_needle_matches_first_token_suffix(self):
        # needle "lo wor" inside "hello world": the holding token of the
        # occurrence start is "hello", which ends with "lo".
        matcher = token_matcher("lo wor")
        assert matcher("hello")
        assert not matcher("world" + "x")

    def test_overlap_catches_tokens_shorter_than_first_word(self):
        # Token "ab" is shorter than first needle word "abc" but overlaps
        # its prefix — the occurrence can start inside "ab" and continue
        # in an adjacent text node.
        matcher = token_matcher("abc")
        assert matcher("ab")
        assert matcher("a")
        assert not matcher("c")

    def test_tokenize_is_whitespace_split(self):
        assert tokenize("  a\tb \n c ") == ["a", "b", "c"]


class TestLazyBuildAndMaintenance:
    """Build and maintenance: the postings are written as nodes are
    allocated, so nothing is ever built lazily."""

    def test_fresh_store_answers_without_rebuild(self):
        store = Store()
        root, a, _, ta, _ = build_doc(store)
        (aid,) = store.attr_eq_probe("k", "1")
        assert store.parent(aid) == a
        assert ta in store.token_probe("hello")
        assert store.indexes.rebuilds == 0
        store.indexes.verify()

    def test_attr_probe_finds_attribute_nodes(self):
        store = Store()
        root, a, b, _, _ = build_doc(store)
        (aid,) = store.attr_eq_probe("k", "1")
        assert store.kind(aid) is NodeKind.ATTRIBUTE
        assert store.parent(aid) == a

    def test_token_probe_is_a_verified_superset(self):
        store = Store()
        root, a, b, ta, tb = build_doc(store)
        tids = store.token_probe("hello")
        assert ta in tids
        assert tb not in tids

    def test_token_probe_spanning_text_boundary(self):
        # <p><x>ab</x><y>cd</y></p>: string value "abcd" contains "bc",
        # but no single text node does — the overlap predicate must keep
        # the first text node as a candidate.
        store = Store()
        p = store.create_element("p")
        x = store.create_element("x")
        tx = store.create_text("ab")
        store.append_child(x, tx)
        y = store.create_element("y")
        ty = store.create_text("cd")
        store.append_child(y, ty)
        store.append_child(p, x)
        store.append_child(p, y)
        tids = store.token_probe("bc")
        assert tx in tids

    def test_set_value_moves_postings(self):
        store = Store()
        root, a, b, ta, tb = build_doc(store)
        store.set_value(ta, "changed entirely")
        assert ta not in store.token_probe("hello")
        assert ta in store.token_probe("changed")
        store.indexes.verify()

    def test_attribute_set_value_and_rename_maintained(self):
        store = Store()
        root, a, b, _, _ = build_doc(store)
        (aid,) = store.attr_eq_probe("k", "1")
        store.set_value(aid, "9")
        assert store.attr_eq_probe("k", "1") == ()
        assert store.attr_eq_probe("k", "9") == (aid,)
        store.rename(aid, "kk")
        assert store.attr_eq_probe("k", "9") == ()
        assert store.attr_eq_probe("kk", "9") == (aid,)
        store.indexes.verify()

    def test_gc_frees_postings(self):
        store = Store()
        root, a, b, ta, tb = build_doc(store)
        store.detach(a)
        store.gc([root])
        assert ta not in store.token_probe("hello")
        store.indexes.verify()

    def test_maintenance_is_counted(self):
        store = Store()
        root, a, b, ta, _ = build_doc(store)
        before = store.indexes.maintained
        store.set_value(ta, "x")
        assert store.indexes.maintained > before

    def test_verify_detects_corruption(self):
        store = Store()
        build_doc(store)
        store.indexes.token_index["bogus"] = {999}
        with pytest.raises(StoreError):
            store.indexes.verify()


class TestStaleIndexRegression:
    """An in-place rename/replace through the update language must never
    leave stale postings behind, and neither may a rolled-back atomic
    snap or a persistence load, which rebinds the whole record table."""

    DOC = (
        "<inventory>"
        "<item id='a'><name>widget</name></item>"
        "<item id='b'><name>sprocket</name></item>"
        "</inventory>"
    )

    def fresh(self):
        engine = Engine()
        engine.load_document("doc", self.DOC)
        return engine

    def test_replace_value_via_update_language(self):
        engine = self.fresh()
        store = engine.store
        assert len(store.token_probe("widget")) == 1
        engine.execute(
            "snap { replace value of { $doc//item[@id='a']/name } "
            "with { 'gadget' } }"
        )
        assert len(store.token_probe("gadget")) == 1
        # Replacing an element's value detaches the old text node; once
        # it is reclaimed its posting must go with it.
        engine.gc()
        assert store.token_probe("widget") == ()
        store.indexes.verify()

    def test_rename_via_update_language(self):
        engine = self.fresh()
        store = engine.store
        (aid,) = store.attr_eq_probe("id", "a")
        engine.execute(
            "snap { rename { $doc//item[@id='a']/@id } to { 'ident' } }"
        )
        assert store.attr_eq_probe("id", "a") == ()
        assert store.attr_eq_probe("ident", "a") == (aid,)
        store.indexes.verify()

    def test_touch_leaves_postings_intact(self):
        engine = self.fresh()
        store = engine.store
        attr = dict(store.indexes.attr_index)
        tokens = dict(store.indexes.token_index)
        store._touch()  # clears order keys only
        assert store.indexes.attr_index == attr
        assert store.indexes.token_index == tokens
        assert len(store.token_probe("widget")) == 1
        assert store.indexes.rebuilds == 0

    def test_failed_atomic_snap_keeps_index_without_rebuild(self):
        engine = Engine(atomic_snaps=True)
        engine.load_document("doc", self.DOC)
        store = engine.store
        before = store.indexes.rebuilds
        (aid,) = store.attr_eq_probe("id", "a")
        (text,) = store.token_probe("sprocket")
        # The rename, the revalue and the delete apply, then the insert
        # finds its anchor detached mid-Δ: the undo log rolls back.
        with pytest.raises(UpdateApplicationError):
            engine.execute(
                "snap { rename { $doc//item[@id='a']/@id } to { 'ident' },"
                " replace value of { $doc//item[@id='b']/name } "
                "with { 'cog' },"
                " delete { $doc//item[@id='b'] },"
                " insert { <x/> } after { $doc//item[@id='b'] } }"
            )
        assert store.indexes.rebuilds == before
        store.indexes.verify()
        assert store.attr_eq_probe("id", "a") == (aid,)
        assert store.attr_eq_probe("ident", "a") == ()
        assert store.token_probe("sprocket") == (text,)
        assert store.token_probe("cog") == ()

    def test_load_engine_rebuilds_once_and_verifies(self, tmp_path):
        engine = self.fresh()
        engine.execute(
            "snap { replace value of { $doc//item[@id='a']/name } "
            "with { 'gadget' } }"
        )
        path = str(tmp_path / "db.json")
        save_engine(engine, path)
        loaded = load_engine(path)
        store = loaded.store
        assert store.indexes.rebuilds == 1
        store.indexes.verify()
        assert len(store.token_probe("gadget")) == 1
        assert len(store.attr_eq_probe("id", "b")) == 1

    def test_check_invariants_covers_indexes(self):
        engine = self.fresh()
        engine.store.check_invariants()


class TestCounters:
    def test_probe_and_hit_counters(self):
        store = Store()
        build_doc(store)
        store.attr_eq_probe("k", "1")
        store.token_probe("hello")
        counters = store.indexes.counters()
        assert counters["probes"] == 2
        assert counters["hits"] >= 2
        assert counters["rebuilds"] == 0
        assert counters["rebuild_ms"] == 0

    def test_index_counters_flow_into_query_stats(self):
        engine = Engine()
        engine.load_document(
            "doc", "<doc><p id='x'>alpha</p><p id='y'>beta</p></doc>"
        )
        result = engine.execute(
            "$doc//p[@id = 'x']", collect_stats=True
        )
        assert result.stats.counters.get("index.probes", 0) >= 1
        # The document was indexed while it was parsed: the query
        # probes without building anything.
        assert result.stats.counters.get("index.rebuilds", 0) == 0


class TestSnapshotProbes:
    def test_snapshot_of_unwritten_store_answers_probes(self):
        store = Store()
        root, a, b, ta, _ = build_doc(store)
        snap = store.begin_snapshot()
        (aid,) = snap.attr_eq_probe("k", "1")
        assert snap.parent(aid) == a
        assert snap.token_probe("hello") == (ta,)
        assert store.indexes.rebuilds == 0
        store.release_snapshot(snap)

    def test_snapshot_keeps_its_indexes_across_restore(self):
        # Reloading rows rebinds the record table and the indexes; a
        # snapshot opened before it keeps answering from the set it
        # captured, even after the live store moves on.
        store = Store()
        root, a, b, ta, _ = build_doc(store)
        rows = dump_rows(store)
        snap = store.begin_snapshot()
        store.load_rows(rows, store._next_id)
        assert snap.detached
        (aid,) = store.attr_eq_probe("k", "1")
        store.set_value(aid, "9")
        store.set_value(ta, "changed")
        assert snap.attr_eq_probe("k", "1") == (aid,)
        assert snap.attr_eq_probe("k", "9") == ()
        assert snap.token_probe("hello") == (ta,)
        store.check_invariants()

    def test_snapshot_sees_pre_mutation_postings(self):
        store = Store()
        root, a, b, ta, _ = build_doc(store)
        snap = store.begin_snapshot()
        store.set_value(ta, "changed")
        # Live index moved on; the snapshot probe recovers the pre-image.
        assert ta not in store.token_probe("hello")
        assert ta in snap.token_probe("hello")
        assert ta not in snap.token_probe("changed")
        store.release_snapshot(snap)

    def test_snapshot_attr_probe_filters_post_ceiling_nodes(self):
        store = Store()
        root, a, b, _, _ = build_doc(store)
        snap = store.begin_snapshot()
        c = store.create_element("c")
        store.set_attribute(c, store.create_attribute("k", "1"))
        store.append_child(root, c)
        live = store.attr_eq_probe("k", "1")
        assert len(live) == 2
        assert len(snap.attr_eq_probe("k", "1")) == 1
        store.release_snapshot(snap)
