"""Path-scoped attribute postings: each posting is keyed by the
attribute's name and value and by its owner's and the owner's parent's
names, the store's mutators move the postings whose path they change,
and a probe that passes a path reads only the postings on it.

``IndexManager.verify()`` rebuilds the index from the records (which
computes every key from the current names) and compares, so each test
that mutates ends with it."""

import sys
import threading
import time

from repro.engine import Engine
from repro.xdm.store import Store


def doc(store: Store) -> tuple[int, int, int, int]:
    """``<site><people><person id="p1"/></people></site>``: ids of site,
    people, person and the id attribute."""
    site = store.create_element("site")
    people = store.create_element("people")
    person = store.create_element("person")
    store.append_child(site, people)
    store.append_child(people, person)
    aid = store.create_attribute("id", "p1")
    store.set_attribute(person, aid)
    return site, people, person, aid


def probe(store, path):
    return store.attr_eq_probe("id", "p1", None, path)


class TestProbePaths:
    def test_a_path_narrows_the_postings(self):
        store = Store()
        _, _, _, aid = doc(store)
        item = store.create_element("item")
        store.set_attribute(item, store.create_attribute("id", "p1"))
        assert len(probe(store, ())) == 2
        assert probe(store, ("person",)) == (aid,)
        assert probe(store, ("person", "people")) == (aid,)
        assert probe(store, ("person", "site")) == ()
        assert probe(store, ("item", None)) != ()
        store.indexes.verify()

    def test_limit_counts_only_postings_on_the_path(self):
        store = Store()
        _, _, _, aid = doc(store)
        for _ in range(3):
            other = store.create_element("person")
            store.set_attribute(other, store.create_attribute("id", "p1"))
        assert store.attr_eq_probe("id", "p1", 1) is None
        assert store.attr_eq_probe("id", "p1", 1, ("person", "people")) == (
            aid,
        )

    def test_parsed_attributes_are_keyed_at_birth(self):
        engine = Engine()
        engine.load_document(
            "d", "<site><people><person id='p1'/></people></site>"
        )
        store = engine.store
        (aid,) = probe(store, ("person", "people"))
        assert store.name(store.parent(aid)) == "person"
        store.indexes.verify()


class TestReKeys:
    def test_detach_and_attach_move_only_the_own_attributes(self):
        store = Store()
        site, people, person, aid = doc(store)
        store.detach(people)
        # people has no attributes; person's key names person and people,
        # which did not change.
        assert probe(store, ("person", "people")) == (aid,)
        store.detach(person)
        assert probe(store, ("person", None)) == (aid,)
        store.append_child(site, person)
        assert probe(store, ("person", "site")) == (aid,)
        store.indexes.verify()

    def test_renaming_an_owner_and_a_parent(self):
        store = Store()
        _, people, person, aid = doc(store)
        store.rename(people, "folk")
        assert probe(store, ("person", "people")) == ()
        assert probe(store, ("person", "folk")) == (aid,)
        store.rename(person, "persona")
        assert probe(store, ("person",)) == ()
        assert probe(store, ("persona", "folk")) == (aid,)
        store.indexes.verify()

    def test_attribute_detach_rename_revalue(self):
        store = Store()
        _, _, _, aid = doc(store)
        store.set_value(aid, "p2")
        assert store.attr_eq_probe("id", "p2", None, ("person", "people"))
        store.rename(aid, "ref")
        assert store.attr_eq_probe("ref", "p2", None, ("person",)) == (aid,)
        store.detach(aid)
        assert store.attr_eq_probe("ref", "p2", None, ("person",)) == ()
        # A parentless attribute has no owner to reach it by: no posting.
        assert store.attr_eq_probe("ref", "p2") == ()
        store.indexes.verify()
        person = store.create_element("person")
        store.set_attribute(person, aid)
        assert store.attr_eq_probe("ref", "p2", None, ("person", None)) == (
            aid,
        )
        store.indexes.verify()

    def test_a_constructed_attribute_is_keyed_once(self):
        engine = Engine()
        engine.bind("x", engine.parse_fragment("<x/>"))
        indexes = engine.store.indexes
        before = indexes.maintained
        engine.execute('snap insert { <mark n="1"/> } into { $x }')
        # Born parentless (no key), keyed when <mark> takes it, moved
        # once when <mark> goes under <x>.
        assert indexes.maintained - before == 2
        assert engine.store.attr_eq_probe("n", "1", None, ("mark", "x"))
        assert engine.store.attr_eq_probe("n", "1", None, ("mark", None)) == ()
        indexes.verify()

    def test_deep_copy_keys_each_attribute_on_its_copied_path(self):
        store = Store()
        site, _, _, _ = doc(store)
        copy = store.deep_copy(site)
        assert len(probe(store, ("person", "people"))) == 2
        (people_copy,) = store.children(copy)
        (person_copy,) = store.children(people_copy)
        store.detach(person_copy)
        assert len(probe(store, ("person", "people"))) == 1
        assert len(probe(store, ("person", None))) == 1
        store.indexes.verify()


class TestRawInstalls:
    def test_rows_in_any_order_get_their_final_key(self):
        source = Store()
        doc(source)
        rows = [
            (nid, rec.kind, rec.name, rec.parent, rec.children,
             rec.attributes, rec.value)
            for nid, rec in source._records.items()
        ]
        store = Store()
        # The attribute arrives before its owner and the owner's parent.
        assert store.install_rows(reversed(rows)) == len(rows)
        (aid,) = probe(store, ("person", "people"))
        assert store.kind(aid).value == "attribute"
        store.indexes.verify()

    def test_rollback_restores_the_keys(self):
        store = Store()
        site, people, person, aid = doc(store)
        log = store.begin_undo()
        store.rename(people, "folk")
        store.detach(person)
        store.append_child(site, store.create_element("extra"))
        store.rollback_undo(log)
        assert probe(store, ("person", "people")) == (aid,)
        store.indexes.verify()

    def test_gc_frees_a_whole_tree_of_postings(self):
        store = Store()
        site, people, _, _ = doc(store)
        store.detach(people)
        store.gc([site])
        assert probe(store, ()) == ()
        store.indexes.verify()


class TestSnapshots:
    def test_snapshot_reads_the_union_across_a_rename(self):
        store = Store()
        _, people, _, aid = doc(store)
        snap = store.begin_snapshot()
        store.rename(people, "folk")
        # The snapshot still sees people; the live key says folk.
        assert snap.attr_eq_probe("id", "p1", None, ("person", "people")) == (
            aid,
        )
        store.release_snapshot(snap)

    def test_a_re_key_offers_the_moved_attributes(self):
        # A reader that catches a posting between two keys finds its
        # pre-image in the overlay.
        store = Store()
        _, people, _, aid = doc(store)
        snap = store.begin_snapshot()
        store.rename(people, "folk")
        assert aid in snap._overlay
        store.release_snapshot(snap)

    def test_concurrent_readers_never_miss_a_re_keyed_posting(self):
        # A writer renames the owner's parent back and forth, moving the
        # posting between two keys each time, while snapshot readers
        # probe: a reader that reads the old key after the posting left
        # it and the new key before it arrived must still find it (in
        # the overlay).  A short switch interval makes that interleaving
        # likely within the time bound.
        store = Store()
        _, people, _, aid = doc(store)
        snap = store.begin_snapshot()
        stop = threading.Event()
        misses = []

        def read() -> None:
            while not stop.is_set():
                if aid not in snap.attr_eq_probe("id", "p1"):
                    misses.append(aid)

        readers = [threading.Thread(target=read) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            deadline = time.monotonic() + 0.5
            renames = 0
            while time.monotonic() < deadline:
                store.rename(people, ("folk", "people")[renames % 2])
                renames += 1
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        assert renames > 0
        assert not misses
        store.release_snapshot(snap)
