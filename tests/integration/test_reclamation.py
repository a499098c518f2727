"""Reclaiming unreachable nodes when a statement ends.

A tree is freed once no node of it is in the root set: the fn:doc
catalog, the global bindings, an open transaction's view, and every
node the host holds a handle to (a result, a navigation property, a
parse).  These tests pin each part of the root set, the candidates a
statement leaves behind, and the snapshot rule: a snapshot opened
before a detach still answers after the detached tree is freed."""

import gc
import sys
import threading

import pytest

from repro import Engine
from repro.concurrent.executor import ConcurrentExecutor
from repro.concurrent.snapshot import StoreSnapshot
from repro.errors import StoreError
from repro.xdm.nodes import HeldNode, Node, held_from_snapshot

DOC = '<r><a k="1"><b k="2">x</b></a><a k="3"><b k="4">y</b></a></r>'


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.load_document("d", DOC)
    return engine


def alive(engine: Engine, node: Node) -> bool:
    return node.nid in engine.store


class TestGcRootSet:
    def test_keeps_a_catalog_document_whose_global_was_rebound(self):
        engine = Engine()
        engine.load_document("d", "<r><a/></r>")
        engine.bind("d", 1)
        engine.gc()
        assert engine.execute('count(doc("d")//a)').first_value() == 1

    def test_keeps_a_result_the_host_holds(self):
        engine = Engine()
        n = engine.execute("<x><y/></x>").items[0]
        engine.gc()
        assert engine.serialize([n]) == "<x><y/></x>"

    def test_frees_a_result_the_host_dropped(self):
        engine = Engine()
        nid = engine.execute("<x><y/></x>").items[0].nid
        assert engine.gc() == 2
        assert nid not in engine.store


class TestStatementEnd:
    def test_a_delete_frees_the_detached_subtree(self, e):
        b = e.execute("($d//b)[1]").items[0].nid
        before = len(e.store)
        e.execute("snap delete { ($d//a)[1] }")
        # a, its @k, b, its @k and the text: five records.
        assert len(e.store) == before - 5
        assert b not in e.store
        assert e.store.nodes_reclaimed == 5

    def test_scratch_construction_is_freed(self, e):
        before = len(e.store)
        out = e.execute("count(<t><u/><u/></t>/u)")
        assert out.first_value() == 2
        assert len(e.store) == before

    def test_a_held_result_survives_its_delete(self, e):
        held = e.execute("$d//a")
        e.execute("snap delete { $d//a }")
        assert held.serialize() == (
            '<a k="1"><b k="2">x</b></a><a k="3"><b k="4">y</b></a>'
        )
        nids = [item.nid for item in held]
        del held
        e.execute("1")
        assert not any(nid in e.store for nid in nids)

    def test_a_navigation_handle_holds_its_tree(self, e):
        a = e.execute("($d//a)[1]").items[0]
        kids = a.children
        assert all(isinstance(kid, HeldNode) for kid in kids)
        del a
        e.execute("snap delete { ($d//a)[1] }")
        parent = kids[0].parent
        del kids
        e.execute("1")
        assert e.serialize([parent]) == '<a k="1"><b k="2">x</b></a>'
        nid = parent.nid
        del parent
        e.execute("1")
        assert nid not in e.store

    def test_a_walk_pins_as_it_goes(self):
        engine = Engine()
        rows = "".join(f"<a><b>{i}</b></a>" for i in range(500))
        engine.load_document("d", f"<r>{rows}</r>")
        root = engine.execute("$d/r").items[0]
        walk = root.descendants()
        first = next(walk)
        # One batch pinned, not the 1,500 nodes below <r>.
        assert len(engine.store._pins) < 100
        assert engine.serialize([first]) == "<a><b>0</b></a>"
        b = next(walk)
        del walk, root, first
        engine.execute("snap delete { ($d/r/a)[1] }")
        # The descendant's handle holds the tree the delete cut off.
        assert engine.serialize([b.parent]) == "<a><b>0</b></a>"

    def test_a_parsed_fragment_is_held_until_dropped(self, e):
        fragment = e.parse_fragment("<f><g/></f>")
        e.execute("1")
        assert alive(e, fragment)
        nid = fragment.nid
        del fragment
        e.execute("1")
        assert nid not in e.store

    def test_a_rebound_global_frees_its_old_tree(self, e):
        e.execute("declare variable $g := <g><h/></g>; 1")
        old = e.variable("g")[0].nid
        gc.collect()
        e.execute("declare variable $g := <g2/>; 1")
        assert old not in e.store
        assert e.execute("$g").serialize() == "<g2/>"

    def test_a_variable_read_stays_valid_after_rebinding(self, e):
        e.bind("g", e.parse_fragment("<g><h/></g>"))
        (g,) = e.variable("g")
        e.bind("g", 2)
        e.execute("1")
        assert e.serialize([g]) == "<g><h/></g>"

    def test_a_tree_whose_held_node_left_it_is_freed(self, e):
        e.execute("declare variable $x := <t><u/></t>/u; 1")
        t = e.execute("$x/..").items[0].nid
        gc.collect()
        e.execute("snap delete { $x }")
        assert t not in e.store
        assert e.execute("$x").serialize() == "<u/>"

    def test_a_callback_statement_frees_nothing_of_the_outer_one(self):
        engine = Engine(trace_sink=lambda message: engine.execute("1"))
        engine.load_document("d", DOC)
        out = engine.execute(
            "let $b := ($d//b)[1] "
            'return (snap delete { $b }, trace(1, "t"), $b)'
        )
        assert out.serialize() == '1<b k="2">x</b>'

    def test_a_module_loaded_in_another_thread_frees_nothing(self):
        # A reader thread's prepare loads a module, which runs a
        # statement; a writer's statement starts while that one is open,
        # builds a tree and has not attached it when the load ends.  The
        # load must not free the writer's tree.
        loading = threading.Event()
        writer_mid = threading.Event()
        load_done = threading.Event()

        def sink(message: str) -> None:
            if message.startswith("load"):
                loading.set()
                assert writer_mid.wait(10)
            elif message.startswith("writer"):
                writer_mid.set()
                assert load_done.wait(10)

        engine = Engine(trace_sink=sink)
        engine.load_document("d", DOC)
        engine.register_module(
            "urn:m",
            'module namespace m = "urn:m"; '
            'declare variable $m:x := trace(<m/>, "load");',
        )
        writer = engine.prepare(
            "let $n := <s><k/></s> "
            'return (trace(count($n//k), "writer"), count($n//k))'
        )

        def load() -> None:
            engine.prepare(
                'import module namespace m = "urn:m"; count($m:x)'
            )
            load_done.set()

        loader = threading.Thread(target=load)
        loader.start()
        assert loading.wait(10)
        out: list = []
        thread = threading.Thread(
            target=lambda: out.append(writer.execute().serialize())
        )
        thread.start()
        loader.join(20)
        thread.join(20)
        assert out == ["1 1"]
        # The writer's statement, the last to end, collected for both.
        query = 'import module namespace m = "urn:m"; count($m:x)'
        assert engine.execute(query).first_value() == 1

    def test_an_open_transaction_holds_what_its_view_can_name(self, e):
        with e.session() as session:
            txn = session.begin()
            txn.execute("declare variable $t := ($d//b)[1]; 1")
            e.execute("snap delete { ($d//a)[1] }")
            assert e.store.nodes_reclaimed == 0
            txn.execute('snap rename { $t } to { "c" }')
            txn.commit()
        # The transaction is over: the detached tree goes next time.
        e.execute("1")
        assert e.store.nodes_reclaimed == 5
        assert e.execute("count($d//c)").first_value() == 0


class TestSnapshots:
    def test_a_snapshot_answers_after_its_tree_is_freed(self):
        engine = Engine()
        rows = "".join(
            f'<t k="{i % 7}"><u k="{i}">{i}</u></t>' for i in range(60)
        )
        engine.load_document("d", f"<r>{rows}</r>")
        store = engine.store
        for round_ in range(6):
            snapshot = store.begin_snapshot()
            try:
                doc = engine.evaluator.documents["d"].nid
                before = {
                    key: sorted(snapshot.attr_eq_probe("k", key) or ())
                    for key in map(str, range(60))
                }
                names = sorted(snapshot.descendants_named(doc, "u"))
                texts = [snapshot.string_value(n) for n in names]
                engine.execute(
                    f'snap delete {{ $d/r/t[@k = "{round_}"] }}'
                )
                assert store.nodes_reclaimed > 0
                for key, ids in before.items():
                    assert sorted(
                        snapshot.attr_eq_probe("k", key) or ()
                    ) == ids
                assert sorted(snapshot.descendants_named(doc, "u")) == names
                assert [snapshot.string_value(n) for n in names] == texts
            finally:
                store.release_snapshot(snapshot)

    def test_a_snapshot_result_freed_live_keeps_its_snapshot_handle(self, e):
        store = e.store
        snapshot = store.begin_snapshot()
        try:
            a = e.execute("($d//a)[1]").items[0].nid
            e.execute("snap delete { ($d//a)[1] }")
            assert a not in store
            b = e.execute("($d//a)[1]").items[0].nid
            items = held_from_snapshot(
                [Node(snapshot, a), Node(snapshot, b)], store, snapshot
            )
        finally:
            store.release_snapshot(snapshot)
        assert isinstance(items[0].store, StoreSnapshot)
        assert e.serialize(items[:1]) == '<a k="1"><b k="2">x</b></a>'
        assert items[1].store is store and isinstance(items[1], HeldNode)

    def test_a_freed_handle_without_a_snapshot_is_gone(self, e):
        nid = e.execute("($d//a)[1]").items[0].nid
        e.execute("snap delete { ($d//a)[1] }")
        with pytest.raises(StoreError):
            e.serialize([Node(e.store, nid)])


def test_read_only_traffic_releases_its_pins():
    """Snapshot reads pin their results and end no statement: the pins
    of results the host dropped must still come off, so a read-only
    server does not grow with every request."""
    engine = Engine()
    engine.load_document("d", DOC)
    store = engine.store
    with ConcurrentExecutor(engine, workers=2, queue_size=64) as ex:
        for i in range(400):
            ex.submit(f"($d//a)[{1 + i % 2}]").result(timeout=60)
            assert len(store._released) <= 2
        gc.collect()
        ex.submit("($d//b)[1]").result(timeout=60)
    gc.collect()
    pin = store.hold(())  # drains the queue, as any new pin does
    doc = engine.evaluator.documents["d"].nid
    assert store._pins == {doc: 1}
    assert not store._released
    del pin


def test_pins_hold_under_concurrent_reads_and_writes():
    """Readers pin live handles while a writer detaches and frees: every
    handle a reader got must stay readable, and once all are dropped
    every pin count must be back to zero (a lost update would leave one
    behind, or free a held tree)."""
    engine = Engine()
    rows = "".join(f'<a k="{i}"><b>{i}</b></a>' for i in range(40))
    engine.load_document("d", f"<r>{rows}</r>")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ConcurrentExecutor(engine, workers=6, queue_size=512) as ex:
            futures = [
                ex.submit(
                    "snap { delete { ($d/r/a)[1] }, "
                    'insert { <a k="n"><b>n</b></a> } into { $d/r } }'
                    if i % 3 == 0
                    else f"($d/r/a)[{1 + i % 5}]"
                )
                for i in range(300)
            ]
            results = [future.result(timeout=60) for future in futures]
        for i, result in enumerate(results):
            if i % 3:
                assert result.serialize().startswith("<a k=")
        del futures, results, result
        gc.collect()
        engine.execute("1")
        # Only the parse handle the catalog and $d hold is left.
        doc = engine.evaluator.documents["d"].nid
        assert engine.store._pins == {doc: 1}
        engine.store.check_invariants()
    finally:
        sys.setswitchinterval(old)
