"""Property: indexed execution is observationally equivalent to
unindexed execution — for randomized XMark-style queries, for child-axis
key lookups with positional and value tails, across random update
sequences, across transactional commits and rolled-back snaps, for
snapshot readers taken mid-update-stream, and for statements inside a
transaction that read its own buffered writes.

The fast paths only ever *narrow* work (probe supersets are re-verified
against exact semantics), so any divergence is a bug in maintenance,
probe verification, or snapshot consistency."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine, ExecutionOptions
from repro.errors import UpdateApplicationError
from repro.semantics.context import DynamicContext
from repro.semantics.evaluator import Evaluator
from repro.xdm.nodes import Node
from repro.xmark.generator import XMarkConfig, generate_auction_xml

_NO_INDEX = ExecutionOptions(use_indexes=False)

WORDS = ["fine", "word", "widget", "rare", "zebra", ""]


def fresh_engine(seed: int, atomic_snaps: bool = False) -> Engine:
    engine = Engine(atomic_snaps=atomic_snaps)
    config = XMarkConfig(
        persons=12, items=10, open_auctions=6, closed_auctions=8, seed=seed
    )
    doc = engine.load_document("auction", generate_auction_xml(config))
    engine.bind("doc", [doc])
    return engine


def query_pool(rng: random.Random) -> list[str]:
    pid = f"person{rng.randrange(15)}"
    word = rng.choice(WORDS)
    return [
        f'$doc//person[@id = "{pid}"]',
        f'$doc//item[contains(string(.), "{word}")]',
        '$doc//closed_auction[price = "draw"]',
        f'$doc//person[name = "{word}"]',
        '$doc//bidder[personref = "x"]',
    ]


def updates_pool(rng: random.Random) -> list[str]:
    n = rng.randrange(20)
    return [
        f"snap {{ replace value of {{ ($doc//person)[{1 + n % 5}]/@id }} "
        f'with {{ "person{n}" }} }}',
        "snap { replace value of { ($doc//item)[1]/name } "
        f'with {{ "{rng.choice(WORDS[:-1])} #{n}" }} }}',
        "snap { delete { ($doc//closed_auction)[1] } }",
        'snap { insert { <person id="personX"><name>Draw Card</name>'
        "</person> } into { $doc//people } }",
        f"snap {{ rename {{ ($doc//item)[{1 + n % 3}]/@id }} "
        'to { "id" } }',
    ]


def run_both(engine: Engine, query: str):
    fast = engine.execute(query)
    slow = engine.execute(query, options=_NO_INDEX)
    return (
        [n.nid for n in fast.items],
        [n.nid for n in slow.items],
    )


def run_on_snapshot(engine: Engine, snap, prepared, use_indexes: bool):
    """Evaluate a prepared query's body against *snap*."""
    doc_nid = engine.evaluator.globals["doc"][0].nid
    ev = Evaluator(snap, engine.functions)
    ev.use_indexes = use_indexes
    ev.globals = {"doc": [Node(snap, doc_nid)]}
    value, _ = ev.evaluate(
        prepared._module.body, DynamicContext(dict(ev.globals))
    )
    return [n.nid for n in value]


def transactional_commit(engine: Engine, rng: random.Random) -> None:
    """Two statements in one transaction.  The commit installs the new
    subtree as raw rows (``Store.install_rows``) and then applies the
    buffered requests."""
    n = rng.randrange(20)
    word = rng.choice(WORDS[:-1])
    with engine.session() as session:
        with session.transaction() as txn:
            txn.execute(
                f'snap {{ insert {{ <person id="person{n}"><name>{word}'
                "</name></person> } into { $doc//people } }"
            )
            txn.execute(
                "snap { replace value of { ($doc//item)[1]/name } "
                f'with {{ "{word} #{n}" }} }}'
            )


def rolled_back_snap(engine: Engine, rng: random.Random) -> None:
    """A snap that revalues and renames, then fails mid-Δ: the insert's
    anchor was detached by the delete before it.  Under ``atomic_snaps``
    the store rolls back from its undo log (``Store.rollback_undo``)."""
    n = rng.randrange(20)
    with pytest.raises(UpdateApplicationError):
        engine.execute(
            "snap { replace value of { ($doc//person)[1]/@id } "
            f'with {{ "person{n}" }}, '
            "rename { ($doc//item)[1]/@id } to { 'ident' }, "
            "delete { ($doc//closed_auction)[1] }, "
            "insert { <closed_auction/> } after "
            "{ ($doc//closed_auction)[1] } }"
        )


STEPS = {
    "transactional-commit": transactional_commit,
    "rolled-back-snap": rolled_back_snap,
}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_reads_indexed_equals_unindexed(seed):
    rng = random.Random(seed)
    engine = fresh_engine(seed)
    for query in query_pool(rng):
        fast, slow = run_both(engine, query)
        assert fast == slow, query


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_update_streams_keep_equivalence(seed, data):
    rng = random.Random(seed)
    engine = fresh_engine(seed)
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        update = data.draw(
            st.sampled_from(updates_pool(rng)), label="update"
        )
        engine.execute(update)
        for query in query_pool(rng):
            fast, slow = run_both(engine, query)
            assert fast == slow, (update, query)
    engine.store.check_invariants()


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_snapshot_reads_mid_update_stream(seed):
    """A snapshot taken between updates must answer indexed probes from
    its own epoch: equal to unindexed evaluation against the snapshot,
    regardless of how far the live store has moved on."""
    rng = random.Random(seed)
    engine = fresh_engine(seed)
    store = engine.store
    queries = query_pool(rng)
    prepared = [engine.prepare(q) for q in queries]

    engine.execute(rng.choice(updates_pool(rng)))
    snap = store.begin_snapshot()
    # The stream keeps mutating after the snapshot...
    for update in rng.sample(updates_pool(rng), 2):
        engine.execute(update)

    # ...while the snapshot reader answers from its epoch, with and
    # without index probes.
    for query, pq in zip(queries, prepared):
        fast = run_on_snapshot(engine, snap, pq, use_indexes=True)
        slow = run_on_snapshot(engine, snap, pq, use_indexes=False)
        assert fast == slow, query
    store.release_snapshot(snap)
    store.check_invariants()


@settings(max_examples=15, deadline=None)
@given(
    st.integers(0, 10_000),
    st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=3),
)
def test_commits_and_rollbacks_keep_equivalence(seed, steps):
    """The two paths that install or put back raw records — a
    transactional commit and a snap rolled back from its undo log —
    leave the maintained indexes equal to a rebuild, indexed answers
    equal to unindexed ones on the live store, and a snapshot opened
    before the step still answering (either way) as the store did
    then."""
    rng = random.Random(seed)
    engine = fresh_engine(seed, atomic_snaps=True)
    store = engine.store
    for step in steps:
        queries = query_pool(rng)
        prepared = [engine.prepare(q) for q in queries]
        before = [run_both(engine, q)[1] for q in queries]
        snap = store.begin_snapshot()
        STEPS[step](engine, rng)
        store.indexes.verify()
        for query, pq, then in zip(queries, prepared, before):
            fast, slow = run_both(engine, query)
            assert fast == slow, (step, query)
            for use_indexes in (True, False):
                got = run_on_snapshot(engine, snap, pq, use_indexes)
                assert got == then, (step, query, use_indexes)
        store.release_snapshot(snap)
    store.check_invariants()


# --------------------------------------------------------------------------
# Child-axis key lookups and statements inside a transaction
# --------------------------------------------------------------------------

TAILS = ["", "[1]", "[last()]", "[position() = 2]", "[number(@amount) >= $x]"]


def flat_engine(seed: int) -> Engine:
    """A flat ``$r`` of bids (plus a nested ``<lot>``), a short ``$log``
    sharing their keys (its few children make the child-axis cost guard
    decline), and ``$people`` with text children for the token
    shapes."""
    rng = random.Random(seed)
    engine = Engine()
    bids = [
        f'<bid itemid="item{rng.randrange(6)}" '
        f'amount="{rng.randrange(1, 50)}"/>'
        for _ in range(rng.randrange(8, 40))
    ]
    # A few bids one level down: $r/bid must not see them, $r//bid must.
    lot = "".join(bids[:3])
    bids = "".join(bids[3:]) + f"<lot>{lot}</lot>"
    log = "".join(
        f'<entry itemid="item{rng.randrange(6)}" '
        f'amount="{rng.randrange(50)}"/>'
        for _ in range(rng.randrange(4))
    )
    people = "".join(
        f'<person id="p{i}"><name>{rng.choice(WORDS[:-1])} {i}</name>'
        "</person>"
        for i in range(rng.randrange(3, 10))
    )
    engine.bind("r", engine.parse_fragment(f"<bids>{bids}</bids>"))
    engine.bind("log", engine.parse_fragment(f"<log>{log}</log>"))
    people = engine.parse_fragment(f"<people>{people}</people>")
    engine.bind("people", people)
    engine.bind("x", rng.randrange(50))
    return engine


def child_pool(rng: random.Random) -> list[str]:
    item = f"item{rng.randrange(7)}"
    tail = rng.choice(TAILS)
    return [
        f'$r/bid[@itemid = "{item}"]{tail}',
        f'$r//bid[@itemid = "{item}"]{tail}',
        f'$r/bid[@ref = "{item}"]{tail}',
        f'$log/entry[@itemid = "{item}"]{tail}',
    ]


def txn_pool(rng: random.Random) -> list[str]:
    word = rng.choice(WORDS[:-1])
    return child_pool(rng) + [
        f'$people//person[contains(string(.), "{word}")]',
        f'$people//person[name = "{word} 1"]',
    ]


# Buffered writes, each followed by reads inside the same transaction.
TXN_WRITES = {
    "revalue": "snap { replace value of { ($r/bid[@itemid])[1]/@itemid } "
    'with { "item6" } }',
    "insert": 'snap { insert { <bid itemid="item6" amount="7"/> } '
    "into { $r } }",
    "delete-owner": 'snap { delete { ($r/bid[@itemid = "item1"])[1] } }',
    "rename": "snap { rename { ($r/bid[@itemid])[2]/@itemid } "
    'to { "ref" } }',
    "insert-text": "snap { insert { <person><name>zebra 1</name></person> }"
    " into { $people } }",
    "revalue-text": "snap { replace value of { ($people/person)[1]/name }"
    ' with { "rare 1" } }',
}


def txn_both(txn, query: str):
    fast = txn.execute(query)
    slow = txn.execute(query, options=_NO_INDEX)
    return [n.nid for n in fast.items], [n.nid for n in slow.items]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_child_axis_reads_indexed_equals_unindexed(seed):
    rng = random.Random(seed)
    engine = flat_engine(seed)
    before = engine.store.indexes.probes
    for _ in range(4):
        for query in child_pool(rng):
            fast, slow = run_both(engine, query)
            assert fast == slow, query
    assert engine.store.indexes.probes > before


@settings(max_examples=20, deadline=None)
@given(
    st.integers(0, 10_000),
    st.lists(st.sampled_from(sorted(TXN_WRITES)), min_size=1, max_size=4),
)
def test_transaction_statements_see_buffered_writes(seed, writes):
    """Probes inside a transaction answer from the snapshot plus the
    view's own writes: equal to the scan after every buffered write,
    and the commit leaves the live indexes exact."""
    rng = random.Random(seed)
    engine = flat_engine(seed)
    with engine.session() as session:
        with session.transaction() as txn:
            for write in writes:
                txn.execute(TXN_WRITES[write])
                for query in txn_pool(rng):
                    fast, slow = txn_both(txn, query)
                    assert fast == slow, (write, query)
    engine.store.indexes.verify()
    for query in txn_pool(rng):
        fast, slow = run_both(engine, query)
        assert fast == slow, query
