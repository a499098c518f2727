"""Property: production's access paths — value-index probes, the
element-name index, indexed join builds — are observationally the spec
(:mod:`repro.semantics.spec`, run through
:func:`tests.interpreted.by_spec`), which walks every axis and probes
nothing: for XMark-style queries, for child-axis key lookups with
positional and value tails, across update sequences, across
transactional commits, rolled-back snaps and journal replays, for
snapshot readers taken mid-update-stream, and for statements inside a
transaction that read its own buffered writes.

The fast paths only ever *narrow* work (probe supersets are re-verified
against exact semantics), so any divergence is a bug in maintenance,
probe verification, or snapshot consistency.  The attribute index keys
each posting by its owner's and the owner's parent's names, so the
update pools move keys on purpose: subtrees moved between trees,
renamed owners and parents, renamed, revalued and deleted attributes.
After every step the maintained indexes must equal a rebuild
(``IndexManager.verify``): a key left on a stale path can hide behind
probe verification, which rejects it, until a later probe misses it."""

import os
import random
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.durability import DurableEngine
from repro.engine import Engine
from repro.errors import UpdateApplicationError
from repro.prepared import rehandled_fork
from repro.semantics import spec
from repro.semantics.context import DynamicContext
from repro.xmark.generator import XMarkConfig, generate_auction_xml
from tests.interpreted import by_spec

WORDS = ["fine", "word", "widget", "rare", "zebra", ""]


def fresh_engine(
    seed: int, atomic_snaps: bool = False, path: str | None = None
) -> Engine:
    """The auction as ``$doc`` and an ``<other/>`` tree as ``$other``;
    journaled in directory *path* when given."""
    if path is None:
        engine = Engine(atomic_snaps=atomic_snaps)
    else:
        engine = DurableEngine(path, fsync="never", atomic_snaps=atomic_snaps)
    config = XMarkConfig(
        persons=12, items=10, open_auctions=6, closed_auctions=8, seed=seed
    )
    doc = engine.load_document("auction", generate_auction_xml(config))
    engine.bind("doc", [doc])
    engine.bind("other", engine.parse_fragment("<other/>"))
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
        # Probes narrowed by the owner's and its parent's names, over
        # names the updates below rename to and move between trees.
        f'$doc/site/*/person[@id = "{pid}"]',
        f'$doc//persona[@id = "{pid}"]',
        f'$other/*[@id = "{pid}"]',
        # Join and group-by build sides keyed by c/@a and @a.
        "for $p in $doc//person for $t in $doc//closed_auction "
        "where $t/buyer/@person = $p/@id return $t",
        "for $p in $doc//person let $a := for $t in $doc//sold "
        "where $t/buyer/@person = $p/@id return $t return $a",
        "for $t in $doc//closed_auction for $p in $doc//person "
        "where $t/buyer/@person = $p/@id return $p",
    ]


def each(target: str, update: str) -> str:
    """A snap applying *update* to ``$x`` bound to each of *target*."""
    return f"snap {{ for $x in {target} return {update} }}"


def updates_pool(rng: random.Random) -> list[str]:
    n = rng.randrange(20)
    k = 1 + n % 4
    # The targets may be gone by now (a person moved away, an @id
    # deleted), so each update binds them with a `for`.
    return [
        each(f"($doc//person)[{1 + n % 5}]/@id",
             f'replace value of {{ $x }} with {{ "person{n}" }}'),
        "snap { replace value of { ($doc//item)[1]/name } "
        f'with {{ "{rng.choice(WORDS[:-1])} #{n}" }} }}',
        "snap { delete { ($doc//closed_auction)[1] } }",
        'snap { insert { <person id="personX"><name>Draw Card</name>'
        "</person> } into { ($doc//people, $doc//folk)[1] } }",
        each(f"($doc//item)[{1 + n % 3}]/@id", 'rename { $x } to { "id" }'),
        # Moves between trees (insert copies; delete detaches).
        each(f"($doc//person)[{k}]",
             "(insert { $x } into { $other }, delete { $x })"),
        each("($doc//people)[1]",
             "(insert { $other/* } into { $x }, delete { $other/* })"),
        each(f"($doc//closed_auction)[{k}]", "delete { $x }"),
        # Renamed owners and parents.
        each(f"($doc//person)[{k}]", 'rename { $x } to { "persona" }'),
        each("($doc//persona)[1]", 'rename { $x } to { "person" }'),
        each("($doc//people)[1]", 'rename { $x } to { "folk" }'),
        each("($doc//folk)[1]", 'rename { $x } to { "people" }'),
        each(f"($doc//closed_auction)[{k}]", 'rename { $x } to { "sold" }'),
        # Renamed, revalued and deleted attributes on a c/@a path.
        each(f"($doc//closed_auction)[{k}]/buyer/@person",
             'rename { $x } to { "by" }'),
        each(f"($doc//closed_auction)[{k}]/buyer/@person",
             f'replace value of {{ $x }} with {{ "person{n}" }}'),
        each(f"($doc//person)[{k}]/@id", "delete { $x }"),
    ]


def run_both(engine: Engine, query: str):
    """*query*'s node ids as prepared, and on the spec."""
    fast = engine.execute(query)
    slow = by_spec(engine, query)
    return (
        [n.nid for n in fast.items],
        [n.nid for n in slow.items],
    )


def run_on_snapshot(engine: Engine, snap, prepared, on_spec: bool):
    """A prepared query's body against *snap*: lowered (its plan, when a
    rewrite gave it one), or as written on the spec."""
    fork = rehandled_fork(engine.evaluator, snap)
    if on_spec:
        context = DynamicContext(globals_=fork.globals)
        value, _ = spec.evaluate(fork, prepared._module.body, context)
    else:
        value = prepared.compiled().body.invoke(fork, ())
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
                "</name></person> } into { ($doc//people, $doc//folk)[1] } }"
            )
            txn.execute(
                "snap { replace value of { ($doc//item)[1]/name } "
                f'with {{ "{word} #{n}" }} }}'
            )


def rolled_back_snap(engine: Engine, rng: random.Random) -> None:
    """A snap that revalues, renames and moves keys (an owner renamed,
    a parent renamed, an element detached, a copy attached), then fails
    mid-Δ: the insert's anchor was detached by the delete before it.
    Under ``atomic_snaps`` the store rolls back from its undo log
    (``Store.rollback_undo``)."""
    n = rng.randrange(20)
    with pytest.raises(UpdateApplicationError):
        engine.execute(
            "snap { replace value of { ($doc//person/@id)[1] } "
            f'with {{ "person{n}" }}, '
            "rename { ($doc//item)[1]/@id } to { 'ident' }, "
            "rename { ($doc//person)[2] } to { 'persona' }, "
            "rename { ($doc//people, $doc//folk)[1] } to { 'folk' }, "
            "insert { ($doc//person)[3] } into { $other }, "
            "delete { ($doc//person)[3] }, "
            "delete { ($doc//closed_auction)[1] }, "
            "insert { <closed_auction/> } after "
            "{ ($doc//closed_auction)[1] } }"
        )


def key_moving_update(engine: Engine, rng: random.Random) -> None:
    """One draw from the update pool."""
    engine.execute(rng.choice(updates_pool(rng)))


STEPS = {
    "transactional-commit": transactional_commit,
    "rolled-back-snap": rolled_back_snap,
    "update": key_moving_update,
    # Reopening the durable directory (see the test) replays the
    # journal onto the checkpoint: raw rows plus the logged requests.
    "journal-replay": None,
}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_reads_indexed_equals_unindexed(seed):
    rng = random.Random(seed)
    engine = fresh_engine(seed)
    for query in query_pool(rng):
        fast, slow = run_both(engine, query)
        assert fast == slow, query


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_update_streams_keep_equivalence(seed, data):
    rng = random.Random(seed)
    engine = fresh_engine(seed)
    for _ in range(data.draw(st.integers(1, 4), label="rounds")):
        update = data.draw(
            st.sampled_from(updates_pool(rng)), label="update"
        )
        engine.execute(update)
        engine.store.indexes.verify()
        for query in query_pool(rng):
            fast, slow = run_both(engine, query)
            assert fast == slow, (update, query)
    engine.store.check_invariants()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000))
def test_snapshot_reads_mid_update_stream(seed):
    """A snapshot taken between updates must answer indexed probes from
    its own epoch: equal to the spec against the snapshot, regardless of
    how far the live store has moved on."""
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

    # ...while the snapshot reader answers from its epoch, as prepared
    # and on the spec.
    for query, pq in zip(queries, prepared):
        fast = run_on_snapshot(engine, snap, pq, on_spec=False)
        slow = run_on_snapshot(engine, snap, pq, on_spec=True)
        assert fast == slow, query
    store.release_snapshot(snap)
    store.check_invariants()


@settings(max_examples=6, deadline=None)
# Every step kind, each after another, on every run.
@example(1, ["transactional-commit", "journal-replay", "rolled-back-snap",
             "update"])
@example(2, ["rolled-back-snap", "update", "journal-replay",
             "transactional-commit"])
@given(
    st.integers(0, 10_000),
    st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=4),
)
def test_commits_and_rollbacks_keep_equivalence(seed, steps):
    """The three paths that install or put back raw records — a
    transactional commit, a snap rolled back from its undo log and a
    journal replay — and the key-moving updates between them leave the
    maintained indexes equal to a rebuild, production's answers equal to
    the spec's on the live store, and a snapshot opened before the step
    still answering (either way) as the store did then."""
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "engine")
        engine = fresh_engine(seed, atomic_snaps=True, path=path)
        for step in steps:
            store = engine.store
            queries = query_pool(rng)
            prepared = [engine.prepare(q) for q in queries]
            before = [run_both(engine, q)[1] for q in queries]
            snap = store.begin_snapshot()
            if STEPS[step] is None:
                engine.close()
                engine = DurableEngine(path, fsync="never")
                # Node ids survive recovery, so the old store's answers
                # are the recovered store's too.
                assert [run_both(engine, q)[1] for q in queries] == before
            else:
                STEPS[step](engine, rng)
            engine.store.indexes.verify()
            for query, pq, then in zip(queries, prepared, before):
                fast, slow = run_both(engine, query)
                assert fast == slow, (step, query)
                for on_spec in (False, True):
                    got = run_on_snapshot(engine, snap, pq, on_spec)
                    assert got == then, (step, query, on_spec)
            store.release_snapshot(snap)
        engine.store.check_invariants()
        engine.close()


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
        f'$log/bid[@itemid = "{item}"]{tail}',
        f'$r/offer[@itemid = "{item}"]{tail}',
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
    # Buffered renames of an owner and of its parent: the live postings
    # keep the names the base store has, which a probe must still read.
    "rename-owner": 'snap { rename { ($r/bid)[1] } to { "offer" } }',
    "rename-parent": 'snap { rename { $r } to { "offers" } }',
    "move": "snap { for $b in ($r/bid)[2] return "
    "(insert { $b } into { $log }, delete { $b }) }",
}


def txn_both(engine: Engine, txn, query: str):
    fast = txn.execute(query)
    slow = by_spec(engine, query, on=txn)
    return [n.nid for n in fast.items], [n.nid for n in slow.items]


@settings(max_examples=10, deadline=None)
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


@settings(max_examples=8, deadline=None)
# Every buffered write on every run.
@example(1, ["revalue", "insert", "delete-owner", "rename"])
@example(2, ["insert-text", "revalue-text", "rename-owner", "move"])
@example(3, ["rename-parent", "revalue"])
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
                    fast, slow = txn_both(engine, txn, query)
                    assert fast == slow, (write, query)
    engine.store.indexes.verify()
    for query in txn_pool(rng):
        fast, slow = run_both(engine, query)
        assert fast == slow, query
