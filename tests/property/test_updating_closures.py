"""Property: an updating statement compiled to closures means what the
executable specification of Figs. 2-3 makes of it.

Every node of a prepared query, and the §4.3 plan a rewrite gave it,
compiles to a closure that appends its update requests, in evaluation
order, to the innermost snap's Δ (:mod:`repro.semantics.compiled`).  For
the reference run nothing is lowered and plans are withheld
(:func:`tests.interpreted.on_spec`), so the spec
(:mod:`repro.semantics.spec`) evaluates every statement as written, and
no effect verdict or access path decides what runs; the other run
prepares as usual.  Each example draws a document, an updating
statement or a pure program (:func:`tests.gen.statements`: snaps of
primitives in all three modes, nested snaps, loops updating what they
bind, recursive updating functions, FLWORs a rewrite may fire on) and a
host: the live store, a statement of a transaction
that then commits, or a ``DurableEngine`` that is then closed and
recovered.  The two runs, each on an engine of its own, must agree on
the value or the error code, and on ``store_fingerprint`` (the
recovered store's too), node ids included.  Values are compared item by
item (by type, kind and content) up to a renaming of node ids: the same
node must appear at the same positions, so a plan that returns one node
twice where the spec returns two equal nodes fails.  When no rewrite
gave the statement a plan the runs must also agree on the
``store.nodes_created`` count.  An exception that is not an
``XQueryError`` fails the property, and so does a run in which no drawn
statement got a plan: the plans' closures must meet the spec on
generated input, not only on templates.

Fixed examples run on every run: two inserts whose order a sequence
decides, snaps nested in each mode, a depth-bounded updating recursion
inside a loop (a loop-invariant ``let`` if it were pure), and a snapping
recursion."""

from __future__ import annotations

import tempfile
from contextlib import ExitStack

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.replica import store_fingerprint
from repro.durability import DurableEngine, recover
from repro.engine import Engine, ExecutionOptions
from repro.errors import XQueryError
from tests.gen import PROLOG, documents, plans, statements
from tests.interpreted import on_spec
from tests.property.test_compiled_closures import identified

FRAGMENT = '<h><a k="1"/><b n="2">t</b></h>'
COUNTERS = ("store.nodes_created",)
OPTIONS = ExecutionOptions(collect_stats=True)


def setup(engine, xml: str):
    engine.load_document("d", xml)
    engine.bind("v", "x")
    engine.bind("n", 2)
    engine.bind("z", 0)
    engine.bind("e", [])
    engine.load_module(PROLOG)
    engine.bind("h", engine.parse_fragment(FRAGMENT))
    return engine


def observe(run) -> tuple:
    """The outcome of *run*: its value and counters, or its error code."""
    try:
        result = run()
    except XQueryError as error:
        return ("error", error.code), ()
    counters = result.stats.counters
    return (
        ("ok", identified(result.items)),
        tuple(counters.get(name, 0) for name in COUNTERS),
    )


def live(xml, statement, directory):
    engine = setup(Engine(), xml)
    seen, counters = observe(
        lambda: engine.execute(statement, options=OPTIONS)
    )
    return seen, counters, engine, (store_fingerprint(engine),)


def transaction(xml, statement, directory):
    engine = setup(Engine(), xml)

    def run():
        with engine.session() as session:
            with session.transaction() as txn:
                result = txn.execute(statement, options=OPTIONS)
                # Render inside: the handles point into the view.
                result.items = identified(result.items)
        return result

    try:
        result = run()
        seen = ("ok", result.items)
        counters = tuple(
            result.stats.counters.get(name, 0) for name in COUNTERS
        )
    except XQueryError as error:
        seen, counters = ("error", error.code), ()
    return seen, counters, engine, (store_fingerprint(engine),)


def durable(xml, statement, directory):
    engine = setup(Engine(), xml)
    wrapped = DurableEngine(directory, engine=engine, fsync="never")
    seen, counters = observe(
        lambda: wrapped.execute(statement, options=OPTIONS)
    )
    before = store_fingerprint(engine)
    wrapped.close()
    after = store_fingerprint(recover(directory).engine)
    return seen, counters, engine, (before, after)


HOSTS = {"live": live, "transaction": transaction, "durable": durable}


def outcome(xml, statement, host, by_spec) -> tuple:
    with ExitStack() as stack:
        directory = stack.enter_context(tempfile.TemporaryDirectory())
        if by_spec:
            stack.enter_context(on_spec())
        seen, counters, engine, fingerprints = HOSTS[host](
            xml, statement, directory
        )
        try:
            planned = engine.prepare(statement)._plan is not None
        except XQueryError:
            planned = False
    return seen, fingerprints, counters, planned


def check(xml, statement, host) -> bool:
    """Compare the two runs; True when the statement got a plan."""
    specified = outcome(xml, statement, host, True)
    closures = outcome(xml, statement, host, False)
    assert closures[:2] == specified[:2], statement
    if not closures[3]:
        assert closures[2] == specified[2], statement
    return closures[3]


DOC = '<r><a k="1"><b n="2">x</b></a><c><a/></c></r>'


def test_updating_closures_equal_the_tree_walker():
    planned = []

    @settings(max_examples=150, deadline=None)
    @example(DOC, 'snap ordered { insert { <m/> } into { $d/r }, '
                  'insert { <n/> } into { $d/r } }', "live", "")
    @example(DOC, 'snap conflict-detection { insert { <p/> } into '
                  '{ $d//c }, snap nondeterministic { delete { $d//b } }, '
                  'snap ordered { rename { ($d//a)[1] } to { "z" } } }',
             "durable", "")
    @example(DOC, "for $i in (1, 2) let $u := local:mark($d//c, 3) "
                  "return ($u, $i)", "live", "")
    @example(DOC, "(local:bump(2), count($d//c))", "transaction", "")
    @example(DOC, "snap { local:mark($d//c, 160) }", "live", "")
    @given(
        xml=documents(),
        statement=statements(),
        host=st.sampled_from(sorted(HOSTS)),
        flwor=plans(),
    )
    def compare(xml, statement, host, flwor):
        # Each draw also checks a FLWOR a rewrite may fire on: among the
        # statements Hypothesis draws, such FLWORs are rare.
        planned.append(check(xml, statement, host))
        if flwor:
            planned.append(check(xml, flwor, host))

    compare()
    assert any(planned), f"none of {len(planned)} statements got a plan"
