"""Property: a pure program compiled to closures means what the
tree-walker of Figs. 2-3 makes of it.

The reference run declines every closure and withholds plans
(:func:`tests.interpreted.on_tree_walker`), so the tree-walker evaluates
the whole program; the other run compiles as usual.  Each example draws a
document and a pure program (``tests.gen``), and a configuration:
``use_indexes`` on or off, and where the program runs — on the live
store, as a read of a snapshot taken before a write moved the live
store on, or as a statement of a transaction after a buffered insert.
The two runs (each on its own engine, so no prepared query or compiled
body is shared) must agree on the value (its items by type, kind and
content) or the error code, and on the
``index.probes``, ``index.hits`` and ``store.nodes_created`` counts.
An exception that is not an ``XQueryError`` fails the property, even
when both runs raise it: every program ends in a value or a typed error.
Fixed examples run on every run, whatever Hypothesis draws: a step from
nested context nodes (its result must be sorted), a predicate that
reads ``last()``, an ``and`` whose right operand would raise, and two
calls given an infinite number."""

from contextlib import nullcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ExecutionOptions
from repro.errors import XQueryError
from repro.prepared import rehandled_fork, run_module
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind
from repro.xmlio.serializer import serialize
from tests.gen import PROLOG, documents, programs
from tests.interpreted import on_tree_walker

WRITE = 'snap insert { <a k="x" n="2"><b>x</b></a> } into { $d/r }'
COUNTERS = ("index.probes", "index.hits", "store.nodes_created")


def make_engine(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("d", xml)
    engine.bind("v", "x")
    engine.bind("n", 2)
    engine.bind("z", 0)
    engine.bind("e", [])
    engine.load_module(PROLOG)
    return engine


def observe(run) -> tuple:
    try:
        result = run()
    except XQueryError as error:
        return ("error", error.code)
    counters = result.stats.counters
    return (
        "ok",
        [render(item) for item in result.items],
        tuple(counters.get(name, 0) for name in COUNTERS),
    )


def render(item):
    """An item as comparable data: elements and documents serialized,
    other nodes and atomics by kind or type, name and string."""
    if not isinstance(item, Node):
        return (item.type, item.lexical())
    if item.kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
        return serialize(item)
    return (item.kind.value, item.name, item.string_value)


def live(engine, program, options):
    return observe(lambda: engine.execute(program, options=options))


def snapshot(engine, program, options):
    snap = engine.store.begin_snapshot()
    try:
        engine.execute(WRITE)
        fork = rehandled_fork(engine.evaluator, snap)
        return observe(lambda: run_module(
            fork,
            engine.prepare(program),
            options=options,
        ))
    finally:
        engine.store.release_snapshot(snap)


def transaction(engine, program, options):
    with engine.session() as session:
        with session.transaction() as txn:
            txn.execute(WRITE)
            seen = observe(lambda: txn.execute(program, options=options))
            txn.rollback()
    return seen


SCENARIOS = {"live": live, "snapshot": snapshot, "transaction": transaction}


def outcome(xml, program, scenario, options, interpreted) -> tuple:
    with on_tree_walker() if interpreted else nullcontext():
        return SCENARIOS[scenario](make_engine(xml), program, options)


# Nested a elements: a step from both of them must sort its result.
NESTED = '<r><a><a><b k="1"/></a><b k="2"/></a><c/></r>'


@settings(max_examples=300, deadline=None)
@example(NESTED, "$d//a/b", "live", True)  # multi-context sort
@example(NESTED, "$d/r/*[last()]", "live", True)  # predicate size
@example(NESTED, "$z = 1 and 1 idiv $z = 1", "live", True)  # and
@example(NESTED, "subsequence((1,2), 1 div 0E0)", "live", True)
@example(NESTED, "xs:integer(1 div 0E0)", "live", True)
@given(
    xml=documents(),
    program=programs(),
    scenario=st.sampled_from(sorted(SCENARIOS)),
    use_indexes=st.booleans(),
)
def test_compiled_closures_equal_the_tree_walker(
    xml, program, scenario, use_indexes
):
    options = ExecutionOptions(use_indexes=use_indexes, collect_stats=True)
    walked = outcome(xml, program, scenario, options, True)
    closures = outcome(xml, program, scenario, options, False)
    assert closures == walked, program
