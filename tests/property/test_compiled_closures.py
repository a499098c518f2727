"""Property: a pure program compiled to closures means what the
executable specification of Figs. 2-3 makes of it.

The reference run lowers nothing and withholds plans
(:func:`tests.interpreted.on_spec`), so the spec
(:mod:`repro.semantics.spec`) evaluates the whole program, walking every
axis; the other run compiles as usual and takes production's access
paths.  Each example draws a document and a pure program (``tests.gen``),
and where the program runs — on the live store, as a read of a snapshot
taken before a write moved the live store on, or as a statement of a
transaction after a buffered insert.  The two runs (each on its own
engine, so no prepared query or compiled body is shared) must agree on
the value or the error code, and on the ``store.nodes_created`` count.
Values are compared item by item (by type, kind and content) up to a
renaming of node ids: the same node must appear at the same positions.
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
from tests.interpreted import on_spec

WRITE = 'snap insert { <a k="x" n="2"><b>x</b></a> } into { $d/r }'
COUNTERS = ("store.nodes_created",)
OPTIONS = ExecutionOptions(collect_stats=True)


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
        identified(result.items),
        tuple(counters.get(name, 0) for name in COUNTERS),
    )


def identified(items) -> list:
    """Each item rendered, and each node numbered by its first position
    in *items*: equal lists mean equal items, with the same node at the
    same positions, whatever ids the two stores gave them."""
    first: dict[int, int] = {}
    return [
        (render(item), first.setdefault(item.nid, len(first)))
        if isinstance(item, Node)
        else (render(item), None)
        for item in items
    ]


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


def outcome(xml, program, scenario, by_spec) -> tuple:
    with on_spec() if by_spec else nullcontext():
        return SCENARIOS[scenario](make_engine(xml), program, OPTIONS)


# Nested a elements: a step from both of them must sort its result.
NESTED = '<r><a><a><b k="1"/></a><b k="2"/></a><c/></r>'


@settings(max_examples=300, deadline=None)
@example(NESTED, "$d//a/b", "live")  # multi-context sort
@example(NESTED, "$d/r/*[last()]", "live")  # predicate size
@example(NESTED, "$z = 1 and 1 idiv $z = 1", "live")  # and
@example(NESTED, "subsequence((1,2), 1 div 0E0)", "live")
@example(NESTED, "xs:integer(1 div 0E0)", "live")
@given(
    xml=documents(),
    program=programs(),
    scenario=st.sampled_from(sorted(SCENARIOS)),
)
def test_compiled_closures_equal_the_tree_walker(xml, program, scenario):
    specified = outcome(xml, program, scenario, True)
    closures = outcome(xml, program, scenario, False)
    assert closures == specified, program
