"""Property: a ``B//name[P1]...[Pn]`` step evaluated in one pass over the
named descendants, grouped by parent, is observationally the per-node
child step it replaces, as the spec (:mod:`repro.semantics.spec`)
evaluates it: one ``child::name[P...]`` step per node of
``B/descendant-or-self::node()``, walking each axis.  Production takes
the grouped route when no predicate may snap, and the per-node steps
(as closures) when one may.

Two engines are built from the same random tree, one run on the spec
(:func:`tests.interpreted.on_spec`) and one as prepared, and run the
same scenario; node ids are allocated identically, so values are
compared as ids, errors by code and message, and the store at the end
row by row.  The predicates cover positional tails, the index-probe
shape followed by a tail, a predicate that logs every (item, position,
size) it is evaluated on into Δ (so Δ order and evaluation count are
compared), a nested-snap counter, a nested snap that restructures the
tree mid-step, and a predicate that raises on one item naming it (so
the first error is compared).  Scenarios run on the live store, on a
``StoreSnapshot`` while the live store moves on, and inside a
transaction after buffered inserts, renames and deletes."""

import itertools
import json
from contextlib import nullcontext

from hypothesis import example, given, settings, strategies as st

from repro.engine import Engine
from repro.errors import XQueryError
from repro.lang.core_ast import CCompiled
from repro.persist import record_rows
from repro.prepared import rehandled_fork
from repro.semantics import spec
from repro.semantics.context import DynamicContext
from tests.interpreted import on_spec

KEYS = ("x", "y", "b")

PROLOG = """
declare variable $counter := element counter { 0 };
declare function local:nextid() {
  snap { replace { $counter/text() } with { $counter + 1 } },
  number($counter)
};
declare function local:grow() {
  snap insert { <p id="grown" k="x" a="1"/> }
       into { ($t/descendant-or-self::*)[last()] },
  true()
};
"""

BASES = ("$t", "($t//q)", "($t, $t//q)", "$n")

PREDICATES = (
    "[1]",
    "[last()]",
    "[2]",
    "[position() <= $k]",
    "[@k = $v][1]",
    "[@k = $v][position() <= $k]",
    "[number(@a) >= $x][1]",
    '[(insert { <hit of="{@id}" at="{position()}" of-size="{last()}"/> } '
    "into { $log }, position() <= $k)]",
    "[local:nextid() > 0][last()]",
    "[local:grow()][1]",
    '[if (@k = "b") then error(concat("boom ", @id)) else true()][last()]',
)

WRITES = (
    'snap insert { <p id="new1" k="x" a="5"><p id="new2" k="b" a="1"/></p> }'
    " into { (($t//q)[1], $t)[1] }",
    'snap insert { <q id="new3"><p id="new4" k="y" a="7"/></q> } '
    "as first into { $t }",
    'for $q in ($t//q)[last()] return snap rename { $q } to { "p" }',
    "snap delete { ($t//p)[2] }",
)


@st.composite
def forests(draw, depth=0):
    """Child lists of elements named p/q (so same-name elements nest)
    with text leaves."""
    children = []
    for _ in range(draw(st.integers(0, 4 if depth < 3 else 0))):
        kind = draw(st.sampled_from(("p", "p", "q", "text")))
        if kind == "text":
            children.append("t")
        else:
            children.append((
                kind,
                draw(st.sampled_from(KEYS)),
                draw(st.integers(0, 9)),
                draw(forests(depth + 1)),
            ))
    return children


def render(children, counter) -> str:
    out = []
    for child in children:
        if child == "t":
            out.append("t")
            continue
        name, key, a, kids = child
        ident = f"{name}{next(counter)}"
        out.append(
            f'<{name} id="{ident}" k="{key}" a="{a}">'
            f"{render(kids, counter)}</{name}>"
        )
    return "".join(out)


def make_engine(xml: str, k: int, v: str, x: int) -> Engine:
    engine = Engine()
    engine.bind("t", engine.parse_fragment(f"<root>{xml}</root>"))
    engine.bind("log", engine.parse_fragment("<log/>"))
    engine.bind("n", 3)
    engine.bind("k", k)
    engine.bind("v", v)
    engine.bind("x", x)
    engine.load_module(PROLOG)
    return engine


def outcome(run):
    try:
        value = run()
    except XQueryError as error:
        return ("error", error.code, str(error))
    return ("ok", value)


def ids(items) -> list:
    return [item.nid for item in items]


def rows(engine: Engine) -> list[str]:
    return [json.dumps(row) for row in record_rows(engine.store)]


def live(engine: Engine, writes, queries) -> list:
    seen = [outcome(lambda w=w: ids(engine.execute(w).items)) for w in writes]
    for query in queries:
        seen.append(outcome(lambda q=query: ids(engine.execute(q).items)))
    return seen


def snapshot(engine: Engine, writes, queries) -> list:
    """Queries on a snapshot taken before *writes* hit the live store:
    the snapshot reads through its overlay.  Bodies run lowered, as
    ``run_module`` would run them, but their Δ is not applied (a
    snapshot is read-only), so it is compared directly.  On the spec the
    bodies are not lowered, and the spec evaluates them."""
    prepared = [engine.prepare(query) for query in queries]
    snap = engine.store.begin_snapshot()
    try:
        seen = live(engine, writes, [])
        fork = rehandled_fork(engine.evaluator, snap)
        for pq in prepared:
            def run(pq=pq):
                body = pq.compiled().body
                if type(body) is not CCompiled:
                    context = DynamicContext(globals_=fork.globals)
                    value, delta = spec.evaluate(fork, body, context)
                    return ids(value), [repr(r) for r in delta]
                fork.pending = []
                value = body.invoke(fork, ())
                return ids(value), [repr(r) for r in fork.pending]

            seen.append(outcome(run))
    finally:
        engine.store.release_snapshot(snap)
    return seen


def transaction(engine: Engine, writes, queries) -> list:
    """Statements inside one transaction, after buffered writes; the
    commit then replays everything onto the live store."""
    seen = []
    with engine.session() as session:
        with session.transaction() as txn:
            for statement in (*writes, *queries):
                seen.append(
                    outcome(lambda s=statement: ids(txn.execute(s).items))
                )
    return seen


SCENARIOS = {"live": live, "snapshot": snapshot, "transaction": transaction}

# Two parents with p children at two depths, same-name nesting, a q in
# between and a text leaf: every grouped step meets several groups.
FOREST = [
    ("p", "x", 1, [("p", "b", 2, []), ("q", "y", 3, [
        ("p", "x", 4, [("p", "x", 5, [])]), ("p", "b", 6, []), "t",
    ])]),
    ("q", "x", 7, [("p", "y", 8, []), ("p", "x", 9, [])]),
]


def targeted(scenario: str, writes: list[str], queries: list[str]):
    """An example on FOREST with $k = 2, $v = "x" and $x = 4."""
    return example(
        forest=FOREST, k=2, v="x", x=4, scenario=scenario, writes=writes,
        queries=queries,
    )


@settings(max_examples=40, deadline=None)
# Positions and the probe shape with tails; Δ order and evaluation
# count across groups; a nested snap that restructures the tree
# mid-step; the first error of a raising predicate.
@targeted("live", [], [
    f"{base}//p{predicate}" for base in BASES for predicate in PREDICATES[:7]
])
@targeted("live", [], [f"$t//p{PREDICATES[7]}", f"$t//p{PREDICATES[8]}"])
@targeted("live", [], [f"$t//p{PREDICATES[9]}", f"($t//q)//p{PREDICATES[10]}"])
@targeted("snapshot", WRITES[:2], [
    f"$t//p{PREDICATES[7]}", f"$t//p{PREDICATES[4]}", f"$t//p{PREDICATES[10]}",
])
@targeted("transaction", WRITES[1:], [
    f"$t//p{PREDICATES[5]}", f"$t//p{PREDICATES[7]}", f"$t//p{PREDICATES[9]}",
])
@given(
    forest=forests(),
    k=st.integers(0, 3),
    v=st.sampled_from(KEYS),
    x=st.integers(0, 9),
    scenario=st.sampled_from(sorted(SCENARIOS)),
    writes=st.lists(st.sampled_from(WRITES), max_size=3),
    queries=st.lists(
        st.tuples(
            st.sampled_from(BASES), st.sampled_from(PREDICATES)
        ).map(lambda pair: f"{pair[0]}//p{pair[1]}"),
        min_size=1,
        max_size=4,
    ),
)
def test_grouped_step_equals_per_node_steps(
    forest, k, v, x, scenario, writes, queries
):
    xml = render(forest, itertools.count())
    observed = []
    for by_spec in (True, False):
        with on_spec() if by_spec else nullcontext():
            engine = make_engine(xml, k, v, x)
            seen = SCENARIOS[scenario](engine, writes, queries)
        engine.store.check_invariants()
        observed.append((seen, rows(engine)))
    assert observed[0] == observed[1]
