"""Property: where-pushdown and the index-backed join build leave every
query's outcome as it was.

**Where-pushdown** (:mod:`repro.lang.simplify`) moves an ordered FLWOR's
leading one-variable ``where`` conjunct into its last ``for`` clause's
step.
Each example draws a document of ``b`` elements (some in nested
``q`` elements) whose ``c`` children hold numbers, NaN, empty, irregular
(commented or nested) or repeated content and whose ``k`` attributes
may be missing, and a FLWOR over them: a range, two-bound, attribute or
child conjunct compared with a literal, a string, NaN, a node, or two
numbers, after an optional other conjunct and before an optional rest,
under an optional earlier ``for``/``let``, an ``at`` variable, a later
``let`` with an insert, mostly an ``order by``, and a body that may raise,
collect an insert or apply a snap.  The query runs once as prepared and
once with the rule withheld (:func:`tests.interpreted.without_pushdown`).

**Index-backed build** (:mod:`repro.algebra.execute`) answers a hash
join's or group-by's build side ``B//b`` keyed by ``$b/@k`` or
``$b/t/@k`` from the attribute value index.  Each example draws ``a``
and ``b`` elements with string, numeric-looking, repeated and missing
keys, and a join or a q8-like updating group-by with a string, numeric,
multi-valued or mixed probe key, built on either side.  The query runs
once as prepared and once with the index build declined, so the hash
table is built.

Before each query some owners may be detached by a ``delete`` (the
index still lists their attributes).  Each query runs on the live store,
as a read of a snapshot taken before a write moved the live store on,
or as a statement of a transaction after buffered writes.  The two runs
(each on its own engine) must agree on the value or error code and on
the store fingerprint.  An exception that is not an ``XQueryError``
fails the property.  Fixed examples pin the cases each guard exists
for: a later ``let`` with an insert, a probe conjunct behind a
non-probe one, a detached owner, and numeric keys."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algebra import execute as algebra_execute
from repro.algebra.plan import plan_operators
from repro.cluster.replica import store_fingerprint
from repro.engine import Engine
from repro.errors import XQueryError
from repro.prepared import rehandled_fork, run_module
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind
from repro.xmlio.serializer import serialize
from tests.interpreted import without_pushdown

KEYS = ["k1", "k2", "1", "01", "1.0", ""]
CONTENTS = ["7", "250", "12.5", "", "NaN", "abc", "1<!--x-->5", "<x>5</x>"]

WRITE = (
    'snap { insert { <b id="bx" k="k1"><c>7</c><t k="1"/></b> } '
    "into { $d/r } }"
)
DETACH = "snap { delete { ($d//b)[1], ($d//a)[last()] } }"


# --------------------------------------------------------------------------
# Documents
# --------------------------------------------------------------------------

@st.composite
def documents(draw) -> str:
    def keys(name: str) -> str:
        return "".join(
            f'<{name} k="{k}"/>'
            for k in draw(st.lists(st.sampled_from(KEYS), max_size=2))
        )

    def key(attr: str, values) -> str:
        if draw(st.booleans()):
            return f' {attr}="{draw(st.sampled_from(values))}"'
        return ""

    def b(i: int) -> str:
        cs = "".join(
            f"<c>{text}</c>" if text else "<c/>"
            for text in draw(st.lists(st.sampled_from(CONTENTS), max_size=2))
        )
        return f'<b id="b{i}"{key("k", KEYS)}>{cs}{keys("t")}</b>'

    def a(i: int) -> str:
        n = key("n", ["1", "01", "7", "x"])
        return f'<a id="a{i}"{key("k", KEYS)}{n}>{keys("t")}</a>'

    count = draw(st.integers(0, 6))
    nested = draw(st.integers(0, 2))
    body = [a(i) for i in range(draw(st.integers(1, 4)))]
    body += [b(i) for i in range(count)]
    if nested:  # the second nested b sits in a q inside the first q
        inner = [b(count + i) for i in range(nested)]
        body.append(
            "<q>" + inner[0] + "".join(f"<q>{x}</q>" for x in inner[1:])
            + "</q>"
        )
    return "<r>" + "".join(body) + "</r>"


def make_engine(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("d", xml)
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    engine.bind("node", engine.parse_fragment('<z k="k1">7</z>'))
    engine.bind("nan", float("nan"))
    engine.bind("num", 7)
    engine.bind("str", "k1")
    engine.bind("two", [1, 250])
    return engine


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------

NUMBERS = ["3", "7", "12.5", "$nan", "$num", "$two", "$node", '"7"']
STRINGS = ['"k1"', '"1"', "1", "$str", "$node", "$two"]
OPS = ["=", "<", "<=", ">", ">="]


@st.composite
def where_queries(draw) -> str:
    def pick(options):
        return draw(st.sampled_from(options))

    kind = pick(["range", "bounds", "attr", "child"])
    if kind == "range":
        op, x = pick(OPS), pick(NUMBERS)
        conjunct = pick([f"number($v/c) {op} {x}", f"{x} {op} number($v/c)"])
    elif kind == "bounds":
        conjunct = (
            f"number($v/c) > {pick(NUMBERS)} and "
            f"number($v/c) <= {pick(NUMBERS)}"
        )
    elif kind == "attr":
        s = pick(STRINGS)
        conjunct = pick([f"$v/@k = {s}", f"{s} = $v/@k"])
    else:
        conjunct = f"$v/c = {pick(STRINGS)}"
    before = pick(["", "exists($v/t) and ", '$v/@id != "b2" and '])
    rest = pick([
        "", ' and $v/@id != "b3"', " and number($v/c) < 100",
        " and exists($v/t)",
    ])
    ret = pick([
        "$v", "string($v/@id)", "($v/@id, $v/c)", "string($v/c)",
        'insert { <m id="{$v/@id}"/> } into { $sink }',
        "(snap { insert { <c>1</c> } into { ($d//b)[last()] } }, "
        "string($v/@id))",
    ])
    head = pick(["", "for $w in (1, 2) ", "let $w := 1 "])
    at = pick(["", " at $i"])
    after = pick(
        ["", 'let $x := insert { <l id="{$v/@id}"/> } into { $sink } ']
    )
    # the rule fires only under an order by
    order = pick(["", "order by string($v/@id) descending "] + [
        "order by number($v/c) "
    ] * 2)
    path = pick(["$d//b", "$d/r/b", "$d//q/b", "$d//q//b"])
    return (
        f"{head}for $v{at} in {path} {after}"
        f"where {before}{conjunct}{rest} {order}return {ret}"
    )


# Numeric and mixed keys twice: the index declines them.
LEFT_KEYS = [
    "$a/@k", "$a/t/@k", "$a/@n", "string($a/@n)",
    "number($a/@n)", "number($a/@n)", "($a/@k, 1)", "($a/@k, 1)",
]
RIGHT_KEYS = ["$b/@k", "$b/t/@k", "$b/c"]


@st.composite
def join_queries(draw) -> tuple[str, bool]:
    """A join or group-by query, and whether to build its join's left
    side."""
    def pick(options):
        return draw(st.sampled_from(options))

    left, right = pick(LEFT_KEYS), pick(RIGHT_KEYS)
    if draw(st.booleans()):
        left, right = right.replace("$b", "$a"), left.replace("$a", "$b")
    # B: one node, maybe none, or several (the index build needs one)
    base = pick(["$d", "$d", "$d", "$d/r/q", "$d/r/b"])
    if draw(st.booleans()):
        return (
            f"for $a in $d//a for $b in {base}//b where {left} = {right} "
            'return concat($a/@id, "-", $b/@id)',
            draw(st.booleans()),
        )
    return (
        f"for $a in $d//a let $g := for $b in {base}//b "
        f"where {left} = {right} "
        'return (insert { <m a="{$a/@id}" b="{$b/@id}"/> } into { $sink }, '
        '$b) return <row a="{$a/@id}">{ count($g) }</row>',
        False,
    )


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

def render(item):
    if not isinstance(item, Node):
        return (item.type, item.lexical())
    if item.kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
        return serialize(item)
    return (item.kind.value, item.name, item.string_value)


def observe(run) -> tuple:
    try:
        result = run()
    except XQueryError as error:
        return ("error", error.code)
    return ("ok", [render(item) for item in result.items])


def prepared(engine: Engine, query: str, build_left: bool):
    query_plan = engine.prepare(query)
    if build_left:
        for node in _plan_nodes(query_plan._plan):
            if type(node).__name__ == "HashJoin":
                node.build = "left"
    return query_plan


def _plan_nodes(plan):
    if plan is None:
        return []
    out = [plan]
    for child in plan.children():
        out += _plan_nodes(child)
    return out


def live(engine, query, build_left):
    pq = prepared(engine, query, build_left)
    return observe(lambda: pq.execute())


def snapshot(engine, query, build_left):
    pq = prepared(engine, query, build_left)
    snap = engine.store.begin_snapshot()
    try:
        engine.execute(WRITE)
        fork = rehandled_fork(engine.evaluator, snap)
        return observe(lambda: run_module(fork, pq))
    finally:
        engine.store.release_snapshot(snap)


def transaction(engine, query, build_left):
    prepared(engine, query, build_left)  # cached for the statement
    with engine.session() as session:
        with session.transaction() as txn:
            txn.execute(WRITE)
            txn.execute("snap { delete { ($d//b)[last()] } }")
            seen = observe(lambda: txn.execute(query))
            txn.rollback()
    return seen


CHANNELS = {"live": live, "snapshot": snapshot, "transaction": transaction}


def outcome(xml, query, channel, detach, build_left=False) -> tuple:
    engine = make_engine(xml)
    if detach:
        engine.execute(DETACH)
    seen = CHANNELS[channel](engine, query, build_left)
    return seen, store_fingerprint(engine)


def decline(plan, key, state):
    return None


# --------------------------------------------------------------------------
# The properties
# --------------------------------------------------------------------------

DOC = (
    '<r><a id="a0" k="k1" n="1"><t k="01"/></a><a id="a1" k="1" n="01"/>'
    '<b id="b0" k="k1"><c>7</c><t k="1"/></b>'
    '<b id="b1" k="1.0"><c>250</c><c>3</c></b>'
    '<b id="b2" k="01"><c/></b><q><b id="b3" k="k1"><c>12.5</c></b></q></r>'
)


@settings(max_examples=150, deadline=None)
# a later let with an insert runs for every binding the where drops
@example(DOC, 'for $v in $d//b let $x := insert { <l id="{$v/@id}"/> } '
         'into { $sink } where $v/@k = "k1" order by $v/@id return $v',
         "live", False)
# the probe conjunct is not the leading one: b1 (two c) must not reach it
@example(DOC, 'for $v in $d//b where $v/@id != "b1" and number($v/c) > 5 '
         "order by $v/@id return $v/@id", "live", False)
@given(
    xml=documents(),
    query=where_queries(),
    channel=st.sampled_from(sorted(CHANNELS)),
    detach=st.booleans(),
)
def test_where_pushdown_keeps_the_outcome(xml, query, channel, detach):
    pushed = outcome(xml, query, channel, detach)
    with without_pushdown():
        written = outcome(xml, query, channel, detach)
    assert pushed == written, query


@settings(max_examples=150, deadline=None)
# a detached owner's attribute is still in the index
@example(DOC, ('for $a in $d//a for $b in $d//b where $a/@k = $b/@k '
               'return concat($a/@id, "-", $b/@id)', False), "live", True)
# numeric keys: "01" and "1.0" equal 1 as numbers, not as strings
@example(DOC, ("for $a in $d//a for $b in $d//b "
               "where number($a/@n) = $b/@k "
               'return concat($a/@id, "-", $b/@id)', False), "live", False)
@example(DOC, ("for $a in $d//a let $g := for $b in $d//b "
               "where ($a/@k, 1) = $b/t/@k return (insert { <m/> } into "
               '{ $sink }, $b) return <row a="{$a/@id}">{ count($g) }</row>',
               False), "live", False)
@given(
    xml=documents(),
    query=join_queries(),
    channel=st.sampled_from(sorted(CHANNELS)),
    detach=st.booleans(),
)
def test_index_build_keeps_the_outcome(xml, query, channel, detach):
    query, build_left = query
    assert {"HashJoin", "GroupBy"} & set(
        plan_operators(make_engine(xml).compile(query))
    ), query
    indexed = outcome(xml, query, channel, detach, build_left)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_execute, "_indexed_build", decline)
        hashed = outcome(xml, query, channel, detach, build_left)
    assert indexed == hashed, query
