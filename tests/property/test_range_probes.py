"""Property: a ``B[number(c) op X]`` step answered from a numeric column
equals the scan, in value and in error code.

Documents mix every content a ``c`` element can have: one numeric text
in each lexical form ``fn:number`` reads (and some it reads as NaN),
empty ``<c/>``, fragmented and nested content, a missing ``c`` and two
``c`` under one ``B``.  Bounds are integer, decimal and double literals,
an integer past the double range, and variables holding NaN, ±INF, a
decimal, a string or two numbers; every operator, the flipped form and
the two-bound conjunction; the child, descendant and
descendant-or-self axes.  Between probes the store is updated the ways
that can stale a column — an inserted ``c``, a second ``c`` under one
``B``, renames to and from ``c``, a revalued text, a replaced content, a
deleted ``c``, a copied subtree and an atomic snap rolled back — and
``check_invariants`` (which compares every live column with a fresh
build) runs after each step."""

from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.engine import Engine, ExecutionOptions
from repro.errors import XQueryError

_NO_INDEX = ExecutionOptions(use_indexes=False)

BIG = "1" + "0" * 400

#: Contents fn:number reads from one text node (some as NaN).
REGULAR = [
    "7", " 7 ", ".5", "1e3", "INF", "-INF", "NaN", "-0", "0", "12.25",
    "250", "3", "abc", "1_0", "inf", "٣", BIG, "",
]
#: Contents whose number() the column cannot hold.
IRREGULAR = ["1<!--x-->5", "<x>5</x>", "5<x/>", "<?pi?>7"]

LITERALS = ["0", "3", "7", "7.5", "12.25", "1e3", "7.5e0", "250", BIG]
VARIABLES = ["$nan", "$inf", "$ninf", "$dec", "$neg", "$str", "$two"]
OPS = ["=", "<", "<=", ">", ">="]
STEPS = ["$d//p", "$d/p", "$d/descendant-or-self::p", "$d//q/p"]
TAILS = ["", "[1]", "[last()]"]


def bind_all(engine: Engine) -> Engine:
    engine.bind("nan", float("nan"))
    engine.bind("inf", float("inf"))
    engine.bind("ninf", float("-inf"))
    engine.bind("dec", Decimal("12.25"))
    engine.bind("neg", -int(BIG))
    engine.bind("str", "7")
    engine.bind("two", [3, 250])
    return engine


@st.composite
def documents(draw) -> str:
    clean = draw(st.booleans())
    content = st.sampled_from(REGULAR if clean else REGULAR + IRREGULAR)
    child = st.tuples(st.sampled_from(["c", "c", "w"]), content)
    most = 1 if clean else 2

    def element(name: str, text: str) -> str:
        return f"<{name}/>" if text == "" else f"<{name}>{text}</{name}>"

    def person(children) -> str:
        seen: set[str] = set()
        out = []
        for name, text in children:
            if name == "c" and most == 1 and name in seen:
                name = "w"
            seen.add(name)
            out.append(element(name, text))
        return "<p>" + "".join(out) + "</p>"

    ps = draw(st.lists(st.lists(child, max_size=most + 1), min_size=1,
                       max_size=8))
    body = [person(children) for children in ps]
    nested = draw(st.lists(st.lists(child, max_size=most), max_size=2))
    if nested:
        body.append("<q>" + "".join(person(c) for c in nested) + "</q>")
    if draw(st.booleans()):
        body.append(element("c", draw(content)))  # a <c> under no <p>
    return "<r>" + "".join(body) + "</r>"


def bound(draw) -> str:
    return draw(st.sampled_from(LITERALS + VARIABLES))


@st.composite
def predicates(draw) -> str:
    def one() -> str:
        op = draw(st.sampled_from(OPS))
        operand = bound(draw)
        if draw(st.booleans()):
            return f"{operand} {op} number(c)"
        return f"number(c) {op} {operand}"

    if draw(st.booleans()):
        return f"{one()} and {one()}"
    return one()


@st.composite
def queries(draw) -> str:
    step = draw(st.sampled_from(STEPS))
    tail = draw(st.sampled_from(TAILS))
    return f"{step}[{draw(predicates())}]{tail}"


UPDATES = [
    "snap { insert { <p><c>42</c></p> } into { $d } }",
    "snap { insert { <c>3</c> } into { ($d//p)[1] } }",
    "snap { rename { ($d//w)[1] } to { 'c' } }",
    "snap { rename { ($d//c)[1] } to { 'w' } }",
    "snap { replace value of { ($d//c/text())[1] } with { '99' } }",
    "snap { replace value of { ($d//c)[last()] } with { '8' } }",
    "snap { delete { ($d//c)[1] } }",
    "snap { insert { copy { ($d//p)[last()] } } into { $d } }",
]

#: An atomic snap that renames, revalues and inserts, then fails: the
#: insert's anchor was detached by the delete before it.  The store
#: rolls back from its undo log.
FAILING = (
    "snap { rename { ($d//w)[1] } to { 'c' }, "
    "insert { <c>5</c> } into { ($d//p)[1] }, "
    "delete { ($d//p)[1] }, "
    "insert { <c>1</c> } after { ($d//p)[1] } }"
)


def outcome(engine: Engine, query: str, options=None):
    try:
        items = engine.execute(query, options=options).items
    except XQueryError as error:
        return ("error", error.code)
    return [getattr(item, "nid", item) for item in items]


def agree(engine: Engine, query: str) -> None:
    fast = outcome(engine, query)
    assert fast == outcome(engine, query, _NO_INDEX), query


@settings(max_examples=150, deadline=None)
@given(documents(), st.lists(queries(), min_size=1, max_size=6))
def test_range_probes_equal_the_scan(xml, texts):
    engine = bind_all(Engine())
    engine.bind("d", engine.parse_fragment(xml))
    for text in texts:
        agree(engine, text)
        agree(engine, f"count({text})")
    engine.store.check_invariants()


@settings(max_examples=80, deadline=None)
@given(
    documents(),
    st.lists(queries(), min_size=1, max_size=3),
    st.lists(st.sampled_from(UPDATES + [FAILING]), min_size=1, max_size=4),
)
def test_updates_between_probes_keep_columns_exact(xml, texts, updates):
    engine = bind_all(Engine(atomic_snaps=True))
    engine.bind("d", engine.parse_fragment(xml))
    store = engine.store
    for text in texts:
        agree(engine, text)
    for update in updates:
        try:
            engine.execute(update)
        except XQueryError:
            pass  # FAILING rolls back; an empty target may refuse
        store.check_invariants()
        for text in texts:
            agree(engine, text)
        store.check_invariants()
