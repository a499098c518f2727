"""Equality probes look up the prefixes of the target's first token
instead of scanning the token vocabulary, on the live store, a snapshot
and a transaction view alike.  Numeric columns answer
``B[number(c) op X]`` from a sorted array on the live store, only while
their certificate proves the scan could neither raise nor match an
element the column lacks; they read text with ``fn:number``'s own rule,
are dropped by the mutators that could stale them, and are checked by
``Store.check_invariants``."""

import math

import pytest

from repro.engine import Engine, ExecutionOptions
from repro.errors import StoreError, XQueryError
from repro.index.manager import NumericColumn, eq_prefixes
from repro.semantics.context import DynamicContext
from repro.semantics.evaluator import Evaluator
from repro.xdm.nodes import Node
from repro.xdm.values import string_to_double

_NO_INDEX = ExecutionOptions(use_indexes=False)

#: An integer past the double range (about 1.8e308).
BIG = "1" + "0" * 400


def engine_with(xml: str) -> Engine:
    engine = Engine()
    engine.bind("d", engine.parse_fragment(xml))
    return engine


def probes(engine: Engine) -> int:
    return engine.store.indexes.probes


def outcome(engine: Engine, query: str, options=None):
    """The result's node ids (or atomized values), or the error code."""
    try:
        items = engine.execute(query, options=options).items
    except XQueryError as error:
        return ("error", error.code)
    return [getattr(item, "nid", item) for item in items]


def on_snapshot(engine: Engine, snap, query: str, use_indexes: bool):
    """*query* evaluated against *snap*, as node ids."""
    ev = Evaluator(snap, engine.functions)
    ev.use_indexes = use_indexes
    ev.globals = {
        "d": [Node(snap, node.nid) for node in engine.variable("d")]
    }
    body = engine.prepare(query)._module.body
    value, _ = ev.evaluate(body, DynamicContext(dict(ev.globals)))
    return [node.nid for node in value]


# --------------------------------------------------------------------------
# Equality probes (shape C)
# --------------------------------------------------------------------------

CITIES = (
    "<r>"
    "<p><c>Pi<!--x-->sa</c></p>"
    "<p><c><x>Pi</x>sa</c></p>"
    "<p><c>Pisa</c></p>"
    "<p><c>Pisa tower</c></p>"
    "<p><c>Pis</c></p>"
    "<p><c>P isa</c></p>"
    "<p><c>X</c></p>"
    "<p><c>X<!--y--> marks</c></p>"
    "<p><c>X marks</c></p>"
    "<p><c><x/>X marks</c></p>"
    "</r>"
)

EQ_CASES = [
    # target, positions (1-based) of the matching <p>s
    ("Pisa", [1, 2, 3]),
    ("X", [7]),
    ("X marks", [8, 9, 10]),
    ("Pisa tower", [4]),
    ("P", []),
]


def test_eq_prefixes_are_the_first_tokens_prefixes():
    assert eq_prefixes("Pisa tower") == {"P", "Pi", "Pis", "Pisa"}
    assert eq_prefixes("X") == {"X"}
    assert eq_prefixes("") is None
    assert eq_prefixes(" Pisa") is None


@pytest.mark.parametrize(("target", "positions"), EQ_CASES)
def test_equality_probe_finds_fragmented_nested_and_short_values(
    target, positions
):
    engine = engine_with(CITIES)
    query = f'$d//p[c = "{target}"]'
    expected = [
        node.nid
        for i, node in enumerate(engine.execute("$d//p").items, start=1)
        if i in positions
    ]
    before = probes(engine)
    assert outcome(engine, query) == expected
    assert probes(engine) == before + 1
    assert outcome(engine, query, _NO_INDEX) == expected


@pytest.mark.parametrize(("target", "positions"), EQ_CASES)
def test_equality_probe_on_a_snapshot_reads_its_own_epoch(
    target, positions
):
    engine = engine_with(CITIES)
    query = f'$d//p[c = "{target}"]'
    then = outcome(engine, query, _NO_INDEX)
    store = engine.store
    snap = store.begin_snapshot()
    # Move the live store on: every text becomes the target, and a new
    # matching <p> arrives.  The snapshot must see neither.
    engine.execute(
        f'for $t in $d//c//text() return snap {{ replace value of {{ $t }}'
        f' with {{ "{target}" }} }}'
    )
    engine.execute(
        f'snap {{ insert {{ <p><c>{target}</c></p> }} into {{ $d }} }}'
    )
    try:
        assert on_snapshot(engine, snap, query, True) == then
        assert on_snapshot(engine, snap, query, False) == then
    finally:
        store.release_snapshot(snap)
    assert outcome(engine, query) == outcome(engine, query, _NO_INDEX)
    store.check_invariants()


def test_snapshot_text_eq_probe_is_a_superset_of_the_witnesses():
    engine = engine_with(CITIES)
    store = engine.store
    snap = store.begin_snapshot()
    try:
        live = set(store.text_eq_probe("Pisa"))
        held = set(snap.text_eq_probe("Pisa"))
    finally:
        store.release_snapshot(snap)
    assert live == held
    values = {store.value(tid) for tid in live}
    assert {"Pi", "Pisa", "Pis", "Pisa tower", "P isa"} <= values
    assert "X" not in values


def test_equality_probe_in_a_transaction_sees_buffered_writes():
    engine = engine_with(CITIES)
    with engine.session() as session:
        with session.transaction() as txn:
            txn.execute(
                "snap { insert { <p><c>Pi<!--z-->sa</c></p> } "
                "into { $d } }"
            )
            fast = txn.execute('count($d//p[c = "Pisa"])').first_value()
            slow = txn.execute(
                'count($d//p[c = "Pisa"])', options=_NO_INDEX
            ).first_value()
    assert fast == slow == 4


# A let-bound node comparand: general "=" atomizes it, and its untyped
# value compares with the attribute or child as a string.
NODE_KEYS = (
    '<r><o ref="b"/><o ref="z"/><o ref="a"><n>c</n></o>'
    '<p id="a"><c>c</c></p><p id="b"><c>x</c></p><p id="c"/></r>'
)


@pytest.mark.parametrize(
    ("query", "expected"),
    [
        ("for $o in $d/o let $k := $o/@ref return $d//p[@id = $k]",
         ["a", "b"]),
        ("for $o in $d/o let $k := $o/n return $d//p[@id = $k]", ["c"]),
        ("for $o in $d/o let $k := $o/n return $d//p[c = $k]", ["a"]),
    ],
)
def test_a_node_comparand_probes_like_its_string_value(query, expected):
    engine = engine_with(NODE_KEYS)
    ids = f"for $p in ({query}) return string($p/@id)"
    before = probes(engine)
    assert sorted(engine.execute(ids).strings()) == expected
    assert probes(engine) > before
    assert engine.execute(ids, options=_NO_INDEX).strings() == (
        engine.execute(ids).strings()
    )


# --------------------------------------------------------------------------
# Numeric columns (shape D)
# --------------------------------------------------------------------------

NAN = math.nan


@pytest.mark.parametrize(
    ("text", "expected"),
    [
        ("7", 7.0), (" 7 ", 7.0), (".5", 0.5), ("1e3", 1000.0),
        ("1.5E2", 150.0), ("INF", math.inf), ("-INF", -math.inf),
        ("NaN", NAN), ("-0", 0.0), ("+3", 3.0), ("007", 7.0),
        pytest.param(BIG, math.inf, id="past-double"),
        pytest.param("-" + BIG, -math.inf, id="past-double-negative"),
        # Python's float() takes these; XML Schema does not.
        ("1_0", NAN), ("inf", NAN), ("Infinity", NAN), ("+INF", NAN),
        ("٣", NAN), ("x", NAN), ("", NAN), ("1e", NAN), (" ", NAN),
    ],
)
def test_string_to_double_reads_xml_schema_forms(text, expected):
    got = string_to_double(text)
    assert math.isnan(got) if math.isnan(expected) else got == expected
    # fn:number reads strings through the same rule.
    value = Engine().execute(f'number("{text}")').items[0].value
    assert math.isnan(value) if math.isnan(expected) else value == got


def numbered(*contents: str) -> str:
    return "<r>" + "".join(f"<p>{c}</p>" for c in contents) + "</r>"


REGULAR = numbered(
    "<c>7</c>", "<c> 12 </c>", "<c>.5</c>", "<c>1e3</c>", "<c>INF</c>",
    "<c>-INF</c>", "<c>NaN</c>", "<c>-0</c>", "<c/>", "<c>abc</c>",
    "<c>1_0</c>", "<c>٣</c>", "<c>inf</c>", "", f"<c>{BIG}</c>",
)

RANGE_QUERIES = [
    "$d//p[number(c) > 5]",
    "$d//p[number(c) >= 7]",
    "$d//p[number(c) < 7.5]",
    "$d//p[number(c) <= 0]",
    "$d//p[number(c) = 0]",
    "$d//p[number(c) = 1000]",
    "$d//p[7 < number(c)]",
    "$d//p[1e3 >= number(c)]",
    "$d//p[number(c) >= 0.5 and number(c) < 1000]",
    "$d//p[number(c) > 5][1]",
    "$d//p[number(c) > $nan]",
    "$d//p[number(c) = $inf]",
    pytest.param(f"$d//p[number(c) >= {BIG}]", id="past-double-literal"),
    "$d//p[number(c) < $negbig]",
    "$d/p[number(c) > 5]",
    "$d/descendant-or-self::p[number(c) > 5]",
    "count($d//p[number(c) > 5])",
]


def bind_bounds(engine: Engine) -> Engine:
    engine.bind("nan", math.nan)
    engine.bind("inf", math.inf)
    engine.bind("negbig", -int(BIG))
    return engine


@pytest.mark.parametrize("query", RANGE_QUERIES)
def test_regular_column_answers_as_the_scan(query):
    engine = bind_bounds(engine_with(REGULAR))
    before = probes(engine)
    fast = outcome(engine, query)
    assert fast == outcome(engine, query, _NO_INDEX)
    if not query.startswith("$d/p"):  # the child axis may decline
        # One probe, answered: count it whether or not it hit.
        assert probes(engine) == before + 1
    engine.store.check_invariants()


@pytest.mark.parametrize(
    ("content", "query", "expected"),
    [
        ("<c>1<!--x-->5</c>", "$d//p[number(c) > 10]", [1, 2]),
        ("<c>1<?pi x?>5</c>", "$d//p[number(c) = 15]", [2]),
        ("<c><x>50</x></c>", "$d//p[number(c) > 10]", [1, 2]),
        ("<c>5<x/></c>", "$d//p[number(c) > 1]", [1, 2]),
        ("<c>1</c><c>2</c>", "$d//p[number(c) > 10]", "XPTY0004"),
        ("<c>1</c><c/>", "$d//p[number(c) < 10]", "XPTY0004"),
    ],
)
def test_certificate_declines_where_the_scan_differs(
    content, query, expected
):
    # Fragmented or nested content reads a number the column lacks; two
    # <c> under one <p> make number(c) raise XPTY0004.
    engine = engine_with(numbered("<c>20</c>", content))
    if isinstance(expected, str):
        expected = ("error", expected)
    else:
        p = [node.nid for node in engine.execute("$d/p").items]
        expected = [p[i - 1] for i in expected]
    before = probes(engine)
    assert outcome(engine, query) == expected
    assert probes(engine) == before
    assert outcome(engine, query, _NO_INDEX) == expected


def test_duplicate_under_one_parent_raises_on_both_paths():
    engine = engine_with(numbered("<c>20</c>", "<c>1</c><c>2</c>"))
    query = "$d//p[number(c) > 10]"
    assert outcome(engine, query) == ("error", "XPTY0004")
    assert outcome(engine, query, _NO_INDEX) == ("error", "XPTY0004")


def test_child_axis_declines_when_hits_outnumber_children():
    many = "".join(f"<q><c>{i}</c></q>" for i in range(50))
    engine = engine_with(f"<r><p><c>7</c></p><z>{many}</z></r>")
    before = probes(engine)
    assert len(outcome(engine, "$d/p[number(c) > 5]")) == 1
    assert probes(engine) == before


def test_non_numeric_bounds_decline():
    engine = engine_with(REGULAR)
    engine.bind("s", "7")
    for query in (
        "$d//p[number(c) > $s]",
        '$d//p[number(c) > "7"]',
        "$d//p[number(c) > (1, 2)]",
        "$d//p[number(c) > ()]",
    ):
        before = probes(engine)
        fast = outcome(engine, query)
        assert probes(engine) == before, query
        assert fast == outcome(engine, query, _NO_INDEX), query


def test_snapshots_and_transaction_views_decline():
    engine = engine_with(REGULAR)
    store = engine.store
    query = "$d//p[number(c) > 5]"
    snap = store.begin_snapshot()
    try:
        assert snap.numeric_range_probe("c", [("gt", 5.0)]) is None
        assert on_snapshot(engine, snap, query, True) == outcome(
            engine, query
        )
    finally:
        store.release_snapshot(snap)
    with engine.session() as session:
        with session.transaction() as txn:
            txn.execute("snap { insert { <p><c>99</c></p> } into { $d } }")
            fast = txn.execute(f"count({query})").first_value()
            slow = txn.execute(
                f"count({query})", options=_NO_INDEX
            ).first_value()
    assert fast == slow


UPDATES = [
    # (update, what it must drop)
    ("snap { insert { <p><c>42</c></p> } into { $d } }", "insert"),
    ("snap { insert { <c>3</c> } into { ($d//p)[1] } }", "second c"),
    ("snap { rename { ($d//w)[1] } to { 'c' } }", "rename to c"),
    ("snap { rename { ($d//c)[1] } to { 'w' } }", "rename from c"),
    (
        "snap { replace value of { ($d//c/text())[1] } with { '99' } }",
        "set_value",
    ),
    ("snap { replace value of { ($d//c)[2] } with { '98' } }", "content"),
    ("snap { delete { ($d//c)[1] } }", "delete"),
    ("snap { insert { text { '5' } } into { ($d//c)[1] } }", "fragment"),
    ("snap { insert { copy { ($d//p)[1] } } into { $d } }", "copy"),
]


@pytest.mark.parametrize(("update", "label"), UPDATES)
def test_mutators_drop_stale_columns(update, label):
    engine = engine_with(numbered(
        "<c>7</c>", "<c>12</c>", "<w>8</w>", "<c>1</c>", "<w>30</w>"
    ))
    queries = ["$d//p[number(c) > 5]", "$d//p[number(c) < 9]"]
    for query in queries:
        assert outcome(engine, query) == outcome(engine, query, _NO_INDEX)
    assert "c" in engine.store.indexes.columns
    engine.execute(update)
    engine.store.check_invariants()
    for query in queries:
        assert outcome(engine, query) == outcome(
            engine, query, _NO_INDEX
        ), label
    engine.store.check_invariants()


def test_nested_snap_mid_query_drops_the_column():
    queries = (
        "for $i in (1, 2, 3) return ("
        "count($d//p[number(c) > 10]), "
        "snap { replace value of { ($d//c/text())[$i] } with { '50' } })"
    )
    fast = engine_with(numbered("<c>7</c>", "<c>8</c>", "<c>9</c>"))
    slow = engine_with(numbered("<c>7</c>", "<c>8</c>", "<c>9</c>"))
    got = [v.value for v in fast.execute(queries).items]
    want = [v.value for v in slow.execute(queries, options=_NO_INDEX).items]
    assert got == want == [0, 1, 2]
    fast.store.check_invariants()


def test_verify_catches_a_stale_column():
    engine = engine_with(numbered("<c>7</c>", "<c>12</c>"))
    engine.execute("$d//p[number(c) > 5]")
    store = engine.store
    store.check_invariants()
    column = store.indexes.columns["c"]
    store.indexes.columns["c"] = NumericColumn(
        column.keys[:1], column.ids[:1], column.irregular, column.dup
    )
    with pytest.raises(StoreError, match="numeric column"):
        store.check_invariants()


def test_wholesale_record_writes_drop_every_column():
    engine = engine_with(numbered("<c>7</c>"))
    store = engine.store
    engine.execute("$d//p[number(c) > 5]")
    assert store.indexes.columns
    store.drop_records([store.create_element("z")])
    assert not store.indexes.columns
    engine.execute("$d//p[number(c) > 5]")
    log = store.begin_undo()
    store.rollback_undo(log)
    assert not store.indexes.columns
