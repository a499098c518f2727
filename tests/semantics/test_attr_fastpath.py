"""The ``step[@name <op> value]`` direct-store predicate fast path.

``Evaluator._attr_compare_filter`` must be observably identical to the
generic per-candidate predicate evaluation — same kept nodes, same
coercion behaviour (untyped attribute content vs strings and numbers),
same treatment of missing attributes.  Each case runs both ways: the
normal engine, and one with the fast path disabled so the generic route
answers.  These reads are pure, so both routes are the compiled step's:
the fast path through ``_attr_compare_filter`` and the generic one
through ``repro.semantics.compiled._predicate_filter``.  The value
indexes are off (``use_indexes=False``), or an index probe would answer
the ``=`` cases before either route is reached.
"""

import pytest

from repro import Engine
from repro.semantics import compiled

DOC = """<root>
  <item id="a1" n="01"/><item id="a2" n="1"/><item n="2"/>
  <item id="" n="3"/><sub><item id="a1" n="1.0"/></sub>
</root>"""

CASES = [
    # attribute vs string literal / variable, both operand orders
    '$d//item[@id = "a1"]/@n/data(.)',
    "$d//item[@id = $x]/@n/data(.)",
    '$d//item["a1" = @id]/@n/data(.)',
    # other operators
    '$d//item[@id != "a1"]/@n/data(.)',
    "count($d//item[@n > 1])",
    # untyped-vs-number matches numerically ("01" = 1), vs-string exactly
    "$d//item[@n = 1]/@id/data(.)",
    '$d//item[@n = "1"]/@id/data(.)',
    # empty-string value and missing attribute
    '$d//item[@id = ""]/@n/data(.)',
    '$d//item[@missing = "x"]',
    # non-descendant axis benefits too
    '$d/root/item[@id = "a1"]/@n/data(.)',
]


def _run(query: str, disable_fast: bool) -> str:
    engine = Engine()
    engine.load_document("d", DOC)
    engine.bind("x", "a1")
    if disable_fast:
        engine.evaluator._attr_compare_filter = (
            lambda shape, nids, comparand: None
        )
    return engine.execute(query, use_indexes=False).serialize()


@pytest.mark.parametrize("query", CASES)
def test_fast_path_matches_generic_path(query):
    assert _run(query, False) == _run(query, True)


def test_fast_path_actually_fires(monkeypatch):
    """Guard against the fast path silently never applying: the filtered
    step must not evaluate the predicate through the generic route."""
    engine = Engine()
    engine.load_document("d", DOC)
    calls = []
    original = compiled._predicate_filter

    def spy(ev, frame, keep, store, items):
        calls.append(keep)
        return original(ev, frame, keep, store, items)

    monkeypatch.setattr(compiled, "_predicate_filter", spy)
    query = 'count($d//item[@id = "a1"])'
    assert engine.execute(query, use_indexes=False).first_value() == 2
    assert calls == []
    # A second predicate still takes the generic route: the spy sees it.
    query = 'count($d//item[@n = "1"][@id])'
    assert engine.execute(query, use_indexes=False).first_value() == 1
    assert calls


def test_fast_path_respects_updates():
    engine = Engine()
    engine.load_document("d", DOC)
    engine.execute(
        "snap insert { <item id='a9' n='9'/> } into { exactly-one($d/root) }"
    )
    assert engine.execute('count($d//item[@id = "a9"])').first_value() == 1
    engine.execute(
        'snap rename { exactly-one($d//item[@id = "a9"]/@id) } to { "idx" }'
    )
    assert engine.execute('count($d//item[@id = "a9"])').first_value() == 0
