"""The ``step[@name <op> value]`` direct-store predicate fast path.

``Evaluator._attr_compare_filter`` must be observably identical to the
spec's per-candidate predicate evaluation — same kept nodes, same
coercion behaviour (untyped attribute content vs strings and numbers),
same treatment of missing attributes.  Each case runs both ways: on the
spec (:func:`tests.interpreted.by_spec`), and on an engine whose value
index probes all decline, or a probe would answer the ``=`` cases
before the fast path is reached.
"""

import pytest

from repro import Engine
from repro.semantics import compiled
from tests.interpreted import by_spec

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


def unprobed() -> Engine:
    """An engine on DOC whose value-index probes all decline."""
    engine = Engine()
    engine.load_document("d", DOC)
    engine.bind("x", "a1")
    engine.evaluator._indexed_predicate_step = (
        lambda item, shape, comparand: None
    )
    return engine


@pytest.mark.parametrize("query", CASES)
def test_fast_path_matches_generic_path(query):
    engine = unprobed()
    fast = engine.execute(query).serialize()
    assert fast == by_spec(engine, query).serialize()


def test_fast_path_actually_fires(monkeypatch):
    """Guard against the fast path silently never applying: the filtered
    step must not evaluate the predicate through the generic route."""
    engine = unprobed()
    calls = []
    original = compiled._predicate_filter

    def spy(ev, frame, keep, store, items):
        calls.append(keep)
        return original(ev, frame, keep, store, items)

    monkeypatch.setattr(compiled, "_predicate_filter", spy)
    query = 'count($d//item[@id = "a1"])'
    assert engine.execute(query).first_value() == 2
    assert calls == []
    # A second predicate still takes the generic route: the spy sees it.
    query = 'count($d//item[@n = "1"][@id])'
    assert engine.execute(query).first_value() == 1
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
