"""The streaming plan executor: laziness, recursion safety, equivalence.

The executor drives MapConcat/LetBind/Select chains with an explicit
iterator stack instead of one generator frame per operator — FLWOR
nesting depth is bounded by memory, not ``sys.getrecursionlimit()`` — and
it must only materialize at the documented barriers (Snap, OrderBySort,
the build side of joins).
"""

import sys

from repro import Engine
from repro.algebra import plan as P
from repro.algebra.execute import execute_plan
from repro.lang import core_ast as core
from repro.xdm.values import AtomicValue


def _literal(n: int) -> core.CoreExpr:
    return core.CLiteral(value=AtomicValue.integer(n))


def test_deep_chain_exceeds_recursion_limit():
    """A MapConcat chain far deeper than the recursion limit executes.

    With one generator frame per operator this would raise RecursionError
    at ~1000 levels; the iterative driver only ever holds the chain as a
    list plus a resume stack.
    """
    depth = 4 * sys.getrecursionlimit()
    node: P.Plan = P.UnitTuple()
    for i in range(depth):
        node = P.MapConcat(input=node, var=f"v{i}", source=_literal(1))
    plan = P.Snap(input=P.MapFromItem(input=node, ret=_literal(7)))
    engine = Engine()
    # One tuple flows through every level; one item out.
    assert execute_plan(plan, engine.evaluator) == [AtomicValue.integer(7)]


def test_deep_chain_with_fanout_and_select():
    """Mixed chain: fan-out (2 items per level) x select filtering."""
    node: P.Plan = P.UnitTuple()
    two = core.CSequence(items=[_literal(1), _literal(2)])
    for i in range(10):
        node = P.MapConcat(input=node, var=f"v{i}", source=two)
    # Keep only tuples whose innermost binding is 2: half of 2^10.
    node = P.Select(
        input=node,
        predicate=core.CComparison(
            style="general",
            op="eq",
            left=core.CVar(name="v9"),
            right=_literal(2),
        ),
    )
    plan = P.Snap(input=P.MapFromItem(input=node, ret=core.CVar(name="v9")))
    engine = Engine()
    items = execute_plan(plan, engine.evaluator)
    assert len(items) == 2**9
    assert all(item.value == 2 for item in items)


def test_chain_is_lazy_until_the_barrier():
    """MapConcat sources are pulled tuple-by-tuple: the per-tuple return
    expression runs interleaved with source expansion, not after a full
    materialization of the tuple stream.  Observed through evaluation
    order: deltas (insert requests) accumulate in exactly the interpreter's
    depth-first order, which only happens if tuples flow one at a time."""
    engine = Engine()
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    query = (
        "for $i in (1, 2, 3) "
        "for $j in (1, 2) "
        "return insert { <e v='{concat($i, \".\", $j)}'/> } into { $sink }"
    )
    interpreted = Engine()
    interpreted.bind("sink", interpreted.parse_fragment("<sink/>"))
    interpreted.execute(query)
    engine.execute(query, optimize=True)
    assert (
        engine.execute("$sink").serialize()
        == interpreted.execute("$sink").serialize()
    )
    # Depth-first order: 1.1, 1.2, 2.1, ...
    values = engine.execute("$sink/e/@v/data(.)").strings()
    assert values == ["1.1", "1.2", "2.1", "2.2", "3.1", "3.2"]


def test_nested_flwor_parsed_matches_interpreter():
    """A parsed, moderately nested FLWOR through the optimizer equals the
    interpreter byte-for-byte (values and store)."""
    doc = "<d>" + "".join(
        f'<g k="{i % 3}"><x>{i}</x></g>' for i in range(12)
    ) + "</d>"
    query = (
        "for $g in $doc//g "
        "for $x in $g/x "
        "where $g/@k = 1 "
        "order by number($x) descending "
        "return string($x)"
    )
    plain, optimized = [], []
    for target, optimize in ((plain, False), (optimized, True)):
        engine = Engine()
        engine.load_document("doc", doc)
        target.append(engine.execute(query, optimize=optimize).serialize())
    assert plain == optimized
