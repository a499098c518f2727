"""Updating queries and plans run as compiled closures, never on the
tree-walker.

Every node of a prepared query compiles (:mod:`repro.semantics.compiled`),
the update primitives, snaps and §4.3 plans included.  So the web
service's logged ``get_item`` (a nested-snap counter, a logged insert,
the rollover), a bulk snap of one insert per person and the
``analytic-cold`` workload's two plans (the join and the updating Q8
group-by) make no ``Evaluator.evaluate`` dispatch; nor does a pure
recursive function, which the effect analysis judges pure as the least
fixpoint of its cycle.  With the closures withheld, each runs on the
tree-walker, with the same value and the same store left behind.  A
query that cannot be lowered is refused when it is prepared: nothing
falls back to the tree-walker.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro import Engine
from repro.cluster.replica import store_fingerprint
from repro.errors import StaticError
from repro.semantics import compiled, evaluator
from repro.usecases.webservice import AuctionService
from repro.xmark import XMarkConfig, generate_auction_xml
from tests.experiments.test_template_plans import TEMPLATES
from tests.interpreted import on_tree_walker

UNMARK = "snap { delete { $auction//person/mark } }"
BULK = (
    "snap {} {{ for $p in $auction//person[position() <= 200] "
    'return insert {{ <mark n="{{$n}}"/> }} into {{ $p }} }}'
)
RECURSIVE = """
declare function local:f($n) {
  if ($n <= 0) then 0 else 1 + local:f($n - 1)
};
local:f(20)
"""


@pytest.fixture
def dispatches(monkeypatch):
    counts = {"evaluate": 0}
    evaluate = evaluator.Evaluator.evaluate

    def counted(self, expr, context):
        counts["evaluate"] += 1
        return evaluate(self, expr, context)

    monkeypatch.setattr(evaluator.Evaluator, "evaluate", counted)
    return counts


@pytest.fixture(scope="module")
def auction_xml() -> str:
    return generate_auction_xml(XMarkConfig(persons=40, items=20))


def service_run(xml: str, walked: bool) -> tuple:
    """Twelve logged calls (one rollover) and one bulk snap per mode."""
    with on_tree_walker() if walked else nullcontext():
        service = AuctionService(xml, maxlog=10)
        values = [
            service.get_item(f"item{i % 20}", f"person{i % 40}").serialize()
            for i in range(12)
        ]
        engine = service.engine
        for n, mode in enumerate(
            ("ordered", "nondeterministic", "conflict-detection")
        ):
            engine.execute(UNMARK)
            engine.execute(BULK.format(mode), bindings={"n": n})
        return values, store_fingerprint(engine)


def test_get_item_never_dispatches_to_the_tree_walker(
    auction_xml, dispatches
):
    service = AuctionService(auction_xml, maxlog=10)
    for i in range(12):
        service.get_item(f"item{i}", f"person{i}")
    assert dispatches["evaluate"] == 0
    assert len(service.engine.execute("$archive//logentry").items) == 10


def test_bulk_snap_never_dispatches_to_the_tree_walker(
    auction_xml, dispatches
):
    engine = AuctionService(auction_xml).engine
    engine.execute(UNMARK)
    engine.execute(BULK.format("ordered"), bindings={"n": 1})
    assert dispatches["evaluate"] == 0
    assert engine.execute("count($auction//mark)").first_value() == 40


def test_pure_recursion_never_dispatches_to_the_tree_walker(
    auction_xml, dispatches
):
    engine = AuctionService(auction_xml).engine
    assert engine.execute(RECURSIVE).first_value() == 20
    assert dispatches["evaluate"] == 0
    with on_tree_walker():
        engine.prepared_cache.clear()
        assert engine.execute(RECURSIVE).first_value() == 20
    assert dispatches["evaluate"] > 0


def plan_run(xml: str, walked: bool) -> tuple:
    """The join and Q8 templates, twice each, and the store they leave."""
    with on_tree_walker() if walked else nullcontext():
        engine = Engine()
        engine.load_document("auction", xml)
        engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
        planned = [
            engine.prepare(TEMPLATES[kind])._plan is not None
            for kind in ("join", "q8")
        ]
        values = [
            engine.execute(TEMPLATES[kind]).serialize()
            for kind in ("join", "q8", "join", "q8")
        ]
        return planned, values, store_fingerprint(engine)


def test_plans_never_dispatch_to_the_tree_walker(auction_xml, dispatches):
    planned, values, fingerprint = plan_run(auction_xml, False)
    assert planned == [True, True]
    assert dispatches["evaluate"] == 0
    walked = plan_run(auction_xml, True)
    assert dispatches["evaluate"] > 0
    assert walked == ([False, False], values, fingerprint)


def test_the_tree_walker_leaves_the_same_service_state(auction_xml):
    assert service_run(auction_xml, False) == service_run(auction_xml, True)


def test_a_query_that_cannot_lower_is_refused_at_prepare(monkeypatch):
    """Lowering runs when the query is prepared, under its guard: a
    stack overflow there is a ``StaticError`` that leaves the function
    registry and the prepared cache as they were."""
    engine = Engine()
    engine.execute("1")
    generation = engine.functions.generation
    cached = len(engine.prepared_cache)

    def overflow(expr, params=(), registry=None):
        raise RecursionError

    with monkeypatch.context() as patch:
        patch.setattr(compiled, "compile_closure", overflow)
        with pytest.raises(StaticError):
            engine.prepare("declare function local:f() { 1 }; local:f() + 1")
    assert engine.functions.generation == generation
    assert len(engine.prepared_cache) == cached
    assert engine.execute("1").first_value() == 1


def test_a_reference_run_leaves_the_closures_in_place(dispatches):
    """A function body lowered for the tree-walker inside a reference
    run is not kept: the next production call compiles it."""
    engine = Engine()
    engine.load_module("declare function local:f($x) { $x + 1 }; 1")
    with on_tree_walker():
        assert engine.execute("local:f(1)").first_value() == 2
    walked = dispatches["evaluate"]
    assert walked > 0
    assert engine.execute("local:f(2)").first_value() == 3
    assert dispatches["evaluate"] == walked
