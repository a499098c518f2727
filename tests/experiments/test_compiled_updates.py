"""Updating queries run as compiled closures, not on the tree-walker.

Every node of a prepared query compiles (:mod:`repro.semantics.compiled`),
the update primitives and snaps included.  So the web service's logged
``get_item`` (a nested-snap counter, a logged insert, the rollover) and
a bulk snap of one insert per person make no ``Evaluator.evaluate``
dispatch; nor does a pure recursive function, which the effect analysis
judges pure as the least fixpoint of its cycle.  With the closures
withheld, each runs on the tree-walker, with the same value and the
same store left behind.
"""

from __future__ import annotations

import pytest

from repro.cluster.replica import store_fingerprint
from repro.semantics import compiled, evaluator
from repro.usecases.webservice import AuctionService
from repro.xmark import XMarkConfig, generate_auction_xml

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


def decline(expr, params=(), registry=None):
    return None


def service_run(xml: str, walked: bool, monkeypatch) -> tuple:
    """Twelve logged calls (one rollover) and one bulk snap per mode."""
    with monkeypatch.context() as patch:
        if walked:
            patch.setattr(compiled, "compile_closure", decline)
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
    auction_xml, dispatches, monkeypatch
):
    engine = AuctionService(auction_xml).engine
    assert engine.execute(RECURSIVE).first_value() == 20
    assert dispatches["evaluate"] == 0
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "compile_closure", decline)
        engine.prepared_cache.clear()
        assert engine.execute(RECURSIVE).first_value() == 20
    assert dispatches["evaluate"] > 0


def test_the_tree_walker_leaves_the_same_service_state(
    auction_xml, monkeypatch
):
    assert service_run(auction_xml, False, monkeypatch) == service_run(
        auction_xml, True, monkeypatch
    )
