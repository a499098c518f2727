"""The analytic workload's eight query shapes: which run as plans.

A prepared query runs as a plan only when a §4.3 rewrite fired; every
other body runs on the evaluator.  The eight templates of the
benchmark's ``analytic-cold`` workload are copied here with fixed
literals and run on an XMark document large enough for the cost model
to act (above ``repro.index.MIN_TABLE_NODES``).  Exactly the join and
the Q8 variant prepare with a plan, and every template gives the same
result — and Q8's inserts the same store — as the same queries with
their plans withheld.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.cluster.replica import store_fingerprint
from repro.index import MIN_TABLE_NODES
from repro.xmark import XMarkConfig, generate_auction_xml
from tests.interpreted import without_plans

TEMPLATES = {
    "point": '$auction//person[@id = "person3"][number(income) > 100.5]'
    "/name",
    "scan": 'count($auction//person[city = "Seattle"]'
    "[number(income) > 20000.5])",
    "range": "count($auction//closed_auction[number(price) >= 50.5 "
    "and number(price) < 120.25])",
    "join": "for $t in $auction//closed_auction[number(price) > 200.5] "
    "for $p in $auction//person "
    "where $t/buyer/@person = $p/@id return string($p/name)",
    "orderby": "for $p in $auction//person "
    "where number($p/income) > 60000.5 "
    "order by number($p/income) descending return string($p/@id)",
    "aggregate": "max(for $t in $auction//closed_auction"
    "[number(price) < 150.5] return number($t/price))",
    "construct": "<report>{ for $t in $auction//closed_auction"
    "[number(price) > 200.5] return "
    '<sale item="{$t/itemref/@item}" price="{$t/price}"/> }</report>',
    "q8": "for $p in $auction//person[number(income) > 60000.5] "
    "let $a := for $t in $auction//closed_auction "
    "where $t/buyer/@person = $p/@id "
    'return (insert { <buyer person="{$t/buyer/@person}" '
    'itemid="{$t/itemref/@item}"/> } into { $purchasers }, $t) '
    'return <item person="{ $p/name }">{ count($a) }</item>',
}


@pytest.fixture(scope="module")
def xml() -> str:
    return generate_auction_xml(XMarkConfig.scale(0.5, seed=1))


def make_engine(xml: str) -> Engine:
    engine = Engine(static_checks=True)
    engine.load_document("auction", xml)
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    assert len(engine.store._records) >= MIN_TABLE_NODES
    return engine


def run_all(engine: Engine) -> tuple[dict, str]:
    results = {
        kind: engine.execute(text).serialize()
        for kind, text in TEMPLATES.items()
    }
    results["buyers"] = engine.execute("count($purchasers/buyer)").serialize()
    return results, store_fingerprint(engine)


def test_exactly_the_joins_prepare_with_a_plan(xml):
    engine = make_engine(xml)
    planned = {
        kind
        for kind, text in TEMPLATES.items()
        if engine.prepare(text)._plan is not None
    }
    assert planned == {"join", "q8"}


def test_every_template_equals_its_planless_run(xml):
    planned, planned_store = run_all(make_engine(xml))
    with without_plans():
        walked, walked_store = run_all(make_engine(xml))
    assert planned == walked
    assert planned_store == walked_store
    assert int(planned["buyers"]) > 0  # Q8's inserts landed
