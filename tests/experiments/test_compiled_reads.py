"""Reads run as compiled closures, not on the tree-walker.

A prepared query's expressions run as closures compiled once per
prepared query (:mod:`repro.semantics.compiled`).  Counted here on the
scan shape of the analytic workload,
``count($auction//person[number(income) > X])``: no rewrite applies, so
the body runs on the evaluator, which hands it whole to the closure and
makes no ``Evaluator.evaluate`` dispatch.  The same read with a
key-lookup first predicate answers from the value indexes with exactly
the probes of a run that interprets every node.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.engine import ExecutionOptions
from repro.semantics import evaluator
from tests.interpreted import on_tree_walker

SCAN = "count($auction//person[number(income) > 40000])"
KEYED = 'count($auction//person[@id = "person3"][number(income) > 0])'
OPTIONS = ExecutionOptions(collect_stats=True)


@pytest.fixture
def dispatches(monkeypatch):
    counts = {"evaluate": 0}
    evaluate = evaluator.Evaluator.evaluate

    def counted(self, expr, context):
        counts["evaluate"] += 1
        return evaluate(self, expr, context)

    monkeypatch.setattr(evaluator.Evaluator, "evaluate", counted)
    return counts


def read(engine_factory, query: str, interpreted: bool):
    with on_tree_walker() if interpreted else nullcontext():
        result = engine_factory(120, 40).execute(query, options=OPTIONS)
    return result.first_value(), result.stats.counters.get("index.probes", 0)


def test_scan_never_dispatches_to_the_tree_walker(auction_engine, dispatches):
    value, probes = read(auction_engine, SCAN, False)
    assert dispatches["evaluate"] == 0
    walked_value, walked_probes = read(auction_engine, SCAN, True)
    assert dispatches["evaluate"] > 0
    assert (value, probes) == (walked_value, walked_probes)


def test_keyed_scan_probes_as_often_as_the_interpreted_run(
    auction_engine, dispatches
):
    value, probes = read(auction_engine, KEYED, False)
    assert dispatches["evaluate"] == 0
    assert (value, probes) == (1, 1)
    assert read(auction_engine, KEYED, True) == (value, probes)
