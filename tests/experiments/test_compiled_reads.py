"""Reads run as compiled closures, not on the spec.

A prepared query's expressions run as closures compiled once per
prepared query (:mod:`repro.semantics.compiled`).  Counted here on the
scan shape of the analytic workload,
``count($auction//person[number(income) > X])``: no rewrite applies, so
the body runs as written, as one closure, and makes no dispatch to the
spec's ``evaluate`` (:mod:`repro.semantics.spec`); the spec, which
walks every axis and probes no index, gives the same count.  The same
read with a key-lookup first predicate answers from the value indexes
with exactly the probes of a run with its plan withheld, and with the
spec's value.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.engine import ExecutionOptions
from repro.semantics import spec
from tests.interpreted import interpreted, on_spec

SCAN = "count($auction//person[number(income) > 40000])"
KEYED = 'count($auction//person[@id = "person3"][number(income) > 0])'
OPTIONS = ExecutionOptions(collect_stats=True)


@pytest.fixture
def dispatches(monkeypatch):
    counts = {"evaluate": 0}
    evaluate = spec.evaluate

    def counted(ev, expr, context):
        counts["evaluate"] += 1
        return evaluate(ev, expr, context)

    monkeypatch.setattr(spec, "evaluate", counted)
    return counts


def read(engine_factory, query: str, interpreted: bool):
    with on_spec() if interpreted else nullcontext():
        result = engine_factory(120, 40).execute(query, options=OPTIONS)
    return result.first_value(), result.stats.counters.get("index.probes", 0)


def test_scan_never_dispatches_to_the_tree_walker(auction_engine, dispatches):
    value, _ = read(auction_engine, SCAN, False)
    assert dispatches["evaluate"] == 0
    walked_value, walked_probes = read(auction_engine, SCAN, True)
    assert dispatches["evaluate"] > 0
    assert (walked_value, walked_probes) == (value, 0)


def test_keyed_scan_probes_as_often_as_the_interpreted_run(
    auction_engine, dispatches
):
    value, probes = read(auction_engine, KEYED, False)
    assert dispatches["evaluate"] == 0
    assert (value, probes) == (1, 1)
    plain = interpreted(auction_engine(120, 40), KEYED, options=OPTIONS)
    assert plain.stats.counters.get("index.probes", 0) == probes
    assert read(auction_engine, KEYED, True) == (value, 0)
