"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation isolates one engineering decision of this implementation and
measures what it buys:

* **name index** — the store's element-name index answering
  ``descendant::name`` steps vs the plain subtree walk;
* **// collapse** — the ``descendant-or-self::node()/child::n`` →
  ``descendant::n`` core rewrite (without it the index never fires);
* **order-key cache** — cached document-order keys vs recomputation
  (exercised through a sort-heavy query);
* **touch scope** — per-tree order-cache invalidation vs wiping the whole
  cache on any mutation (the mixed read/update service workload: updates
  hit $log while sorted reads hit $auction, so scoped invalidation keeps
  the document's keys warm).
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.lang.normalize import normalize_module
from repro.lang.parser import parse_module
from repro.semantics.context import DynamicContext
from repro.xdm.store import Store
from repro.xmark import XMarkConfig, generate_auction_xml

_XML = generate_auction_xml(
    XMarkConfig(persons=150, items=100, closed_auctions=150)
)

SCAN_QUERY = "count($auction//person) + count($auction//closed_auction)"


def scan_engine(use_index: bool) -> Engine:
    engine = Engine()
    engine.evaluator.use_name_index = use_index
    engine.load_document("auction", _XML)
    return engine


@pytest.mark.benchmark(group="ablation-name-index")
def test_descendant_scan_with_index(benchmark):
    engine = scan_engine(True)

    def run():
        for _ in range(10):
            engine.execute(SCAN_QUERY)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="ablation-name-index")
def test_descendant_scan_without_index(benchmark):
    engine = scan_engine(False)

    def run():
        for _ in range(10):
            engine.execute(SCAN_QUERY)

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.benchmark(group="ablation-collapse")
def test_with_collapse(benchmark):
    """Engine pipeline (simplification applied)."""
    engine = scan_engine(True)
    benchmark.pedantic(
        lambda: engine.execute(SCAN_QUERY), rounds=5, iterations=1
    )


@pytest.mark.benchmark(group="ablation-collapse")
def test_without_collapse(benchmark):
    """Evaluate the unsimplified core directly: // stays a
    descendant-or-self::node()/child:: pair, so the index cannot fire."""
    engine = scan_engine(True)
    module = normalize_module(parse_module(SCAN_QUERY))

    def run():
        context = DynamicContext(dict(engine.evaluator.globals))
        engine.evaluator.run_snapped(module.body, context)

    benchmark.pedantic(run, rounds=5, iterations=1)


@pytest.mark.benchmark(group="ablation-order-cache")
def test_sort_heavy_query(benchmark):
    """Document-order sorting over a large node set (cache exercised)."""
    engine = scan_engine(True)

    def run():
        engine.execute(
            "count($auction//person | $auction//closed_auction/buyer)"
        )

    benchmark.pedantic(run, rounds=5, iterations=1)


@pytest.mark.benchmark(group="ablation-order-cache")
def test_sort_heavy_query_cold_cache(benchmark):
    """Same query but with the cache invalidated each round (a mutation
    between queries clears cached keys — the realistic worst case)."""
    engine = scan_engine(True)
    engine.bind("sink", engine.parse_fragment("<sink/>"))

    def run():
        engine.execute("snap insert { <tick/> } into { $sink }")
        engine.execute(
            "count($auction//person | $auction//closed_auction/buyer)"
        )

    benchmark.pedantic(run, rounds=5, iterations=1)


class _FullWipeStore(Store):
    """The pre-scoping behaviour: any mutation drops every cached key."""

    def _touch(self, *roots):
        Store._touch(self)


_MIXED_READ = "count($auction//person | $auction//closed_auction/buyer)"
_MIXED_WRITE = "snap insert { <tick/> } into { $sink }"


def _mixed_workload(engine: Engine):
    def run():
        for _ in range(5):
            engine.execute(_MIXED_WRITE)
            engine.execute(_MIXED_READ)

    return run


@pytest.mark.benchmark(group="ablation-touch-scope")
def test_mixed_workload_scoped_touch(benchmark):
    """Updates land in $sink; $auction order keys survive them."""
    engine = scan_engine(True)
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    benchmark.pedantic(_mixed_workload(engine), rounds=3, iterations=1)


@pytest.mark.benchmark(group="ablation-touch-scope")
def test_mixed_workload_full_wipe(benchmark):
    """Same workload with every mutation wiping the whole order cache."""
    engine = scan_engine(True)
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    engine.store.__class__ = _FullWipeStore
    benchmark.pedantic(_mixed_workload(engine), rounds=3, iterations=1)
