"""The statistics module and the cost-based optimizer pass: hash-join
build sides, join-order choice, and the explain surface that discloses
every decision.  Access paths are not a plan choice: a ``for`` over
``B//name`` keeps its MapConcat source, which the evaluator answers
from the name index."""

from repro.engine import Engine
from repro.index import MIN_TABLE_NODES, Statistics, hash_join_cost
from repro.xmark.generator import XMarkConfig, generate_auction_xml
from tests.interpreted import by_spec, interpreted


def big_engine(scale: float = 3):
    """An engine whose store clears MIN_TABLE_NODES (3x XMark ~ 25k;
    0.3x ~ 2.4k)."""
    engine = Engine()
    doc = engine.load_document(
        "auction", generate_auction_xml(XMarkConfig.scale(scale))
    )
    engine.bind("doc", [doc])
    assert len(engine.store._records) >= MIN_TABLE_NODES
    return engine


def small_engine():
    engine = Engine()
    doc = engine.load_document(
        "db",
        "<db><l><a k='1'/><a k='2'/></l><r><b k='1'/><b k='2'/></r></db>",
    )
    engine.bind("db", [doc])
    return engine


class TestCostFunctions:
    def test_hash_join_prefers_small_build(self):
        assert hash_join_cost(10, 1000) < hash_join_cost(1000, 10)


class TestStatistics:
    def test_from_store_counts_elements_exactly(self):
        engine = small_engine()
        stats = Statistics.from_store(engine.store)
        assert stats.element_count("a") == 2
        assert stats.element_count("b") == 2
        assert stats.element_count("nope") == 0
        assert stats.total_nodes() == len(engine.store._records)

    def test_from_xmark_matches_generated_counts(self):
        config = XMarkConfig()
        engine = Engine()
        doc = engine.load_document("a", generate_auction_xml(config))
        engine.bind("doc", [doc])
        stats = Statistics.from_xmark(config)
        live = Statistics.from_store(engine.store)
        for name in ("person", "item", "closed_auction", "name"):
            assert stats.element_count(name) == live.element_count(name)


JOIN_QUERY = """
for $p in $doc//person
for $t in $doc//closed_auction
where $t/buyer/@person = $p/@id
return string($p/@id)
"""

Q8_QUERY = """
for $p in $doc//person
let $a := for $t in $doc//closed_auction
          where $t/buyer/@person = $p/@id
          return $t
return <row id="{$p/@id}">{count($a)}</row>
"""


class TestCostPass:
    def test_large_store_keeps_mapconcat_sources(self):
        engine = big_engine()
        report = engine.explain(Q8_QUERY)
        assert report.operators_after.count("MapConcat") == 2
        assert report.costs == []

    def test_small_store_keeps_plan_shape(self):
        engine = small_engine()
        report = engine.explain(
            "for $a in $db//a for $b in $db//b "
            "where $a/@k = $b/@k return string($a/@k)"
        )
        assert "HashJoin" in report.operators_after
        assert report.costs == []

    def test_decisions_carry_rejected_alternatives(self):
        engine = big_engine()
        report = engine.explain(JOIN_QUERY)
        assert report.costs
        for decision in report.costs:
            plans = {alt["plan"] for alt in decision.alternatives}
            assert plans == {"build-right", "build-left"}
            assert decision.reason

    def test_explain_render_and_dict_include_costs(self):
        engine = big_engine()
        report = engine.explain(JOIN_QUERY)
        assert "cost decisions:" in report.render()
        assert report.to_dict()["costs"]

    def test_hash_join_builds_on_estimated_smaller_side(self):
        engine = big_engine()
        report = engine.explain(JOIN_QUERY)
        assert "HashJoin" in report.operators_after
        sides = [
            d for d in report.costs if d.decision == "hash-build-side"
        ]
        assert len(sides) == 1
        # 765 persons vs 291 closed auctions: right (inner) is smaller.
        assert sides[0].chosen == "build-right"

    def test_hash_join_build_side_flips_when_inner_is_larger(self):
        engine = big_engine()
        flipped = """
        for $t in $doc//closed_auction
        for $p in $doc//person
        where $t/buyer/@person = $p/@id
        return string($p/@id)
        """
        report = engine.explain(flipped)
        sides = [
            d for d in report.costs if d.decision == "hash-build-side"
        ]
        assert len(sides) == 1
        assert sides[0].chosen == "build-left"

    def test_flipped_build_side_same_results(self):
        engine = big_engine()
        flipped = """
        for $t in $doc//closed_auction
        for $p in $doc//person
        where $t/buyer/@person = $p/@id
        return concat($t/price, ":", $p/@id)
        """
        fast = engine.execute(flipped)
        slow = interpreted(engine, flipped)
        assert [str(v) for v in fast.items] == [str(v) for v in slow.items]


class TestIndexFreeReference:
    """The spec (:mod:`repro.semantics.spec`) reads no index: it is the
    reference for production's probes and indexed join builds."""

    def test_spec_answers_without_index_probes(self):
        engine = big_engine()
        query = '$doc//person[@id = "person3"]'
        fast = engine.execute(query, collect_stats=True)
        slow = by_spec(engine, query, collect_stats=True)
        assert [n.nid for n in fast.items] == [n.nid for n in slow.items]
        assert fast.stats.counters.get("index.probes", 0) >= 1
        assert slow.stats.counters.get("index.probes", 0) == 0

    def test_compiled_plan_equals_the_spec(self):
        # The spec runs Q8 as nested loops, |person| x |closed_auction|
        # comparisons, so this store only just clears MIN_TABLE_NODES.
        engine = big_engine(0.3)
        fast = engine.execute(Q8_QUERY, collect_stats=True)
        assert fast.stats.counters["exec.join.index_probes"] > 0
        slow = by_spec(engine, Q8_QUERY)
        assert [n.string_value for n in fast.items] == [
            n.string_value for n in slow.items
        ]
