"""The statistics module and the cost-based optimizer pass: hash-join
build sides, join-order choice, and the explain surface that discloses
every decision.  Access paths are not a plan choice: a ``for`` over
``B//name`` keeps its MapConcat source, which the evaluator answers
from the name index."""

from repro.engine import Engine, ExecutionOptions
from repro.index import MIN_TABLE_NODES, Statistics, hash_join_cost
from repro.xmark.generator import XMarkConfig, generate_auction_xml
from tests.interpreted import interpreted


def big_engine():
    """An engine whose store clears MIN_TABLE_NODES (3x XMark ~ 25k)."""
    engine = Engine()
    doc = engine.load_document(
        "auction", generate_auction_xml(XMarkConfig.scale(3))
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


class TestUseIndexesOption:
    def test_option_disables_index_scan_execution(self):
        engine = big_engine()
        query = '$doc//person[@id = "person3"]'
        on = engine.execute(query, collect_stats=True)
        off = engine.execute(
            query,
            collect_stats=True,
            options=ExecutionOptions(use_indexes=False, collect_stats=True),
        )
        assert [n.nid for n in on.items] == [n.nid for n in off.items]
        assert on.stats.counters.get("index.probes", 0) >= 1
        assert off.stats.counters.get("index.probes", 0) == 0

    def test_option_restored_after_call(self):
        engine = big_engine()
        engine.execute("1", options=ExecutionOptions(use_indexes=False))
        assert engine.evaluator.use_indexes

    def test_compiled_plan_falls_back_without_indexes(self):
        engine = big_engine()
        fast = engine.execute(Q8_QUERY)
        slow = engine.execute(
            Q8_QUERY, options=ExecutionOptions(use_indexes=False)
        )
        assert [n.string_value for n in fast.items] == [
            n.string_value for n in slow.items
        ]
