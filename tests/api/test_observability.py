"""End-to-end tests of the pipeline observability layer.

Covers the tracer threading through the whole pipeline: frontend phase
spans, snap/update metrics, store churn counters, conflict-check
outcomes, streaming-executor barriers, the explain report and the
slow-query hook.
"""

import pytest

from repro import Engine, ExecutionOptions
from repro.errors import ConflictError


def make_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.load_document(
        "doc",
        "<inventory>"
        "<item id='a' price='10'/><item id='b' price='20'/>"
        "<item id='c' price='30'/>"
        "</inventory>",
    )
    return engine


UPDATING = (
    'snap { insert { <item id="x"/> } into { $doc/inventory }, '
    'delete { $doc/inventory/item[@id="a"] } }'
)

JOIN = (
    "for $x in $doc//item for $y in $doc//item "
    "where $x/@id = $y/@id return <pair/>"
)


class TestPhaseSpans:
    def test_cold_execute_records_frontend_phases(self):
        engine = make_engine()
        stats = engine.execute("count($doc//item)", collect_stats=True).stats
        phases = stats.phase_times_ms
        for name in ("parse", "normalize", "simplify", "evaluate",
                     "snap-apply"):
            assert name in phases, name
            assert phases[name] >= 0.0

    def test_cache_hit_skips_frontend_phases(self):
        engine = make_engine()
        engine.execute("count($doc//item)", collect_stats=True)
        stats = engine.execute("count($doc//item)", collect_stats=True).stats
        phases = stats.phase_times_ms
        assert "parse" not in phases
        assert "evaluate" in phases
        assert stats.cache_hits == 1
        assert stats.cache_misses == 0

    def test_optimized_execute_records_compile_and_rule_spans(self):
        engine = make_engine()
        stats = engine.execute(JOIN, optimize=True, collect_stats=True).stats
        phases = stats.phase_times_ms
        assert "compile" in phases
        assert any(name.startswith("rewrite:") for name in phases)

    def test_spans_nest(self):
        engine = make_engine()
        stats = engine.execute(UPDATING, collect_stats=True).stats
        # snap-apply of the implicit snap is a top-level span; the explicit
        # inner snap's application nests under "evaluate".
        top = [span.name for span in stats.spans]
        assert "evaluate" in top and "snap-apply" in top

    def test_duration_totals(self):
        engine = make_engine()
        stats = engine.execute("1 to 100", collect_stats=True).stats
        assert stats.duration_ms > 0.0


class TestSnapMetrics:
    def test_snap_count_and_pending_updates(self):
        engine = make_engine()
        stats = engine.execute(UPDATING, collect_stats=True).stats
        # Explicit snap + the implicit top-level snap.
        assert stats.snap_count == 2
        assert stats.pending_updates_total == 2
        obs = stats.observations["snap.pending_updates"]
        assert obs.count == 2
        assert obs.max == 2.0 and obs.min == 0.0

    def test_pure_query_has_empty_update_list(self):
        engine = make_engine()
        stats = engine.execute("count($doc//item)", collect_stats=True).stats
        assert stats.snap_count == 1
        assert stats.pending_updates_total == 0


class TestStoreCounters:
    def test_nodes_created_and_detached(self):
        engine = make_engine()
        stats = engine.execute(UPDATING, collect_stats=True).stats
        assert stats.counters["store.nodes_created"] >= 1
        assert stats.counters["store.nodes_detached"] == 1

    def test_disabled_run_leaves_store_unobserved(self):
        engine = make_engine()
        engine.execute(UPDATING)
        assert engine.evaluator.tracer is None


class TestConflictMetrics:
    def test_conflict_free_snap_counts_ok(self):
        engine = make_engine()
        stats = engine.execute(
            UPDATING,
            options=ExecutionOptions(
                semantics="conflict-detection", collect_stats=True
            ),
        ).stats
        assert stats.counters["conflict.checks"] >= 1
        assert stats.counters["conflict.ok"] >= 1
        assert "conflict.detected" not in stats.counters
        assert stats.observations["conflict.table.writes"].count >= 1

    def test_detected_conflict_is_counted_before_raising(self):
        engine = make_engine()
        with pytest.raises(ConflictError):
            engine.execute(
                'snap conflict-detection { '
                'rename { $doc/inventory/item[@id="a"] } to { "x1" }, '
                'rename { $doc/inventory/item[@id="a"] } to { "x2" } }',
                collect_stats=True,
            )


class TestExecutorBarriers:
    def test_hash_join_barriers_counted(self):
        engine = make_engine()
        stats = engine.execute(JOIN, optimize=True, collect_stats=True).stats
        assert stats.counters["exec.barrier.snap"] == 1
        assert stats.counters["exec.barrier.hash_build"] == 1
        assert stats.observations["exec.hash_build.rows"].count == 1

    def test_order_by_barrier_counted(self):
        engine = make_engine()
        stats = engine.execute(
            "for $i in $doc//item order by $i/@price descending return $i",
            optimize=True,
            collect_stats=True,
        ).stats
        assert stats.counters["exec.barrier.order_by"] == 1


class TestExplain:
    def test_explain_lists_fired_rules_with_purity(self):
        engine = make_engine()
        report = engine.explain(JOIN)
        assert report.rewritten
        fired = {rule.rule for rule in report.fired_rules}
        assert fired == {"hash-join"}
        clauses = [verdict["clause"] for verdict in report.purity]
        assert clauses == ["for $x", "for $y", "where", "return"]
        assert all(verdict["pure"] for verdict in report.purity)
        assert "HashJoin" in report.operators_after
        assert "HashJoin" not in report.operators_before

    def test_snap_guard_blocks_all_rules_with_reason(self):
        engine = make_engine()
        report = engine.explain(
            "for $x in $doc//item "
            "return snap { insert { <seen/> } into { $x } }"
        )
        assert not report.rewritten
        assert report.fired_rules == []
        for rule in report.rules:
            assert "snap" in rule.detail["reason"]
        assert any(verdict["may_snap"] for verdict in report.purity)

    def test_effectful_inner_branch_blocks_join(self):
        engine = make_engine()
        report = engine.explain(
            "for $x in $doc//item "
            "for $y in (insert { <probe/> } into { $doc/inventory }, "
            "$doc//item) "
            "where $x/@id = $y/@id return $y"
        )
        assert "hash-join" not in {rule.rule for rule in report.fired_rules}
        impure = [v for v in report.purity if not v["pure"]]
        assert impure and any(v["may_update"] for v in impure)

    def test_explain_is_side_effect_free(self):
        engine = make_engine()
        generation = engine.functions.generation
        engine.explain("declare function local:f() { 1 }; local:f()")
        assert engine.functions.generation == generation
        assert ("local:f", 0) not in engine.functions._user

    def test_execute_with_explain_option_attaches_report(self):
        engine = make_engine()
        result = engine.execute(JOIN, optimize=True, explain=True)
        assert result.explain is not None
        assert result.explain.rewritten

    def test_render_is_printable(self):
        engine = make_engine()
        text = engine.explain(JOIN).render()
        assert "plan (before rewriting):" in text
        assert "hash-join: fired" in text


class TestSlowQueryHook:
    def test_hook_fires_above_threshold(self):
        records = []
        engine = make_engine(
            on_slow_query=records.append, slow_query_ms=0.0
        )
        engine.execute("count($doc//item)")
        assert len(records) == 1
        record = records[0]
        assert record.query_text == "count($doc//item)"
        assert record.duration_ms >= 0.0
        assert record.threshold_ms == 0.0
        assert record.stats is None  # stats were not collected

    def test_hook_receives_stats_when_collected(self):
        records = []
        engine = make_engine(
            on_slow_query=records.append, slow_query_ms=0.0
        )
        engine.execute("count($doc//item)", collect_stats=True)
        assert records[0].stats is not None
        assert records[0].stats.snap_count == 1

    def test_hook_respects_threshold(self):
        records = []
        engine = make_engine(
            on_slow_query=records.append, slow_query_ms=1e9
        )
        engine.execute("count($doc//item)")
        assert records == []

    def test_hook_fires_for_direct_prepared_execute(self):
        records = []
        engine = make_engine(
            on_slow_query=records.append, slow_query_ms=0.0
        )
        prepared = engine.prepare("count($doc//item)")
        prepared.execute()
        assert len(records) == 1


class TestPreparedExecuteOptions:
    def test_prepared_execute_accepts_options(self):
        engine = make_engine()
        prepared = engine.prepare("count($doc//item)")
        result = prepared.execute(
            options=ExecutionOptions(collect_stats=True)
        )
        assert result.stats is not None
        assert result.stats.snap_count == 1

    def test_option_bindings_merge_with_positional(self):
        engine = make_engine()
        prepared = engine.prepare("$a + $b")
        result = prepared.execute(
            bindings={"b": 2},
            options=ExecutionOptions(bindings={"a": 10, "b": 99}),
        )
        assert result.first_value() == 12

    def test_tracer_uninstalled_after_traced_run(self):
        engine = make_engine()
        engine.execute(UPDATING, collect_stats=True)
        assert engine.evaluator.tracer is None

    def test_tracer_uninstalled_after_error(self):
        engine = make_engine()
        with pytest.raises(ConflictError):
            engine.execute(
                'snap conflict-detection { '
                'rename { $doc/inventory/item[@id="a"] } to { "x1" }, '
                'rename { $doc/inventory/item[@id="a"] } to { "x2" } }',
                collect_stats=True,
            )
        assert engine.evaluator.tracer is None

    def test_semantics_option_changes_cache_key(self):
        engine = make_engine()
        engine.execute("count($doc//item)")
        engine.execute("count($doc//item)", semantics="conflict-detection")
        keys = engine.prepared_cache.keys()
        assert ("count($doc//item)", False, "ordered") in keys
        assert ("count($doc//item)", False, "conflict-detection") in keys
