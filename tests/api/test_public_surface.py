"""Locks the redesigned public API surface.

These tests pin down what ``import repro`` exports, the
:class:`ExecutionOptions` contract (keyword-only, immutable, defaults),
the keyword-only engine methods, the
scoped-prolog-registration guarantee and the JSON round-trip of the
stats/explain reports.  A change that breaks any of them is an API break
and should be deliberate.
"""

import dataclasses
import json

import pytest

import repro
from repro import Engine, ExecutionOptions
from repro.errors import DynamicError, XQueryError


EXPECTED_ALL = {
    "Engine",
    "ExecutionOptions",
    "QueryResult",
    "PreparedQuery",
    "PreparedQueryCache",
    "QueryStats",
    "ExplainReport",
    "SlowQueryRecord",
    "Tracer",
    "to_sequence",
    "CancelToken",
    "ConcurrentExecutor",
    "DurableEngine",
    "FaultInjector",
    "recover",
    "XQueryError",
    "DurabilityError",
    "JournalCorruptionError",
    "QueryTimeoutError",
    "QueryCancelledError",
    "ServiceOverloadedError",
    "CircuitOpenError",
    "ResourceLimitError",
    "TransactionConflictError",
    "ReplicaLagError",
    "StaleEpochError",
    "Session",
    "Transaction",
    "ResiliencePolicy",
    "RetryPolicy",
    "CircuitBreaker",
    "AdmissionLimits",
    "HealthReport",
    "AtomicValue",
    "Node",
    "NodeKind",
    "Store",
    "parse_document",
    "parse_fragment",
    "serialize",
    "__version__",
}


def make_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.load_document(
        "doc",
        "<inventory><item id='a' price='10'/><item id='b' price='20'/>"
        "</inventory>",
    )
    return engine


class TestModuleSurface:
    def test_all_is_exactly_the_documented_surface(self):
        assert set(repro.__all__) == EXPECTED_ALL

    def test_every_all_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name


class TestExecutionOptions:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.semantics is None
        assert opts.bindings is None
        assert opts.collect_stats is False
        assert opts.explain is False

    def test_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            ExecutionOptions(True)  # noqa: the point is the positional call

    def test_frozen(self):
        opts = ExecutionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.collect_stats = True

    def test_invalid_semantics_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ExecutionOptions(semantics="yolo")

    def test_semantics_accepts_enum_and_string(self):
        from repro.semantics.update import ApplySemantics

        assert (
            ExecutionOptions(semantics="conflict-detection").resolved_semantics
            is ApplySemantics.CONFLICT_DETECTION
        )
        assert (
            ExecutionOptions(
                semantics=ApplySemantics.ORDERED
            ).resolved_semantics
            is ApplySemantics.ORDERED
        )

    def test_explicit_keywords_override_options(self):
        engine = make_engine()
        opts = ExecutionOptions(collect_stats=False)
        result = engine.execute(
            "count($doc//item)", options=opts, collect_stats=True
        )
        assert result.stats is not None

    def test_options_object_is_reusable_across_calls(self):
        engine = make_engine()
        opts = ExecutionOptions(timeout_ms=60_000, collect_stats=True)
        first = engine.execute("count($doc//item)", options=opts)
        second = engine.execute("count($doc//item)", options=opts)
        assert first.first_value() == second.first_value() == 2
        assert second.stats.cache_hits == 1

    def test_keyword_form_does_not_warn(self):
        import warnings

        engine = make_engine()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            engine.execute("count($doc//item)", semantics="ordered")
            engine.prepare("count($doc//item)", semantics="ordered")
            engine.compile("count($doc//item)", semantics="ordered")

    def test_optimize_keyword_is_gone(self):
        engine = make_engine()
        with pytest.raises(TypeError):
            ExecutionOptions(optimize=True)
        for method in (engine.execute, engine.prepare, engine.compile):
            with pytest.raises(TypeError):
                method("count($doc//item)", optimize=True)


class TestEngineBindings:
    def test_execute_accepts_bindings_keyword(self):
        engine = make_engine()
        result = engine.execute("$n * 2", bindings={"n": 21})
        assert result.first_value() == 42

    def test_bindings_do_not_leak(self):
        engine = make_engine()
        engine.execute("$n * 2", bindings={"n": 21})
        with pytest.raises(DynamicError, match=r"\$n is not bound"):
            engine.variable("n")

    def test_variable_raises_dynamic_error_with_name(self):
        engine = Engine()
        with pytest.raises(DynamicError, match=r"\$missing is not bound"):
            engine.variable("missing")


class TestScopedPrologRegistration:
    def test_failed_compile_rolls_back_functions_and_generation(self):
        engine = make_engine(static_checks=True)
        engine.execute("count($doc//item)")  # warm the prepared cache
        generation = engine.functions.generation
        with pytest.raises(XQueryError):
            engine.compile("declare function local:f() { 1 }; $no_such_var")
        assert engine.functions.generation == generation
        assert ("local:f", 0) not in engine.functions._user
        # The cached prepared query is still valid (same generation).
        key = ("count($doc//item)", "ordered")
        assert engine.prepared_cache.lookup(key, generation) is not None

    def test_failed_prepare_rolls_back(self):
        engine = Engine(static_checks=True)
        engine.load_document("doc", "<d/>")
        engine.execute("count($doc)")
        generation = engine.functions.generation
        with pytest.raises(XQueryError):
            engine.prepare("declare function local:g() { 2 }; $no_such_var")
        assert engine.functions.generation == generation
        assert ("local:g", 0) not in engine.functions._user

    def test_successful_prepare_commits_registration(self):
        engine = make_engine()
        result = engine.execute("declare function local:two() { 2 }; local:two()")
        assert result.first_value() == 2
        assert ("local:two", 0) in engine.functions._user


class TestReportSerialization:
    def test_stats_to_dict_round_trips_through_json(self):
        engine = make_engine()
        result = engine.execute(
            'snap insert { <item id="c"/> } into { $doc/inventory }',
            collect_stats=True,
        )
        payload = json.loads(result.stats.to_json())
        assert payload == result.stats.to_dict()
        assert payload["snap_count"] == result.stats.snap_count >= 1
        assert "phase_times_ms" in payload
        assert isinstance(payload["counters"], dict)

    def test_explain_to_dict_round_trips_through_json(self):
        engine = make_engine()
        report = engine.explain(
            "for $x in $doc//item for $y in $doc//item "
            "where $x/@id = $y/@id return $x"
        )
        payload = json.loads(report.to_json())
        assert payload == report.to_dict()
        assert payload["rewritten"] is True
        assert {rule["rule"] for rule in payload["rules"]} == {
            "hoist-invariant-lets",
            "outer-join-group-by",
            "hash-join",
        }

    def test_slow_query_record_to_json(self):
        from repro import SlowQueryRecord

        record = SlowQueryRecord(
            query_text="1+1", duration_ms=5.0, threshold_ms=1.0
        )
        payload = json.loads(record.to_json())
        assert payload["query"] == "1+1"
        assert payload["stats"] is None

    def test_stats_absent_by_default(self):
        engine = make_engine()
        result = engine.execute("count($doc//item)")
        assert result.stats is None
        assert result.explain is None
