"""Timeouts and cancellation: typed errors, atomic discard, clean reuse."""

import pytest

from repro import (
    CancelToken,
    Engine,
    ExecutionOptions,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.concurrent.control import ExecutionControl

SLOW_QUERY = (
    "for $a in 1 to 100, $b in 1 to 100, $c in 1 to 100 "
    "return $a * $b * $c"
)


class TestExecutionControl:
    def test_from_options_is_none_without_timeout_or_token(self):
        assert ExecutionControl.from_options(None) is None
        assert ExecutionControl.from_options(ExecutionOptions()) is None

    def test_from_options_builds_when_configured(self):
        control = ExecutionControl.from_options(
            ExecutionOptions(timeout_ms=50)
        )
        assert control is not None
        assert control.timeout_ms == 50
        control.check()  # fresh deadline: no raise

    def test_check_raises_after_deadline(self):
        clock = iter([0.0, 10.0]).__next__
        control = ExecutionControl(timeout_ms=100, clock=clock)
        with pytest.raises(QueryTimeoutError) as info:
            control.check()
        assert info.value.timeout_ms == 100

    def test_check_raises_when_token_fires(self):
        token = CancelToken()
        control = ExecutionControl(token=token)
        control.check()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            control.check()

    def test_expired_and_remaining(self):
        times = [0.0]
        control = ExecutionControl(timeout_ms=100, clock=lambda: times[0])
        assert not control.expired()
        assert control.remaining_ms() == pytest.approx(100.0)
        times[0] = 1.0
        assert control.expired()
        assert control.remaining_ms() == 0.0

    def test_token_is_one_shot_and_reports_state(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel()
        token.cancel()
        assert token.cancelled()


class TestOptionsValidation:
    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError):
            ExecutionOptions(timeout_ms=0)
        with pytest.raises(ValueError):
            ExecutionOptions(timeout_ms=-5)


class TestEngineTimeout:
    def test_slow_query_times_out_with_typed_error(self):
        engine = Engine()
        with pytest.raises(QueryTimeoutError) as info:
            engine.execute(SLOW_QUERY, timeout_ms=10)
        assert info.value.timeout_ms == 10
        assert "REPR0001" in str(info.value)

    def test_engine_usable_after_timeout(self):
        engine = Engine()
        with pytest.raises(QueryTimeoutError):
            engine.execute(SLOW_QUERY, timeout_ms=10)
        assert engine.execute("1 + 1").first_value() == 2

    def test_timed_out_update_leaves_store_unchanged(self):
        """The deadline fires before the implicit snap applies: the
        pending Δ is discarded, never half-applied."""
        engine = Engine()
        engine.load_document("doc", "<t/>")
        query = (
            "for $i in 1 to 200000 "
            "return insert { <n/> } into { $doc/t }"
        )
        with pytest.raises(QueryTimeoutError):
            engine.execute(query, timeout_ms=20)
        assert engine.execute("count($doc/t/n)").first_value() == 0

    def test_explicit_snap_discarded_on_timeout(self):
        engine = Engine()
        engine.load_document("doc", "<t/>")
        query = (
            "snap { for $i in 1 to 200000 "
            "return insert { <n/> } into { $doc/t } }"
        )
        with pytest.raises(QueryTimeoutError):
            engine.execute(query, timeout_ms=20)
        assert engine.execute("count($doc/t/n)").first_value() == 0

    def test_generous_timeout_does_not_fire(self):
        engine = Engine()
        result = engine.execute(
            "sum(for $i in 1 to 100 return $i)", timeout_ms=60_000
        )
        assert result.first_value() == 5050

    def test_timeout_applies_on_optimized_path(self):
        engine = Engine()
        hoisted = SLOW_QUERY.replace("return", "let $k := 2 return")
        assert engine.compile(hoisted) is not None  # runs as a plan
        with pytest.raises(QueryTimeoutError):
            engine.execute(hoisted, timeout_ms=10)
        assert (
            engine.execute("2 * 3").first_value() == 6
        )


class TestEngineCancellation:
    def test_prefired_token_cancels_immediately(self):
        engine = Engine()
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError) as info:
            engine.execute(SLOW_QUERY, cancel=token)
        assert "REPR0002" in str(info.value)

    def test_cancelled_update_leaves_store_unchanged(self):
        engine = Engine()
        engine.load_document("doc", "<t/>")
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            engine.execute(
                "for $i in 1 to 50 return insert { <n/> } into { $doc/t }",
                cancel=token,
            )
        assert engine.execute("count($doc/t/n)").first_value() == 0

    def test_unfired_token_is_harmless(self):
        engine = Engine()
        token = CancelToken()
        assert engine.execute("1 + 1", cancel=token).first_value() == 2


class TestPreparedQueryControl:
    def test_prepared_execute_honours_timeout_option(self):
        engine = Engine()
        prepared = engine.prepare(SLOW_QUERY)
        with pytest.raises(QueryTimeoutError):
            prepared.execute(options=ExecutionOptions(timeout_ms=10))
        # The control is cleared afterwards: a plain execute succeeds.
        fast = engine.prepare("7 * 6")
        assert fast.execute().first_value() == 42
