"""Admission control: pre-parse guards, runtime budgets, load shedding.

Covers the static query-text bounds, the ResourceGuard riding
ExecutionControl, the Δ-length bound enforced at snap application, and
the AdmissionController's depth- and latency-aware shed decisions.
"""

from __future__ import annotations

import pytest

from repro import Engine, ExecutionOptions
from repro.concurrent.control import ExecutionControl
from repro.errors import ResourceLimitError, ServiceOverloadedError
from repro.obs import Tracer
from repro.resilience import AdmissionLimits
from repro.resilience.admission import AdmissionController, nesting_depth


class TestNestingDepth:
    def test_flat_text(self):
        assert nesting_depth("1 + 2") == 0

    def test_mixed_brackets(self):
        assert nesting_depth("snap { insert { (<a/>) } into { $d } }") == 3

    def test_unbalanced_closers_do_not_underflow(self):
        assert nesting_depth(")))((") == 2


class TestQueryTextGuards:
    def test_depth_bound_refuses_with_structure(self):
        limits = AdmissionLimits(max_depth=4)
        query = "(((((1)))))"
        with pytest.raises(ResourceLimitError) as info:
            limits.check_query_text(query)
        err = info.value
        assert err.code == "REPR0007"
        assert err.limit_name == "max_depth"
        assert err.limit == 4
        assert err.observed == 5

    def test_size_bound(self):
        limits = AdmissionLimits(max_query_bytes=16)
        with pytest.raises(ResourceLimitError, match="bytes"):
            limits.check_query_text("count($doc//item[position() < 10])")

    def test_within_bounds_is_silent(self):
        AdmissionLimits(max_depth=8, max_query_bytes=100).check_query_text(
            "count($d)"
        )

    def test_no_bounds_means_no_guard_object(self):
        assert AdmissionLimits().guard(object()) is None
        assert not AdmissionLimits().enabled
        assert AdmissionLimits(max_depth=2).enabled

    def test_validation(self):
        with pytest.raises(ValueError, match="max_depth"):
            AdmissionLimits(max_depth=0)


def run_guarded(engine: Engine, query: str, limits: AdmissionLimits):
    """Execute *query* with a per-call ResourceGuard riding the
    call's ExecutionControl, the way the concurrent executor hands it
    to each request."""
    control = ExecutionControl.from_options(
        ExecutionOptions(), guard=limits.guard(engine.store)
    )
    return engine.prepare(query).execute(_control=control)


class TestResourceGuard:
    def test_store_node_budget_enforced_via_control(self):
        # The guard rides ExecutionControl: a query constructing nodes
        # past its budget dies at a polling boundary with a typed error,
        # and the pending Δ is discarded whole (store untouched).
        engine = Engine()
        engine.load_document("doc", "<d/>")
        with pytest.raises(ResourceLimitError) as info:
            run_guarded(
                engine,
                "snap { for $i in 1 to 500 "
                'return insert { <x v="{$i}"/> } into { $doc/d } }',
                AdmissionLimits(max_store_nodes=50),
            )
        assert info.value.limit_name == "max_store_nodes"
        # The refused snap committed nothing.
        assert engine.execute("count($doc/d/x)").first_value() == 0

    def test_pending_delta_bound_discards_the_whole_list(self):
        engine = Engine()
        engine.load_document("doc", "<d/>")
        with pytest.raises(ResourceLimitError) as info:
            run_guarded(
                engine,
                "snap { for $i in 1 to 11 "
                "return insert { <x/> } into { $doc/d } }",
                AdmissionLimits(max_pending_delta=10),
            )
        err = info.value
        assert err.limit_name == "max_pending_delta"
        assert err.observed == 11
        assert engine.execute("count($doc/d/x)").first_value() == 0

    def test_under_budget_commits_normally(self):
        engine = Engine()
        engine.load_document("doc", "<d/>")
        run_guarded(
            engine,
            "snap { for $i in 1 to 20 "
            "return insert { <x/> } into { $doc/d } }",
            AdmissionLimits(max_store_nodes=10_000, max_pending_delta=100),
        )
        assert engine.execute("count($doc/d/x)").first_value() == 20


class TestAdmissionController:
    def test_below_soft_limit_always_admits(self):
        controller = AdmissionController(16, max_wait_ms=1.0)
        controller.observe_wait(5000.0)  # terrible latency...
        controller.admit(3)  # ...but the queue is short: admit

    def test_full_queue_sheds_with_structured_error(self):
        tracer = Tracer()
        controller = AdmissionController(8, tracer=tracer)
        with pytest.raises(ServiceOverloadedError) as info:
            controller.admit(8, wait_budget_ms=500.0)
        err = info.value
        assert err.code == "REPR0003"
        assert err.queue_depth == 8
        assert err.queue_capacity == 8
        assert err.wait_budget_ms == 500.0
        assert err.retry_after_ms >= 50.0
        payload = err.to_dict()
        assert payload["queue_depth"] == 8
        assert payload["retry_after_ms"] == err.retry_after_ms
        assert tracer.counters["resilience.admission.shed"] == 1

    def test_soft_region_sheds_when_latency_target_missed(self):
        controller = AdmissionController(16, max_wait_ms=100.0)
        for _ in range(10):
            controller.observe_wait(400.0)
        with pytest.raises(ServiceOverloadedError, match="service target"):
            controller.admit(13)  # soft limit is 12

    def test_soft_region_sheds_when_request_budget_would_expire(self):
        controller = AdmissionController(16, max_wait_ms=1000.0)
        for _ in range(10):
            controller.observe_wait(300.0)  # healthy vs the 1s target
        controller.admit(13, wait_budget_ms=2000.0)  # plenty of budget
        with pytest.raises(ServiceOverloadedError, match="expire"):
            controller.admit(13, wait_budget_ms=50.0)  # would die queued

    def test_ewma_tracks_recent_waits(self):
        controller = AdmissionController(16)
        controller.observe_wait(100.0)
        assert controller.expected_wait_ms == 100.0
        controller.observe_wait(0.0)
        assert controller.expected_wait_ms == pytest.approx(80.0)

    def test_retry_after_is_floored(self):
        assert AdmissionController(4).retry_after_ms() == 50.0

    def test_query_text_limits_apply_at_admission(self):
        controller = AdmissionController(
            16, limits=AdmissionLimits(max_depth=2)
        )
        with pytest.raises(ResourceLimitError):
            controller.admit(0, query="((((1))))")

    def test_to_dict(self):
        controller = AdmissionController(16, max_wait_ms=250.0)
        snapshot = controller.to_dict()
        assert snapshot["capacity"] == 16
        assert snapshot["soft_limit"] == 12
        assert snapshot["max_wait_ms"] == 250.0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionController(0)
        with pytest.raises(ValueError, match="soft_limit"):
            AdmissionController(4, soft_limit=5)
