"""Structured reports built from a :class:`~repro.obs.tracer.Tracer`.

Three user-facing objects:

* :class:`QueryStats` — the ``QueryResult.stats`` payload: per-phase wall
  time, counters (snaps, cache hits, store churn, barriers) and folded
  observations (pending-update lengths, conflict-table sizes).
* :class:`ExplainReport` — the ``Engine.explain`` payload: the plan before
  and after rewriting, the list of rewrite-rule firings (with why-not
  reasons) and the purity verdicts the guards were based on.
* :class:`SlowQueryRecord` — what the ``Engine(on_slow_query=...)`` hook
  receives.

Every report serializes losslessly through ``to_dict()`` (plain dicts,
lists and scalars — ``json.dumps``-able as-is) and ``to_json()``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.tracer import Observation, PhaseSpan, RuleFiring, Tracer


class QueryStats:
    """Execution statistics of one traced query run.

    Attributes:
        spans: the phase-span forest (parse/…/evaluate/snap-apply).
        counters: event counts, e.g. ``snap.count``,
            ``prepared_cache.hits``, ``store.nodes_created``,
            ``exec.barrier.hash_build``.
        observations: folded magnitudes, e.g. ``snap.pending_updates``,
            ``conflict.table.writes``.
        duration_ms: wall time from tracer creation to report assembly.
    """

    __slots__ = ("spans", "counters", "observations", "duration_ms")

    def __init__(
        self,
        spans: list["PhaseSpan"],
        counters: dict[str, int],
        observations: dict[str, "Observation"],
        duration_ms: float,
    ):
        self.spans = spans
        self.counters = counters
        self.observations = observations
        self.duration_ms = duration_ms

    @classmethod
    def from_tracer(cls, tracer: "Tracer") -> "QueryStats":
        return cls(
            spans=list(tracer.spans),
            counters=dict(tracer.counters),
            observations=dict(tracer.observations),
            duration_ms=tracer.elapsed_ms(),
        )

    # -- convenience accessors (the acceptance-critical numbers) ---------

    @property
    def phase_times_ms(self) -> dict[str, float]:
        """Total wall milliseconds per phase name, summed across the span
        forest (nested spans count toward their own name only)."""
        totals: dict[str, float] = {}

        def walk(spans: list["PhaseSpan"]) -> None:
            for span in spans:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration_ms
                walk(span.children)

        walk(self.spans)
        return totals

    @property
    def snap_count(self) -> int:
        """Number of update-list applications (snap closures) this run."""
        return self.counters.get("snap.count", 0)

    @property
    def pending_updates_total(self) -> int:
        """Total pending update requests across all snaps this run."""
        obs = self.observations.get("snap.pending_updates")
        return int(obs.total) if obs is not None else 0

    @property
    def cache_hits(self) -> int:
        return self.counters.get("prepared_cache.hits", 0)

    @property
    def cache_misses(self) -> int:
        return self.counters.get("prepared_cache.misses", 0)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "duration_ms": self.duration_ms,
            "phases": [span.to_dict() for span in self.spans],
            "phase_times_ms": self.phase_times_ms,
            "counters": dict(self.counters),
            "observations": {
                name: obs.to_dict() for name, obs in self.observations.items()
            },
            "snap_count": self.snap_count,
            "pending_updates_total": self.pending_updates_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def __repr__(self) -> str:
        return (
            f"QueryStats({self.duration_ms:.3f}ms, "
            f"snaps={self.snap_count}, "
            f"pending={self.pending_updates_total}, "
            f"cache={self.cache_hits}h/{self.cache_misses}m)"
        )


class ExplainReport:
    """The optimizer's decisions for one query, made inspectable.

    Attributes:
        query_text: the source text.
        plan_before: pretty-printed naive plan of the FLWOR pipeline.
        plan_after: pretty-printed plan the query runs — the rewritten
            one, or :data:`repro.algebra.plan.NO_PLAN` when no rewrite
            fired and the body runs as written.  A body that is not
            a FLWOR pipeline has ``NO_PLAN`` on both sides.
        operators_before / operators_after: operator-name lists of the two
            plans (machine-checkable shape; empty for no plan).
        rules: every rewrite rule considered, with ``fired`` and a detail
            dict (guard outcomes, or the reason the rule did not apply).
        purity: per-clause effect verdicts (``pure`` / ``may_update`` /
            ``may_snap``) of the decomposed pipeline — the judgments the
            rule guards consulted.
        costs: the cost model's decisions
            (:class:`repro.index.CostDecision`) — chosen hash-join build
            sides and join orders, each with its rejected alternatives and
            estimates.  Empty when no hash join was planned or the store
            is small.
    """

    __slots__ = (
        "query_text",
        "plan_before",
        "plan_after",
        "operators_before",
        "operators_after",
        "rules",
        "purity",
        "costs",
    )

    def __init__(
        self,
        query_text: str,
        plan_before: str,
        plan_after: str,
        operators_before: list[str],
        operators_after: list[str],
        rules: list["RuleFiring"],
        purity: list[dict],
        costs: list | None = None,
    ):
        self.query_text = query_text
        self.plan_before = plan_before
        self.plan_after = plan_after
        self.operators_before = operators_before
        self.operators_after = operators_after
        self.rules = rules
        self.purity = purity
        self.costs = costs or []

    @property
    def fired_rules(self) -> list["RuleFiring"]:
        """The rules that actually rewrote the plan."""
        return [rule for rule in self.rules if rule.fired]

    @property
    def rewritten(self) -> bool:
        """True when a rewrite fired, so the query runs as a plan."""
        return bool(self.operators_after)

    def to_dict(self) -> dict:
        return {
            "query": self.query_text,
            "plan_before": self.plan_before,
            "plan_after": self.plan_after,
            "operators_before": list(self.operators_before),
            "operators_after": list(self.operators_after),
            "rewritten": self.rewritten,
            "rules": [rule.to_dict() for rule in self.rules],
            "purity": [dict(verdict) for verdict in self.purity],
            "costs": [decision.to_dict() for decision in self.costs],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """A human-readable multi-line rendering (CLI ``--explain``)."""
        lines = ["plan (before rewriting):"]
        lines.extend("  " + line for line in self.plan_before.splitlines())
        lines.append("plan (after rewriting):")
        lines.extend("  " + line for line in self.plan_after.splitlines())
        lines.append("rewrite rules:")
        if not self.rules:
            lines.append("  (query body is not a FLWOR pipeline; no rules apply)")
        for rule in self.rules:
            status = "fired" if rule.fired else "did not fire"
            detail = ""
            if rule.detail:
                detail = " — " + ", ".join(
                    f"{key}={value}" for key, value in sorted(rule.detail.items())
                )
            lines.append(f"  {rule.rule}: {status}{detail}")
        if self.purity:
            lines.append("purity verdicts:")
            for verdict in self.purity:
                flags = []
                if verdict.get("may_update"):
                    flags.append("may_update")
                if verdict.get("may_snap"):
                    flags.append("may_snap")
                lines.append(
                    f"  {verdict.get('clause', '?')}: "
                    + ("pure" if verdict.get("pure") else " ".join(flags) or "impure")
                )
        if self.costs:
            lines.append("cost decisions:")
            for decision in self.costs:
                lines.append(
                    f"  {decision.decision} ({decision.target}): "
                    f"{decision.chosen} — {decision.reason}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        fired = [rule.rule for rule in self.fired_rules]
        return f"ExplainReport(rewritten={self.rewritten}, fired={fired})"


@dataclass(frozen=True)
class SlowQueryRecord:
    """What an ``Engine(on_slow_query=...)`` hook receives."""

    query_text: str
    duration_ms: float
    threshold_ms: float
    stats: Optional[QueryStats] = None
    timestamp: float = 0.0

    @staticmethod
    def now() -> float:
        return time.time()

    def to_dict(self) -> dict:
        return {
            "query": self.query_text,
            "duration_ms": self.duration_ms,
            "threshold_ms": self.threshold_ms,
            "timestamp": self.timestamp,
            "stats": self.stats.to_dict() if self.stats is not None else None,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
