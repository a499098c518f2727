"""Declared service-level objectives and their verdicts.

An :class:`SLO` names one metric the load report computes (a latency
percentile, throughput, a rate) and bounds it.  The scoreboard is the
list of verdicts: every CI loadgen run evaluates the declared SLOs
against the observed profile and the report carries per-SLO pass/fail.

Latency objectives apply to the *response* latency of successful
requests, measured from each request's **scheduled** arrival time — the
coordinated-omission-safe discipline (see docs/loadgen.md).  Shed and
refusal rates are accounted separately so fast refusals cannot flatter
the latency percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass

#: metric name -> (direction, unit). ``<=`` metrics are upper bounds,
#: ``>=`` lower bounds.
METRICS: dict[str, tuple[str, str]] = {
    "latency_p50_ms": ("<=", "ms"),
    "latency_p90_ms": ("<=", "ms"),
    "latency_p99_ms": ("<=", "ms"),
    "latency_p999_ms": ("<=", "ms"),
    "latency_max_ms": ("<=", "ms"),
    "schedule_lag_p99_ms": ("<=", "ms"),
    "throughput_rps": (">=", "req/s"),
    "shed_rate": ("<=", "ratio"),
    "refusal_rate": ("<=", "ratio"),
    "internal_error_rate": ("<=", "ratio"),
}


@dataclass(frozen=True)
class SLO:
    """One declared objective: ``metric`` bounded by ``threshold``."""

    name: str
    metric: str
    threshold: float

    def __post_init__(self) -> None:
        if self.metric not in METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; "
                f"one of {sorted(METRICS)}"
            )

    @property
    def direction(self) -> str:
        return METRICS[self.metric][0]

    def evaluate(self, observed: float) -> "SLOVerdict":
        if self.direction == "<=":
            passed = observed <= self.threshold
        else:
            passed = observed >= self.threshold
        return SLOVerdict(self, observed, passed)


@dataclass(frozen=True)
class SLOVerdict:
    """One SLO's outcome against an observed profile."""

    slo: SLO
    observed: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.slo.name,
            "metric": self.slo.metric,
            "direction": self.slo.direction,
            "threshold": self.slo.threshold,
            "observed": round(self.observed, 6),
            "passed": self.passed,
        }

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (
            f"{mark}  {self.slo.name}: {self.slo.metric} "
            f"{self.observed:g} {self.slo.direction} {self.slo.threshold:g}"
        )


def default_slos(rate: float) -> list[SLO]:
    """The declared objectives a profile run is judged against.

    The latency bounds are intentionally loose for CI hardware (shared,
    noisy runners); speed regressions are the benchmark suite's to
    catch.  Throughput must reach 90% of the target rate —
    an open-loop driver that cannot keep schedule is itself a finding,
    surfaced by the schedule-lag bound.
    """
    return [
        SLO("p50-latency", "latency_p50_ms", 100.0),
        SLO("p99-latency", "latency_p99_ms", 500.0),
        SLO("p999-latency", "latency_p999_ms", 2000.0),
        SLO("schedule-keeping", "schedule_lag_p99_ms", 500.0),
        SLO("throughput", "throughput_rps", rate * 0.9),
        SLO("shed-rate", "shed_rate", 0.05),
        SLO("no-internal-errors", "internal_error_rate", 0.0),
    ]


def parse_slo_overrides(specs: list[str], base: list[SLO]) -> list[SLO]:
    """Apply ``metric=threshold`` CLI overrides onto *base* SLOs.

    An override for a metric not in *base* appends a new SLO named after
    the metric.
    """
    out = {slo.metric: slo for slo in base}
    for spec in specs:
        metric, sep, raw = spec.partition("=")
        if not sep:
            raise ValueError(
                f"invalid SLO override {spec!r}; expected metric=threshold"
            )
        threshold = float(raw)
        name = out[metric].name if metric in out else metric
        out[metric] = SLO(name, metric, threshold)
    return list(out.values())
