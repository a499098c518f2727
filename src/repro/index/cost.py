"""The cost model behind the optimizer's join choices.

Deliberately simple — per-row constants calibrated against the Python
evaluator's relative costs, not absolute times.  What matters is the
*ordering* of alternatives: a hash join should build on the smaller
input, and joins should start from the smaller candidate table.

Below :data:`MIN_TABLE_NODES` total nodes no build side is chosen: on
miniature documents the plan-shape churn buys nothing measurable, and
keeping small plans in their familiar shape keeps them debuggable (and
the paper-facing plan renderings stable).
"""

from __future__ import annotations


#: Cost of hashing one row into a join build table.
HASH_BUILD_COST = 2.0
#: Cost of probing the build table with one row.
HASH_PROBE_COST = 1.0
#: Store sizes below this keep the classic right build side (see the
#: module docstring).
MIN_TABLE_NODES = 2048


def hash_join_cost(build_rows: int, probe_rows: int) -> float:
    """Building on *build_rows* and probing with *probe_rows*."""
    return build_rows * HASH_BUILD_COST + probe_rows * HASH_PROBE_COST


class CostDecision:
    """One optimizer choice: what was decided, what was rejected, why.

    Surfaced by ``Engine.explain`` (the ``costs`` list) next to — but
    separate from — the rewrite-rule firings: rules are correctness-
    guarded plan *transformations*, cost decisions pick among plans the
    guards already admitted.
    """

    __slots__ = ("decision", "target", "chosen", "alternatives", "reason")

    def __init__(
        self,
        decision: str,
        target: str,
        chosen: str,
        alternatives: list[dict],
        reason: str,
    ) -> None:
        self.decision = decision
        self.target = target
        self.chosen = chosen
        self.alternatives = alternatives
        self.reason = reason

    def to_dict(self) -> dict:
        return {
            "decision": self.decision,
            "target": self.target,
            "chosen": self.chosen,
            "alternatives": [dict(alt) for alt in self.alternatives],
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        return (
            f"CostDecision({self.decision!r}, {self.target!r}, "
            f"chosen={self.chosen!r})"
        )
