"""E7 — Section 3.2: the three update-application semantics.

``ordered``, ``nondeterministic`` and ``conflict-detection`` apply the
same Δ; only the last first proves it conflict-free, with one linear
check.  Counted here: every mode sees the same pending-update list, and
the check runs exactly once and only under ``conflict-detection``.
"""

from __future__ import annotations

import pytest

from repro import Engine

N = 50
MODES = ("ordered", "nondeterministic", "conflict-detection")


def run_under(mode: str):
    """N inserts into N distinct targets (conflict-free), under *mode*."""
    engine = Engine()
    engine.bind("x", engine.parse_fragment("<x/>"))
    engine.execute(
        f"snap {{ for $i in 1 to {N} return insert {{ <h/> }} into {{ $x }} }}"
    )
    stats = engine.execute(
        f"snap {mode} {{ for $h in $x/h "
        "return insert { <n/> } into { $h } }",
        collect_stats=True,
    ).stats
    counters = {
        name: value
        for name, value in stats.counters.items()
        if name.startswith(("snap.", "conflict."))
    }
    return counters, stats.observations["snap.pending_updates"].to_dict()


@pytest.fixture(scope="module")
def runs():
    return {mode: run_under(mode) for mode in MODES}


def test_same_pending_updates_under_every_mode(runs):
    pending = [runs[mode][1] for mode in MODES]
    # The explicit snap carries the N inserts; the top-level one nothing.
    assert pending[0]["total"] == N and pending[0]["max"] == N
    assert pending[0] == pending[1] == pending[2]


def test_conflict_check_runs_once_and_only_under_conflict_detection(runs):
    assert runs["ordered"][0] == {"snap.count": 2}
    assert runs["nondeterministic"][0] == {"snap.count": 2}
    assert runs["conflict-detection"][0] == {
        "snap.count": 2,
        "conflict.checks": 1,
        "conflict.ok": 1,
    }
