"""E6 — Section 2.5: nested snaps and the nextid() counter.

A snap "must not freeze the state when its scope is opened", so an inner
snap applies its Δ at once even under an outer one.  Counted here: the
counter yields 1…k either way, and each nesting level adds exactly one
update-list application, so nesting costs linearly, not multiplicatively.
"""

from __future__ import annotations

import pytest

from repro import Engine

COUNTER_MODULE = """
declare variable $d := element counter { 0 };
declare function nextid() as xs:integer {
  snap { replace { $d/text() } with { $d + 1 }, $d }
};
"""

K = 10


def counter_engine() -> Engine:
    engine = Engine()
    engine.load_module(COUNTER_MODULE)
    return engine


def nested(depth: int) -> str:
    """``depth`` literally nested snaps, each inserting one node."""
    opening = "snap { insert { <n/> } into { $x }, " * depth
    return opening + "0" + " }" * depth


def test_counter_standalone_yields_one_to_k():
    engine = counter_engine()
    ids = [engine.execute("data(nextid())").strings()[0] for _ in range(K)]
    assert ids == [str(i) for i in range(1, K + 1)]


def test_counter_under_outer_snap_yields_one_to_k():
    engine = counter_engine()
    result = engine.execute(
        f"snap {{ for $i in 1 to {K} return data(nextid()) }}",
        collect_stats=True,
    )
    assert result.strings() == [str(i) for i in range(1, K + 1)]
    # K inner snaps, the explicit outer one and the implicit top-level one.
    assert result.stats.snap_count == K + 2


@pytest.mark.parametrize("depth", range(1, 21))
def test_each_nesting_level_adds_one_snap(depth):
    engine = Engine()
    engine.bind("x", engine.parse_fragment("<x/>"))
    stats = engine.execute(nested(depth), collect_stats=True).stats
    # One application per level plus the implicit top-level snap, each
    # carrying at most the one insert of its own level.
    assert stats.snap_count == depth + 1
    assert stats.pending_updates_total == depth
    assert stats.observations["snap.pending_updates"].max == 1
    assert engine.execute("count($x/n)").first_value() == depth
