"""E9 — Section 4.1: the conflict check runs "in linear time, using a pair
of hash-tables over node ids".

Counted here, over conflict-free Δs of 1k, 4k and 16k requests: one check
per call, each of the two tables grows by a fixed number of entries per
request, and the scan reads a fixed number of request fields per request
— a check that re-scanned Δ per request would read n² of them.
"""

from __future__ import annotations

import pytest

from repro.obs.tracer import Tracer
from repro.semantics.conflicts import check_conflict_free
from repro.semantics.update import InsertRequest, RenameRequest
from repro.xdm.store import Store

SIZES = (1000, 4000, 16000)


class _Counted:
    """Mixin counting every field read on a request, across instances."""

    reads = 0

    def __getattribute__(self, name):
        if not name.startswith("_"):
            _Counted.reads += 1
        return super().__getattribute__(name)


class _Rename(_Counted, RenameRequest):
    pass


class _Insert(_Counted, InsertRequest):
    pass


def make_delta(n: int) -> list:
    """n conflict-free requests over n siblings: a rename of every odd
    child, an insert after every even one."""
    store = Store()
    root = store.create_element("root")
    delta = []
    for i in range(n):
        child = store.create_element(f"c{i}")
        store.append_child(root, child)
        if i % 2:
            delta.append(_Rename(child, f"r{i}"))
        else:
            fresh = store.create_element(f"f{i}")
            delta.append(_Insert((fresh,), "after", child))
    return delta


def measure(n: int) -> dict:
    delta = make_delta(n)
    tracer = Tracer(clock=lambda: 0.0)
    _Counted.reads = 0
    check_conflict_free(delta, tracer=tracer)
    observations = tracer.observations
    return {
        "counters": dict(tracer.counters),
        "writes": observations["conflict.table.writes"].total,
        "positions": observations["conflict.table.positions"].total,
        "reads": _Counted.reads,
    }


@pytest.fixture(scope="module")
def sweep():
    return {n: measure(n) for n in SIZES}


def test_one_check_per_call(sweep):
    for n in SIZES:
        assert sweep[n]["counters"] == {"conflict.checks": 1, "conflict.ok": 1}


def test_table_sizes_are_fixed_multiples_of_n(sweep):
    # Every request writes one node entry (the renamed node or the
    # inserted subject); every insert claims one symbolic position.
    for n in SIZES:
        assert sweep[n]["writes"] == n
        assert sweep[n]["positions"] == n // 2


def test_request_reads_per_request_are_constant(sweep):
    per_request = {sweep[n]["reads"] / n for n in SIZES}
    assert len(per_request) == 1, per_request
