"""User-function recursion ends in a value or a typed refusal.

Both call paths (the tree-walker's and the compiled closures') count
open user-function calls; past ``MAX_CALL_DEPTH`` the query is
refused with ``ResourceLimitError`` (REPR0007, ``max_call_depth``) and
its pending Δ is discarded, and a body that spends so many frames per
level that the Python stack runs out first is refused the same way."""

import pytest

from repro import Engine
from repro.concurrent import ConcurrentExecutor
from repro.errors import ResourceLimitError
from repro.semantics.evaluator import MAX_CALL_DEPTH

SUM = (
    "declare function local:sum($s) { if (empty($s)) then 0 "
    "else $s[1] + local:sum(subsequence($s, 2)) }; "
)
COUNT_DOWN = (
    "declare function local:f($n) { if ($n le 0) then 0 "
    "else 1 + local:f($n - 1) }; "
)
# Fourteen nested additions per level: the stack runs out before
# MAX_CALL_DEPTH does.
DEEP_BODY = (
    "declare function local:g($n) { if ($n le 0) then 0 else "
    + "1 + (" * 14 + "local:g($n - 1)" + ")" * 14 + " }; "
)
# One insert per level, so a refusal has a Δ to discard.
MARK = (
    "declare function local:m($n) { if ($n le 0) then () else "
    "(insert { <m/> } into { $doc }, local:m($n - 1)) }; "
)


def refused(engine, query: str) -> ResourceLimitError:
    with pytest.raises(ResourceLimitError) as caught:
        engine.execute(query)
    error = caught.value
    assert error.code == "REPR0007"
    assert error.limit_name == "max_call_depth"
    return error


def test_sum_over_170_items_is_refused():
    error = refused(Engine(), SUM + "local:sum(1 to 170)")
    assert error.observed == MAX_CALL_DEPTH + 1


def test_non_tail_recursion_to_400_is_refused():
    error = refused(Engine(), COUNT_DOWN + "local:f(400)")
    assert error.observed == MAX_CALL_DEPTH + 1


def test_recursion_inside_the_limit_runs():
    engine = Engine()
    depth = MAX_CALL_DEPTH - 1  # f(n) opens n + 1 calls
    assert engine.execute(COUNT_DOWN + f"local:f({depth})").values() == [
        depth
    ]
    assert engine.execute(SUM + f"local:sum(1 to {depth})").values() == [
        depth * (depth + 1) // 2
    ]


def test_a_body_that_exhausts_the_stack_is_refused():
    refused(Engine(), DEEP_BODY + "local:g(400)")


def test_updating_recursion_is_refused_and_its_delta_discarded():
    engine = Engine()
    engine.bind("doc", engine.parse_fragment("<doc/>"))
    refused(engine, MARK + "local:m(400)")
    assert engine.execute("count($doc/m)").values() == [0]
    engine.execute(MARK + "local:m(5)")
    assert engine.execute("count($doc/m)").values() == [5]


def test_refused_on_an_executor_worker_thread():
    engine = Engine()
    with ConcurrentExecutor(engine, workers=1) as executor:
        with pytest.raises(ResourceLimitError):
            executor.execute(COUNT_DOWN + "local:f(400)")
        with pytest.raises(ResourceLimitError):
            executor.execute(DEEP_BODY + "local:g(400)")
        assert executor.execute(COUNT_DOWN + "local:f(50)").values() == [50]
