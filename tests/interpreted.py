"""The reference side of a "rewritten ≡ as written" comparison.

A prepared query runs its body as a plan only when a §4.3 rewrite fired
(:func:`repro.algebra.compile.compile_query`).  The reference run takes
the same query through the same engine with that plan withheld:
``compile_query`` is patched to return None while the query prepares,
so its body runs on the evaluator.  :func:`without_pushdown` withholds
the where-pushdown rule of :mod:`repro.lang.simplify` the same way.
There is no production switch for either.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.algebra import compile as algebra_compile


@contextmanager
def without_plans():
    """Every query prepared inside the block gets no plan.  A query
    prepared (and cached) before the block keeps the plan it has."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_compile, "compile_query", lambda *a, **k: None)
        yield


def interpreted(engine, query: str, **kwargs):
    """``engine.execute(query, **kwargs)`` with the body on the evaluator.

    The plan-less prepared query is kept out of the prepared cache, so
    a later ``execute`` of the same text on *engine* gets its plan."""
    engine.prepared_cache.clear()
    try:
        with without_plans():
            return engine.execute(query, **kwargs)
    finally:
        engine.prepared_cache.clear()


@contextmanager
def without_pushdown():
    """Every query prepared inside the block keeps its ``where`` clauses
    where they are (:mod:`repro.lang.simplify`'s where-pushdown is
    withheld).  A query prepared before the block keeps its form."""
    from repro.lang import simplify

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplify, "_where_pushdown", _same)
        yield


def _same(expr):
    return expr
