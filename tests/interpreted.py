"""Reference sides of "optimized ≡ as written" comparisons.

A prepared query runs its body as a plan only when a §4.3 rewrite fired
(:func:`repro.algebra.compile.compile_query`).  The reference run takes
the same query through the same engine with that plan withheld:
``compile_query`` is patched to return None while the query prepares,
so its body runs as written, lowered to closures like any other.
:func:`on_spec` withholds the closures too, so the executable
specification of Figs. 2-3 (:mod:`repro.semantics.spec`) runs
everything, with none of production's access paths.
:func:`without_pushdown` withholds the
where-pushdown rule of :mod:`repro.lang.simplify` the same way, and
:func:`without_reclamation` an engine's statement-end reclamation.
There is no production switch for any of them.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.algebra import compile as algebra_compile
from repro.semantics import compiled, spec
from repro.semantics.evaluator import Evaluator


@contextmanager
def without_plans():
    """Every query prepared inside the block gets no plan.  A query
    prepared (and cached) before the block keeps the plan it has."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_compile, "compile_query", lambda *a, **k: None)
        yield


@contextmanager
def on_spec():
    """Every query prepared inside the block runs on the spec: its
    expressions are not lowered (``compiled.lower`` hands each back as
    written), ``Evaluator.run_snapped`` is the spec's, and plans, which
    only closures run, are withheld.  A query prepared inside the block
    keeps its unlowered form in the prepared cache, so a reference run
    should have an engine of its own, or clear the cache after it (see
    :func:`by_spec`)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled, "lower", _as_written)
        patch.setattr(Evaluator, "run_snapped", spec.run_snapped)
        with without_plans():
            yield


def _as_written(expr, registry=None, params=()):
    return expr


def by_spec(engine, query: str, *, on=None, **kwargs):
    """``(on or engine).execute(query, **kwargs)`` on the spec; *on* is
    a transaction of *engine*, or None.  *engine*'s prepared cache is
    cleared before and after, so neither side reuses the other's
    prepared query."""
    engine.prepared_cache.clear()
    try:
        with on_spec():
            return (on or engine).execute(query, **kwargs)
    finally:
        engine.prepared_cache.clear()


def interpreted(engine, query: str, **kwargs):
    """``engine.execute(query, **kwargs)`` with the body as written.

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


def without_reclamation(engine):
    """*engine*, with statement-end reclamation withheld: its store keeps
    every record, as a store without a collector would.  The reference
    side of a "reclamation is invisible" comparison."""
    engine.store.reclaim = _keep_everything
    return engine


def _keep_everything(held, since=None):
    return 0
