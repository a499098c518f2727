"""Reference sides of "optimized ≡ as written" comparisons.

A prepared query runs its body as a plan only when a §4.3 rewrite fired
(:func:`repro.algebra.compile.compile_query`).  The reference run takes
the same query through the same engine with that plan withheld:
``compile_query`` is patched to return None while the query prepares,
so its body runs as written, lowered to closures like any other.
:func:`on_tree_walker` withholds the closures too, so the tree-walker of
Figs. 2-3 runs everything.  :func:`without_pushdown` withholds the
where-pushdown rule of :mod:`repro.lang.simplify` the same way, and
:func:`without_reclamation` an engine's statement-end reclamation.
There is no production switch for any of them.
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


@contextmanager
def on_tree_walker():
    """Every query prepared inside the block runs on the tree-walker:
    ``compile_closure`` declines every expression, and plans, which have
    no other executor, are withheld.  A query prepared inside the block
    keeps its tree-walker form in the prepared cache, so a reference run
    should have an engine of its own, or clear the cache after it."""
    from repro.semantics import compiled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled, "compile_closure", _decline)
        with without_plans():
            yield


def _decline(expr, params=(), registry=None):
    return None


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
