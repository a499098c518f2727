"""One module, four surfaces: every way to run a query behaves alike.

``Engine.execute``, a ``ConcurrentExecutor`` snapshot read, a session
transaction statement and a ``DurableEngine`` all run a module through
:func:`repro.prepared.run_module`.  The matrix below crosses the
per-execution options, queries whose rewrite fires or not, and a
prepared query that is cached before the run (warm) or not, over those
four surfaces and checks that each one honours every field: the spec's
items, same error types, stats and explain whenever requested, one plan
run for a query whose rewrite fires and none for one whose rewrite does
not, and the slow-query hook.  The per-surface rules for globals are pinned
at the end.
"""

from dataclasses import replace

import pytest

import repro.algebra.execute as algebra_execute
from repro import Engine, ExecutionOptions
from repro.concurrent import CancelToken, ConcurrentExecutor
from repro.durability import DurableEngine
from repro.errors import DynamicError, QueryCancelledError, QueryTimeoutError
from tests.interpreted import by_spec

DOC = (
    "<site><people>"
    '<person id="p1"><name>Ann</name></person>'
    '<person id="p2"><name>Bob</name></person>'
    '<person id="p3"><name>Cara</name></person>'
    "</people><watches>"
    '<watch person="p1"/><watch person="p3"/><watch person="p3"/>'
    "</watches></site>"
)

#: (query, bindings, rewrites): pure, so the executor routes them to a
#: snapshot; *rewrites* says whether a rewrite fires, so a plan runs.
QUERIES = [
    (
        "for $p in $doc//person[@id = $who] return string($p/name)",
        {"who": "p2"},
        False,
    ),
    (
        "declare variable $who external; "
        "count($doc//person[@id = $who])",
        {"who": "p1"},
        False,
    ),
    (
        "declare variable $k := count($doc//person); "
        "for $p in $doc//person where contains($p/name, 'a') "
        "order by string($p/name) descending "
        'return <hit n="{$k}">{string($p/@id)}</hit>',
        None,
        False,
    ),
    (
        "for $p in $doc//person, $w in $doc//watch "
        "where $w/@person = $p/@id return string($p/name)",
        None,
        True,
    ),
    (
        "declare variable $who external; "
        "for $p in $doc//person, $w in $doc//watch "
        "where $w/@person = $p/@id and $p/@id != $who "
        "return string($p/name)",
        {"who": "p1"},
        True,
    ),
]

#: Per *rewrites*: a long-running query, and one that reads an unbound
#: external variable.
SLOW = {
    False: "for $i in 1 to 100000 return $i * 2",
    True: "for $i in 1 to 100000, $j in (1, 2) where $i = $j return $i",
}
UNBOUND = {
    False: "declare variable $absent external; $absent",
    True: "declare variable $absent external; "
    "for $a in $absent, $b in (1, 2) where $a = $b return $a",
}

PATHS = ["engine", "snapshot", "transaction", "durable"]


class Runner:
    """Runs one statement through one surface; records slow queries."""

    def __init__(self, path, tmp_path):
        self.path = path
        self.records = []
        hook = dict(on_slow_query=self.records.append, slow_query_ms=0.0)
        self.durable = None
        self.executor = None
        if path == "durable":
            self.durable = DurableEngine(str(tmp_path / "db"), **hook)
            self.durable.load_document("doc", DOC)
            self.engine = self.durable.engine
        else:
            self.engine = Engine(**hook)
            self.engine.load_document("doc", DOC)
        if path == "snapshot":
            self.executor = ConcurrentExecutor(self.engine, workers=1)

    def run(self, query, bindings=None, options=None):
        options = options or ExecutionOptions()
        if self.path == "engine":
            return self.engine.execute(
                query, bindings=bindings, options=options
            )
        if self.path == "durable":
            return self.durable.execute(
                query, bindings=bindings, options=options
            )
        if self.path == "snapshot":
            before = self.executor.metrics.counter("reads_snapshot")
            result = self.executor.execute(query, bindings, options=options)
            after = self.executor.metrics.counter("reads_snapshot")
            assert after == before + 1
            return result
        with self.engine.session() as session:
            with session.transaction() as txn:
                return txn.execute(query, bindings, options=options)

    def close(self):
        if self.executor is not None:
            self.executor.shutdown()
        if self.durable is not None:
            self.durable.close()


@pytest.fixture(params=PATHS)
def runner(request, tmp_path):
    runner = Runner(request.param, tmp_path)
    yield runner
    runner.close()


@pytest.fixture(scope="module")
def reference():
    """Items of every query on the spec, on an engine of its own."""
    engine = Engine()
    engine.load_document("doc", DOC)
    return [
        by_spec(engine, query, bindings=bindings).serialize()
        for query, bindings, _ in QUERIES
    ]


@pytest.fixture
def plan_runs(monkeypatch):
    """Count calls of the algebra's plan executor."""
    calls = []
    original = algebra_execute.execute_plan

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(algebra_execute, "execute_plan", counting)
    return calls


def snap_counters(stats):
    return {
        name: value
        for name, value in stats.counters.items()
        if name.startswith(("snap.", "store."))
    }


@pytest.mark.parametrize("rewrites", [False, True])
@pytest.mark.parametrize("warm", [True, False])
class TestOptionsMatrix:
    def test_items_match_the_reference(
        self, runner, reference, plan_runs, rewrites, warm
    ):
        for (query, bindings, fires), expected in zip(QUERIES, reference):
            if fires is not rewrites:
                continue
            if warm:
                runner.engine.prepare(query)
            del plan_runs[:]
            result = runner.run(query, bindings)
            assert result.serialize() == expected, (runner.path, query)
            assert result.stats is None and result.explain is None
            assert len(plan_runs) == (1 if rewrites else 0), query

    def test_stats_and_explain_when_requested(
        self, runner, plan_runs, rewrites, warm
    ):
        options = ExecutionOptions(collect_stats=True, explain=True)
        chosen = [entry for entry in QUERIES if entry[2] is rewrites]
        for query, bindings, _ in chosen:
            if warm:
                runner.engine.prepare(query)
            cache = runner.engine.prepared_cache.stats
            hits = cache.hits
            result = runner.run(query, bindings, options)
            assert cache.hits == hits + warm, (runner.path, query)
            stats = result.stats
            assert stats is not None, (runner.path, query)
            assert {"prolog", "evaluate", "snap-apply"} <= set(
                stats.phase_times_ms
            )
            assert result.explain is not None
            assert result.explain.query_text == query
            assert result.explain.rewritten is rewrites
        assert len(plan_runs) == (len(chosen) if rewrites else 0)

    def test_interrupts_and_unbound_external(self, runner, rewrites, warm):
        for query in (SLOW[rewrites], UNBOUND[rewrites]):
            assert (runner.engine.compile(query) is not None) is rewrites
            if warm:
                runner.engine.prepare(query)
        options = ExecutionOptions()
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            runner.run(
                SLOW[rewrites], options=replace(options, cancel=token)
            )
        with pytest.raises(QueryTimeoutError):
            runner.run(
                SLOW[rewrites], options=replace(options, timeout_ms=1e-6)
            )
        with pytest.raises(DynamicError, match=r"\$absent is not bound"):
            runner.run(UNBOUND[rewrites], options=options)


def test_stats_counters_agree_across_surfaces(tmp_path):
    options = ExecutionOptions(collect_stats=True)
    per_path = {}
    for path in PATHS:
        runner = Runner(path, tmp_path / path)
        try:
            per_path[path] = [
                snap_counters(runner.run(query, bindings, options).stats)
                for query, bindings, _ in QUERIES
            ]
        finally:
            runner.close()
    assert per_path["engine"][0]["snap.count"] == 1
    assert per_path["engine"][2]["snap.count"] == 2  # prolog + body
    for path in PATHS:
        assert per_path[path] == per_path["engine"], path


def test_slow_query_hook_fires_on_every_surface(runner):
    query, bindings, _ = QUERIES[0]
    runner.run(query, bindings)
    assert [record.query_text for record in runner.records] == [query]


class TestGlobalsPerSurface:
    DECLARES = "declare variable $n := count($doc//person); $n"

    def test_engine_keeps_declarations_not_bindings(self, tmp_path):
        for path in ("engine", "durable"):
            runner = Runner(path, tmp_path / path)
            try:
                runner.run(*QUERIES[0][:2])
                runner.run(self.DECLARES)
                globals_ = runner.engine.evaluator.globals
                assert "who" not in globals_
                assert runner.engine.variable("n")[0].value == 3
            finally:
                runner.close()

    def test_snapshot_read_keeps_neither(self, tmp_path):
        runner = Runner("snapshot", tmp_path)
        try:
            runner.run(*QUERIES[0][:2])
            runner.run(self.DECLARES)
            globals_ = runner.engine.evaluator.globals
            assert "who" not in globals_ and "n" not in globals_
        finally:
            runner.close()

    def test_transaction_keeps_both_for_later_statements(self):
        engine = Engine()
        engine.load_document("doc", DOC)
        with engine.session() as session:
            with session.transaction() as txn:
                txn.execute(*QUERIES[0][:2])
                txn.execute(self.DECLARES)
                assert txn.execute("$who").values() == ["p2"]
                assert txn.execute("$n").values() == [3]
        assert "who" not in engine.evaluator.globals
        assert "n" not in engine.evaluator.globals

    def test_load_module_binds_into_engine_globals(self):
        engine = Engine()
        engine.load_document("doc", DOC)
        result = engine.load_module(self.DECLARES)
        assert result.values() == [3]
        assert engine.variable("n")[0].value == 3
        with pytest.raises(DynamicError, match=r"\$absent is not bound"):
            engine.load_module("declare variable $absent external; 1")
