"""Regression tests for the engine's shared mutable state under threads.

Before this subsystem the prepared-query cache (an OrderedDict LRU), the
function registry's generation counter and the module loader were all
mutated without locks; concurrent preparation could corrupt the LRU
links, double-bump generations (spuriously invalidating every cached
plan) or interleave module registration.  These tests hammer exactly
those paths.
"""

import threading

from repro import Engine
from repro.lang import core_ast as core
from repro.semantics.context import FunctionRegistry


def make_function(name):
    return core.CFunction(name=name, params=[], body=core.CLiteral(1))

THREADS = 8
ROUNDS = 30


def hammer(worker, threads=THREADS):
    errors = []

    def wrapped(index):
        try:
            worker(index)
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    pool = [
        threading.Thread(target=wrapped, args=(index,))
        for index in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert errors == []


class TestPreparedCache:
    def test_concurrent_prepare_of_distinct_queries(self):
        engine = Engine()

        def worker(index):
            for round_ in range(ROUNDS):
                prepared = engine.prepare(f"{index} + {round_}")
                assert prepared.execute().first_value() == index + round_

        hammer(worker)
        # The LRU is still internally consistent: every entry reachable.
        assert len(engine.prepared_cache.keys()) == len(
            set(engine.prepared_cache.keys())
        )

    def test_concurrent_prepare_of_same_query_counts_one_miss(self):
        engine = Engine()
        barrier = threading.Barrier(THREADS)

        def worker(index):
            barrier.wait()
            assert engine.prepare("6 * 7").execute().first_value() == 42

        hammer(worker)
        assert engine.prepared_cache.stats.misses == 1
        assert engine.prepared_cache.stats.hits == THREADS - 1

    def test_concurrent_eviction_churn(self):
        engine = Engine(prepared_cache_size=4)

        def worker(index):
            for round_ in range(ROUNDS):
                query = f"{index} * 100 + {round_ % 8}"
                assert (
                    engine.prepare(query).execute().first_value()
                    == index * 100 + round_ % 8
                )

        hammer(worker)
        assert len(engine.prepared_cache.keys()) <= 4


class TestFunctionRegistry:
    def test_concurrent_registration_bumps_generation_exactly(self):
        registry = FunctionRegistry()
        start = registry.generation
        barrier = threading.Barrier(THREADS)

        def worker(index):
            barrier.wait()
            for round_ in range(ROUNDS):
                registry.register_user(make_function(f"f{index}x{round_}"))

        hammer(worker)
        assert registry.generation == start + THREADS * ROUNDS
        for index in range(THREADS):
            assert registry.lookup_user(f"f{index}x0", 0) is not None

    def test_lookup_during_registration_does_not_explode(self):
        registry = FunctionRegistry()
        stop = threading.Event()

        def register(index):
            for round_ in range(200):
                registry.register_user(make_function(f"g{index}x{round_}"))
            stop.set()

        def lookup(index):
            while not stop.is_set():
                registry.lookup_user("g0x0", 0)

        errors = []

        def guard(fn, index):
            try:
                fn(index)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=guard, args=(register, 0)),
            threading.Thread(target=guard, args=(lookup, 1)),
            threading.Thread(target=guard, args=(lookup, 2)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestModuleLoading:
    def test_concurrent_module_loads(self):
        engine = Engine()

        def worker(index):
            engine.load_module(
                f"declare function m{index}($x) {{ $x + {index} }};"
            )

        hammer(worker)
        for index in range(THREADS):
            assert (
                engine.execute(f"m{index}(10)").first_value() == 10 + index
            )


class TestPreparedBindings:
    def test_concurrent_bindings_stay_with_their_call(self):
        # Bindings are data scoped to one call: each call's $x lives in
        # its own evaluator fork, never in the engine's shared globals,
        # so a thread can never read another thread's value.
        engine = Engine()
        prepared = engine.prepare("for $i in 1 to 200 return $x")
        wrong = []

        def worker(index):
            for _ in range(200):
                values = prepared.execute(bindings={"x": index}).values()
                if values != [index] * 200:
                    wrong.append(index)

        hammer(worker, threads=4)
        assert wrong == []
        assert "x" not in engine.evaluator.globals
