"""The prepared-query subsystem: cache behaviour and parameter binding.

Covers the edges the unit of work is judged on: LRU eviction, cache
keying, invalidation on module/function changes, transparent routing of
``Engine.execute`` through the cache, per-call prolog semantics, and the
injection-safety of binding parameters as data.
"""

import pytest

from repro import Engine, PreparedQuery
from repro.errors import DynamicError

DOC = (
    '<inventory><item id="a" price="10"/><item id="b" price="20"/>'
    '<item id="c" price="30"/></inventory>'
)


def make_engine(**kwargs) -> Engine:
    engine = Engine(**kwargs)
    engine.load_document("doc", DOC)
    return engine


class TestCacheRouting:
    def test_execute_routes_through_cache(self):
        engine = make_engine()
        assert engine.execute("count($doc//item)").first_value() == 3
        assert engine.prepared_cache.stats.misses == 1
        assert engine.execute("count($doc//item)").first_value() == 3
        assert engine.prepared_cache.stats.hits == 1
        assert engine.prepared_cache.stats.misses == 1

    def test_prepare_returns_same_object_on_hit(self):
        engine = make_engine()
        first = engine.prepare("1 + 1")
        second = engine.prepare("1 + 1")
        assert first is second
        assert isinstance(first, PreparedQuery)

    def test_lru_eviction_drops_least_recent(self):
        engine = make_engine(prepared_cache_size=2)
        engine.prepare("1")
        engine.prepare("2")
        engine.prepare("1")  # refresh: "2" is now least recent
        engine.prepare("3")  # evicts "2"
        kept = {key[0] for key in engine.prepared_cache.keys()}
        assert kept == {"1", "3"}
        assert engine.prepared_cache.stats.evictions == 1

    def test_evicted_query_still_executes(self):
        engine = make_engine(prepared_cache_size=1)
        first = engine.prepare("count($doc//item)")
        engine.prepare("1 + 1")  # evicts the first entry
        assert first.execute().first_value() == 3
        # Re-preparing is a miss that produces a fresh object.
        assert engine.prepare("count($doc//item)") is not first


class TestInvalidation:
    def test_load_module_clears_cache(self):
        engine = make_engine()
        engine.prepare("count($doc//item)")
        assert len(engine.prepared_cache) == 1
        engine.load_module("declare function one() { 1 }; ()")
        assert len(engine.prepared_cache) == 0
        assert engine.prepared_cache.stats.invalidations >= 1

    def test_register_module_clears_cache(self):
        engine = make_engine()
        engine.prepare("1")
        engine.register_module("http://example.org/m", "module m; ()")
        assert len(engine.prepared_cache) == 0

    def test_function_redefinition_invalidates_entry(self):
        engine = make_engine()
        assert engine.execute(
            "declare function f() { 1 }; f()"
        ).first_value() == 1
        # A different program redefines f(): its cached sibling predates
        # the registry change and must be re-prepared, not reused.
        assert engine.execute(
            "declare function f() { 2 }; f()"
        ).first_value() == 2
        assert engine.execute(
            "declare function f() { 1 }; f()"
        ).first_value() == 1

    def test_same_program_repeats_without_invalidation(self):
        engine = make_engine()
        text = "declare function g() { 41 }; g() + 1"
        assert engine.execute(text).first_value() == 42
        assert engine.execute(text).first_value() == 42
        assert engine.prepared_cache.stats.hits == 1


class TestParameterBinding:
    def test_bindings_are_scoped_to_the_call(self):
        engine = make_engine()
        prepared = engine.prepare('$doc//item[@id = $which]/@price/data(.)')
        assert prepared.execute(bindings={"which": "b"}).first_value() == "20"
        # The binding does not leak into engine globals.
        with pytest.raises(DynamicError, match=r"\$which is not bound"):
            engine.variable("which")

    def test_bindings_shadow_and_restore_globals(self):
        engine = make_engine()
        engine.bind("which", "a")
        prepared = engine.prepare('$doc//item[@id = $which]/@price/data(.)')
        assert prepared.execute(bindings={"which": "c"}).first_value() == "30"
        (restored,) = engine.variable("which")
        assert restored.value == "a"

    def test_unbound_external_variable_raises(self):
        engine = make_engine()
        prepared = engine.prepare(
            "declare variable $limit external; count($doc//item) < $limit"
        )
        assert prepared.external_variables == ("limit",)
        with pytest.raises(DynamicError, match=r"\$limit"):
            prepared.execute()
        assert prepared.execute(bindings={"limit": 5}).first_value() is True

    def test_var_decl_initializers_rerun_per_call(self):
        engine = make_engine()
        engine.bind("sink", engine.parse_fragment("<sink/>"))
        prepared = engine.prepare(
            "declare variable $n := count($sink/t);"
            "insert { <t/> } into { $sink }, $n"
        )
        assert prepared.execute().first_value() == 0
        # The initializer is dynamic prolog: it must see the first call's
        # insert on the second run, exactly like a fresh execute.
        assert prepared.execute().first_value() == 1

    def test_binding_is_data_not_syntax(self):
        """The injection probe: a value full of XQuery syntax stays inert."""
        engine = make_engine()
        engine.bind("sink", engine.parse_fragment("<sink/>"))
        hostile = '"] , delete { $doc//item } , $doc//item["'
        prepared = engine.prepare('$doc//item[@id = $which]')
        assert prepared.execute(bindings={"which": hostile}).items == []
        # Nothing was deleted; the document is intact.
        assert engine.execute("count($doc//item)").first_value() == 3

    def test_functions_see_call_bindings(self):
        engine = make_engine()
        engine.load_module(
            "declare function lookup() { $doc//item[@id = $which] }; ()"
        )
        prepared = engine.prepare("lookup()/@price/data(.)")
        assert prepared.execute(bindings={"which": "a"}).first_value() == "10"
        assert prepared.execute(bindings={"which": "c"}).first_value() == "30"
