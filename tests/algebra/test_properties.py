"""Unit tests for the side-effect judgment (Sections 4.2 and 5)."""

from repro.algebra.properties import (
    EffectAnalyzer,
    effect_properties,
    free_variables,
    is_pure,
)
from repro.lang.normalize import normalize, normalize_module
from repro.lang.parser import parse, parse_module
from repro.semantics.context import FunctionRegistry
from repro.semantics.functions import default_registry


def props(text: str, registry=None):
    return effect_properties(normalize(parse(text)), registry)


def registry_for(module_text: str) -> FunctionRegistry:
    registry = default_registry()
    module = normalize_module(parse_module(module_text))
    for decl in module.declarations:
        if hasattr(decl, "params"):
            registry.register_user(decl)
    return registry


class TestBasicFlags:
    def test_pure_expression(self):
        p = props("1 + count($x//item)", default_registry())
        assert p.pure and not p.may_update and not p.may_snap

    def test_update_sets_may_update(self):
        p = props("insert { <a/> } into { $x }")
        assert p.may_update and not p.may_snap
        assert p.collecting_only

    def test_all_update_primitives(self):
        for text in (
            "delete { $x }",
            "replace { $x } with { <a/> }",
            'rename { $x } to { "n" }',
        ):
            assert props(text).may_update

    def test_copy_is_pure(self):
        p = props("copy { $x }", default_registry())
        assert p.pure  # "allocations and copies can be commuted"

    def test_constructors_are_pure(self):
        assert props('<a x="{1}">{2}</a>', default_registry()).pure

    def test_snap_sets_may_snap(self):
        p = props("snap { insert { <a/> } into { $x } }")
        assert p.may_snap
        # The snap discharged the body's pending updates.
        assert not p.may_update

    def test_update_beside_snap(self):
        p = props("(snap { delete { $x } }, insert { <a/> } into { $y })")
        assert p.may_snap and p.may_update

    def test_nested_update_in_flwor(self):
        p = props("for $i in $s return insert { $i } into { $t }")
        assert p.may_update


class TestFunctionPropagation:
    """Section 5: 'a function that calls an updating function is updating
    as well' — the monadic rule."""

    def test_updating_function(self):
        registry = registry_for(
            "declare function logit($v) { insert { <l/> } into { $log } };"
        )
        assert props("logit(1)", registry).may_update

    def test_transitively_updating(self):
        registry = registry_for(
            "declare function inner() { delete { $x } };"
            "declare function outer() { inner() };"
        )
        assert props("outer()", registry).may_update

    def test_constructing_function(self):
        registry = registry_for(
            "declare function make() { <m/> };"
            "declare function twice() { (make(), copy { $x }) };"
        )
        p = props("twice()", registry)
        assert p.pure and p.may_construct and not p.movable
        assert props("count(twice())", registry).may_construct
        assert not props("snap { 1 }", registry).may_construct
        assert props("snap { <m/> }", registry).may_construct

    def test_snapping_function(self):
        registry = registry_for(
            "declare function bump() { snap { delete { $x } } };"
        )
        p = props("bump()", registry)
        assert p.may_snap

    def test_pure_function(self):
        registry = registry_for("declare function f($x) { $x * 2 };")
        assert props("f(2)", registry).pure

    def test_builtins_pure(self):
        assert props("count($x) + sum($y)", default_registry()).pure

    def test_unknown_function_conservative(self):
        p = props("mystery($x)", default_registry())
        assert p.may_update and p.may_snap

    def test_recursive_function_takes_the_least_fixpoint(self):
        registry = registry_for(
            "declare function loop($n) { if ($n) then loop($n - 1) else 0 };"
        )
        # Every function starts pure; nothing in the cycle updates.
        assert props("loop(3)", registry).pure

    def test_mutual_recursion_updates_through_its_cycle(self):
        registry = registry_for(
            "declare function even($n) { if ($n) then odd($n - 1) else () };"
            "declare function odd($n) {"
            "  (insert { <a/> } into { $x }, even($n)) };"
            "declare function top($n) { even($n) };"
        )
        for call in ("even(2)", "odd(2)", "top(2)"):
            p = props(call, registry)
            assert p.may_update and not p.may_snap, call

    def test_snap_in_a_cycle_snaps_every_member(self):
        registry = registry_for(
            "declare function f($n) { if ($n) then g($n) else 0 };"
            "declare function g($n) { snap { f($n - 1) } };"
        )
        p = props("f(3)", registry)
        assert p.may_snap and not p.may_update

    def test_memoization(self):
        registry = registry_for("declare function f() { 1 };")
        analyzer = EffectAnalyzer(registry)
        expr = normalize(parse("f() + f() + f()"))
        assert analyzer.analyze(expr).pure
        assert len(analyzer._function_cache) == 1

    def test_no_registry_assumes_worst(self):
        assert props("f()").may_snap


class TestIsPure:
    def test_shorthand(self):
        assert is_pure(normalize(parse("1 + 1")), default_registry())
        assert not is_pure(normalize(parse("delete { $x }")))


class TestFreeVariables:
    def free(self, text: str) -> set[str]:
        return free_variables(normalize(parse(text)))

    def test_simple(self):
        assert self.free("$a + $b") == {"a", "b"}

    def test_for_binds(self):
        assert self.free("for $x in $s return $x + $y") == {"s", "y"}

    def test_let_binds(self):
        assert self.free("let $x := $a return $x") == {"a"}

    def test_position_var_bound(self):
        assert self.free("for $x at $i in $s return $i") == {"s"}

    def test_quantifier_binds(self):
        assert self.free("some $q in $s satisfies $q = $t") == {"s", "t"}

    def test_source_not_in_scope_of_itself(self):
        assert self.free("for $x in $x return 1") == {"x"}

    def test_ordered_flwor_scoping(self):
        assert self.free(
            "for $x in $s order by $x, $k return $x"
        ) == {"s", "k"}

    def test_shadowing(self):
        assert self.free("let $x := 1 return let $x := $x return $x") == set()

    def test_path_predicates(self):
        assert self.free("$doc//a[@id = $key]") == {"doc", "key"}
