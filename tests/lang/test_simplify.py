"""Tests for core-to-core simplification: the // collapse rewrite and
where-pushdown."""

import pytest

from repro import Engine
from repro.lang import core_ast as core
from repro.lang.core_pretty import core_to_source
from repro.lang.normalize import normalize
from repro.lang.parser import parse
from repro.lang.simplify import simplify, transform
from tests.interpreted import by_spec


def simplified(text: str) -> core.CoreExpr:
    return simplify(normalize(parse(text)))


class TestDescendantCollapse:
    def test_collapses_predicate_free_step(self):
        expr = simplified("$doc//person")
        assert isinstance(expr, core.CPath)
        assert isinstance(expr.step, core.CAxisStep)
        assert expr.step.axis == "descendant"
        assert expr.step.test.name == "person"
        # The intermediate descendant-or-self::node() is gone.
        assert isinstance(expr.base, core.CVar)

    def test_predicate_blocks_collapse(self):
        # //para[1] means "first para child of each descendant"; the
        # rewrite must NOT change it.
        expr = simplified("$doc//para[1]")
        assert isinstance(expr.step, core.CAxisStep)
        assert expr.step.axis == "child"
        inner = expr.base
        assert isinstance(inner.step, core.CAxisStep)
        assert inner.step.axis == "descendant-or-self"

    def test_kind_test_collapses_too(self):
        # descendant-or-self::node()/child::text() == descendant::text()
        # (valid for any predicate-free child step).
        expr = simplified("$doc//text()")
        assert expr.step.axis == "descendant"
        assert expr.step.test.kind == "text"

    def test_nested_collapse(self):
        expr = simplified("$doc//a//b")
        # both // collapse
        assert expr.step.axis == "descendant"
        assert expr.base.step.axis == "descendant"

    def test_collapse_inside_flwor(self):
        expr = simplified("for $p in $doc//person return $p")
        assert isinstance(expr, core.CFor)
        assert expr.source.step.axis == "descendant"


class TestPredicatedCollapse:
    """Position-insensitive predicates ride along with the collapse."""

    def _collapsed(self, text: str) -> bool:
        expr = simplified(text)
        return (
            isinstance(expr.step, core.CAxisStep)
            and expr.step.axis == "descendant"
        )

    def test_comparison_predicate_collapses(self):
        expr = simplified("$doc//item[@id = $x]")
        assert expr.step.axis == "descendant"
        assert len(expr.step.predicates) == 1
        assert isinstance(expr.step.predicates[0], core.CComparison)

    def test_boolean_connective_collapses(self):
        assert self._collapsed('$doc//item[@a = "1" and @b = "2"]')

    def test_quantified_predicate_collapses(self):
        assert self._collapsed('$doc//item[some $b in bid satisfies $b > 5]')

    def test_fn_boolean_builtin_collapses(self):
        assert self._collapsed("$doc//item[fn:exists(@id)]")

    def test_numeric_literal_blocked(self):
        assert not self._collapsed("$doc//para[1]")

    def test_position_call_blocked(self):
        # position() is boolean-shaped via the comparison, but reads the
        # focus position — meaning differs between the two step forms.
        assert not self._collapsed("$doc//para[position() = 2]")

    def test_last_call_blocked_even_nested(self):
        assert not self._collapsed("$doc//para[@n = last()]")

    def test_unprefixed_call_blocked(self):
        # An unprefixed name could resolve to a user function returning a
        # number, flipping the predicate into positional mode.
        assert not self._collapsed("$doc//para[exists(@id)]")

    def test_predicated_collapse_preserves_results(self):
        engine = Engine()
        engine.load_document(
            "doc",
            '<r><s><para n="1"/><para n="2"/></s><s><para n="2"/></s></r>',
        )
        # Same nodes as the spec, which walks every axis as written.
        fast = engine.execute('$doc//para[@n = "2"]').serialize()
        slow = by_spec(engine, '$doc//para[@n = "2"]').serialize()
        assert fast == slow == '<para n="2"/><para n="2"/>'


class TestSemanticsPreserved:
    @pytest.fixture
    def e(self) -> Engine:
        engine = Engine()
        engine.load_document(
            "doc",
            '<r><s><para n="1"/><para n="2"/></s><s><para n="3"/></s></r>',
        )
        return engine

    def test_descendant_results_identical(self, e):
        assert e.execute("count($doc//para)").first_value() == 3

    def test_positional_semantics_unchanged(self, e):
        # //para[1]: first para of each s (2 results), NOT 1.
        assert e.execute("count($doc//para[1])").first_value() == 2

    def test_index_and_walk_agree(self, e):
        with_index = e.execute("$doc//para/@n").strings()
        without_index = by_spec(e, "$doc//para/@n").strings()
        assert with_index == without_index == ["1", "2", "3"]

    def test_index_respects_detached_subtrees(self, e):
        e.execute(
            "declare variable $s := exactly-one(($doc//s)[1]);"
            "snap delete { $s }"
        )
        assert e.execute("$doc//para/@n").strings() == ["3"]
        # The detached subtree is still queryable through its own root.
        assert e.execute("count($s//para)").first_value() == 2

    def test_index_sees_renames(self, e):
        e.execute('snap rename { ($doc//para)[1] } to { "intro" }')
        assert e.execute("count($doc//para)").first_value() == 2
        assert e.execute("count($doc//intro)").first_value() == 1

    def test_index_sees_constructed_elements(self, e):
        e.execute("snap insert { <para n='9'/> } into { ($doc//s)[2] }")
        assert e.execute("count($doc//para)").first_value() == 4


class TestTransform:
    def test_identity_returns_same_object(self):
        expr = normalize(parse("for $x in (1,2) return $x + 1"))
        assert transform(expr, lambda e: e) is expr

    def test_rewrite_literals(self):
        expr = normalize(parse("1 + 2"))

        def bump(e):
            if isinstance(e, core.CLiteral) and e.value.value == 1:
                from repro.xdm.values import AtomicValue

                return core.CLiteral(value=AtomicValue.integer(10))
            return e

        rewritten = transform(expr, bump)
        assert rewritten.left.value.value == 10
        assert rewritten.right.value.value == 2
        assert expr.left.value.value == 1  # original untouched

    def test_transform_traverses_ordered_flwor(self):
        expr = normalize(parse("for $x in $s order by $x return $x"))
        seen = []
        transform(expr, lambda e: (seen.append(type(e).__name__), e)[1])
        assert "CVar" in seen and "COrderedFLWOR" in seen


def pushed_predicates(text: str) -> list | None:
    """The predicates on the last step of ``$v``'s source in *text*
    (None: that source is no path)."""
    expr = simplified(text)
    while isinstance(expr, (core.CLet, core.CFor)) and not (
        isinstance(expr, core.CFor) and expr.var == "v"
    ):
        expr = expr.body
    if isinstance(expr, core.COrderedFLWOR):
        expr = next(c for c in expr.clauses if c.var == "v")
    if not isinstance(expr.source, core.CPath):
        return None
    return [core_to_source(p) for p in expr.source.step.predicates]


class TestWherePushdown:
    """A one-variable leading ``where`` conjunct of an ordered FLWOR
    becomes the step's predicate only where it runs on exactly the same
    bindings, ahead of nothing that may raise."""

    @pytest.mark.parametrize(
        "text, moved",
        [
            # the orderby template of the analytic benchmark
            (
                "for $v in $d//p where number($v/c) > 3 "
                "order by number($v/c) descending return string($v/@id)",
                ["(number(c) > 3)"],
            ),
            (
                "for $v in $d//p where $v/@k = $x order by $v/@j "
                "return $v",
                ["(@k = $x)"],
            ),
            (
                'for $v in $d//p where "k" = $v/c order by $v/@j '
                "return $v",
                ['("k" = c)'],
            ),
            # two bounds on one number(c) move together as a range
            (
                "for $v in $d//p where number($v/c) >= 1 and "
                "number($v/c) < 9 and $v/@k = 'a' order by $v/@j "
                "return $v",
                ["((number(c) >= 1) and (number(c) < 9))"],
            ),
            # a leading bound moves alone when the rest cannot raise
            (
                "for $v in $d//p where number($v/c) >= 1 and "
                "($v/@k = 'a' or $v/b) order by $v/@j return $v",
                ["(number(c) >= 1)"],
            ),
            # order keys and the return ran after the whole where before
            (
                "for $v in $d//p where number($v/c) > 1 "
                "order by number($v/b) return string($v/b)",
                ["(number(c) > 1)"],
            ),
            # an earlier let runs once, before the source
            (
                "let $x := 1 for $v in $d//p where $v/@k = 'a' "
                "order by $x return $v",
                ['(@k = "a")'],
            ),
        ],
    )
    def test_leading_probe_conjunct_moves(self, text, moved):
        assert pushed_predicates(text) == moved

    def test_rest_of_where_stays(self):
        body = simplified(
            "for $v in $d//p where $v/@k = 'a' and $v/c and "
            "$v/@j = 'b' order by $v/@j return $v"
        )
        assert core_to_source(body.where) == '($v/c and ($v/@j = "b"))'

    def test_a_sole_conjunct_leaves_no_where(self):
        body = simplified(
            "for $v in $d//p where $v/@k = 'a' order by $v/@j return $v"
        )
        assert body.where is None

    @pytest.mark.parametrize(
        "text",
        [
            # an unordered where: the body runs between two bindings' tests
            "for $v in $d//p where $v/@k = 'a' return $v",
            # an at variable would be renumbered
            "for $v at $i in $d//p where $v/@k = 'a' order by $i "
            "return $i",
            # a later let runs for every binding the where drops
            "for $v in $d//p let $x := $v/b where $v/@k = 'a' "
            "order by $x return $x",
            "for $v in $d//p let $x := 1 where $v/@k = 'a' "
            "order by $x return $v",
            # an earlier for: the source runs again after the first where
            "for $w in (1, 2) for $v in $d//p where number($v/c) > 1 "
            "order by $w return $v",
            # only the leading conjunct may move
            "for $v in $d//p where exists($v/c) and $v/@k = 'a' "
            "order by $v/@j return $v",
            # $v elsewhere than as the head of $v/step
            "for $v in $d//p where $v/@k = $v order by $v/@j return $v",
            "for $v in $d//p where $v/@k = $v/@j order by $v/@j return $v",
            # two variables: the join rules' business
            "for $w in $d//q for $v in $d//p where $v/@k = $w/@k "
            "order by $v/@j return $v",
            # the conjunct reads the outer focus
            "for $v in $d//p where @k = 'a' order by $v/@j return $v",
            "for $v in $d//p where contains(string(.), 'a') "
            "order by $v/@j return $v",
            # the rest of the where may raise, so which raises first
            # could change
            "for $v in $d//p where number($v/c) >= 1 and "
            "number($v/b) < 9 order by $v/@j return $v",
            "for $v in $d//p where $v/@k = 'a' and number($v/c) > 1 "
            "order by $v/@j return $v",
            # not a probe shape
            "for $v in $d//p where $v/@k != 'a' order by $v/@j return $v",
            "for $v in $d//p where number($v/c) != 3 order by $v/@j "
            "return $v",
            # the source's last step is no name step
            "for $v in $d//* where $v/@k = 'a' order by $v/@j return $v",
            "for $v in ($d//p, $d//q) where $v/@k = 'a' order by $v/@j "
            "return $v",
            # from nested context nodes a child step meets its candidates
            # context by context, not in the bindings' document order
            "for $v in $d//q/p where $v/@k = 'a' order by $v/@j return $v",
        ],
    )
    def test_guards_keep_the_where(self, text):
        assert pushed_predicates(text) in (None, [])

    def test_a_filtered_source_keeps_its_predicates(self):
        text = (
            "for $v in $d//p[1] where $v/@k = 'a' order by $v/@j return $v"
        )
        assert pushed_predicates(text) == ["1"]
