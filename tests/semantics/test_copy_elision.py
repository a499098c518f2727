"""§3.3's copy of a node a constructor has just made is the node itself.

``insert { <a/> } into { $x }`` normalizes to ``insert { copy { <a/> } }``
and element content is copied into the new element; when the copied
node comes straight from a constructor, nothing else can reach it, so
the evaluator attaches it instead of allocating a copy.  The same holds
for a constructor in a return position: a ``for``/``let``/ordered
FLWOR whose return is one, an ``if`` whose branches are (or ``()``),
and a sequence of them.  Every node that *can* be reached some other way
(a variable, a path, an explicit ``copy`` of one) is still copied."""

import pytest

from repro import Engine
from repro.errors import DynamicError
from repro.lang.normalize import normalize_module
from repro.lang.parser import parse_module
from repro.semantics.evaluator import is_fresh


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.bind("x", engine.parse_fragment("<x/>"))
    engine.bind("donor", engine.parse_fragment("<donor><kid/></donor>"))
    return engine


def created(engine: Engine, query: str, **bindings) -> int:
    before = engine.store.nodes_created
    engine.execute(query, bindings=bindings or None)
    return engine.store.nodes_created - before


class TestStillCopied:
    def test_bound_constructor_result_is_copied_on_insert(self, e):
        out = e.execute(
            "let $m := <m/> return "
            "(snap insert { $m } into { $x }, "
            "empty($m/..), exists($x/m), $x/m is $m)"
        )
        assert out.values() == [True, True, False]

    def test_returned_constructor_stays_parentless(self, e):
        out = e.execute(
            "let $m := <m/> return (snap insert {$m} into {$x}, $m)"
        )
        (m,) = out.items
        assert m.parent is None
        assert e.execute("count($x/m)").first_value() == 1

    def test_element_content_from_a_variable_is_copied(self, e):
        out = e.execute(
            "let $w := <wrap>{ $donor }</wrap> "
            "return ($w/donor is $donor, empty($donor/..), count($w//kid))"
        )
        assert out.values() == [False, True, 1]

    def test_explicit_copy_of_a_variable_copies(self, e):
        assert e.execute("copy { $x } is $x").first_value() is False
        same_kid = e.execute("copy { $donor }/kid is $donor/kid")
        assert same_kid.first_value() is False


class TestElided:
    def test_copy_of_a_constructor_is_a_fresh_parentless_node(self, e):
        out = e.execute("copy { <a><b/></a> }")
        (a,) = out.items
        assert a.parent is None
        assert out.serialize() == "<a><b/></a>"
        assert created(e, "copy { <a><b/></a> }") == 2

    def test_insert_of_a_constructor_allocates_it_once(self, e):
        assert created(e, 'insert { <m n="{1}"/> } into { $x }') == 2
        assert e.execute("$x").serialize() == '<x><m n="1"/></x>'

    def test_constructor_content_is_attached_not_copied(self, e):
        assert created(e, "<a>{ attribute c { 1 } }{ <b/> }</a>") == 3
        assert created(e, "<a>text<!--c--><?pi x?></a>") == 4
        assert (
            e.execute("<a c='1'>{ <b/> }text</a>").serialize()
            == '<a c="1"><b/>text</a>'
        )

    def test_bulk_snap_allocates_two_records_per_insert(self):
        engine = Engine()
        ps = "".join("<p/>" for _ in range(200))
        engine.bind("doc", engine.parse_fragment(f"<doc>{ps}</doc>"))
        query = (
            "snap ordered { for $p in $doc/p "
            'return insert { <mark n="{$n}"/> } into { $p } }'
        )
        assert created(engine, query, n=7) == 400
        marks = engine.execute('count($doc/p/mark[@n = "7"])')
        assert marks.first_value() == 200


def fresh(text: str) -> bool:
    return is_fresh(normalize_module(parse_module(text)).body)


class TestReturnPositions:
    @pytest.mark.parametrize("text, verdict", [
        ("<a/>", True),
        ("()", True),
        ("for $i in 1 to 3 return <a/>", True),
        ("let $i := 1 return <a>{ $i }</a>", True),
        ("for $i in (2, 1) order by $i return <a/>", True),
        ("if (1) then <a/> else ()", True),
        ("if (1) then <a/> else <b/>", True),
        ("(<a/>, text { 1 }, for $i in 1 to 2 return <b/>)", True),
        ("let $a := <a/> return $a", False),
        ("for $i in 1 to 3 return $i", False),
        ("if (1) then <a/> else $x", False),
        ("(<a/>, $x)", False),
        ("document { <a/> }", False),
    ])
    def test_which_shapes_are_fresh(self, text, verdict):
        assert fresh(text) is verdict

    def test_flwor_content_is_attached_not_copied(self, e):
        query = (
            "<report>{ for $i in 1 to 3 "
            'return <sale n="{$i}"/> }</report>'
        )
        # report + three sales with one attribute each; no copies.
        assert created(e, query) == 7
        assert e.execute(query).serialize() == (
            '<report><sale n="1"/><sale n="2"/><sale n="3"/></report>'
        )

    def test_ordered_flwor_if_and_sequence_content(self, e):
        assert created(
            e, "<r>{ for $i in (2, 1) order by $i return <a/> }</r>"
        ) == 3
        assert created(e, "<r>{ if ($x) then <a/> else () }</r>") == 2
        assert created(e, "<r>{ (<a/>, <b/>) }</r>") == 3

    def test_insert_of_a_flwor_adopts_the_new_nodes(self, e):
        query = "insert { for $i in 1 to 4 return <a/> } into { $x }"
        assert created(e, query) == 4
        assert e.execute("count($x/a)").first_value() == 4

    def test_a_variable_in_a_return_position_still_copies(self, e):
        assert created(e, "let $a := <a/> return <r>{ $a }</r>") == 3
        out = e.execute("let $a := <a/> return (<r>{ $a }</r>/a is $a)")
        assert out.first_value() is False
        out = e.execute(
            "let $a := <a/> return "
            "<r>{ for $i in 1 to 2 return $a }</r>/a[1] is $a"
        )
        assert out.first_value() is False

    def test_duplicate_attributes_read_the_same_adopted_or_copied(self, e):
        # XQuery 1.0 §3.7.1.3: two attributes of one name are XQDY0025,
        # whether the constructor adopts its content or copies it.
        attrs = "for $i in 1 to 2 return attribute a { $i }"
        adopted = f"<r>{{ {attrs} }}</r>"
        copied = f"<r>{{ let $s := {attrs} return $s }}</r>"
        assert fresh(attrs) is True
        for query in (
            adopted,
            copied,
            "<r>{attribute a {1}, attribute a {2}}</r>",
            '<r a="1">{attribute a {2}}</r>',
        ):
            with pytest.raises(DynamicError) as raised:
                e.execute(query)
            assert raised.value.code == "XQDY0025", query
        distinct = e.execute("<r>{attribute a {1}, attribute b {2}}</r>")
        assert distinct.serialize() == '<r a="1" b="2"/>'
        e.store.check_invariants()
