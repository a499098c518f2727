"""§3.3's copy of a node a constructor has just made is the node itself.

``insert { <a/> } into { $x }`` normalizes to ``insert { copy { <a/> } }``
and element content is copied into the new element; when the copied
node comes straight from a constructor, nothing else can reach it, so
the evaluator attaches it instead of allocating a copy.  Every node
that *can* be reached some other way (a variable, a path, an explicit
``copy`` of one) is still copied."""

import pytest

from repro import Engine


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
