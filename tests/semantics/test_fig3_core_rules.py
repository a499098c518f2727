"""E3 — semantics of the core XQuery expressions (paper Fig. 3).

Each rule is tested for its value *and* for the evaluation-order /
delta-concatenation behaviour the figure prescribes.  Store-visible probes
(`snap insert`) are used to observe evaluation order.
"""

import pytest

from repro import Engine


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.bind("trace", engine.parse_fragment("<trace/>"))
    return engine


def probe(tag: str, value: str = "()") -> str:
    """An expression with a visible side effect, returning *value*."""
    return f"(snap insert {{ <{tag}/> }} into {{ $trace }}, {value})"


def trace_of(engine: Engine) -> list[str]:
    return [n.name for n in engine.execute("$trace/*").items]


class TestSequenceRule:
    """store0 ⊢ E1 ⇒ v1;Δ1;store1   store1 ⊢ E2 ⇒ v2;Δ2;store2."""

    def test_values_concatenate_in_order(self, e):
        assert e.execute("(1, 2), 3").values() == [1, 2, 3]

    def test_left_evaluated_first(self, e):
        e.execute(f"{probe('first')}, {probe('second')}")
        assert trace_of(e) == ["first", "second"]

    def test_deltas_concatenate_in_order(self, e):
        e.bind("sink", e.parse_fragment("<sink/>"))
        e.execute(
            "insert { <a/> } into { $sink }, insert { <b/> } into { $sink }"
        )
        assert e.execute("$sink").serialize() == "<sink><a/><b/></sink>"

    def test_empty_items_vanish(self, e):
        assert e.execute("(), 1, ()").values() == [1]


class TestForRule:
    """One premise per item, store threaded through iterations."""

    def test_binding_and_concatenation(self, e):
        assert e.execute("for $i in (1, 2, 3) return $i * 10").values() == [
            10, 20, 30,
        ]

    def test_iterations_see_previous_effects(self, e):
        # Each iteration's snap makes its insert visible to the next one.
        counts = e.execute(
            "for $i in 1 to 3 return"
            " (snap insert { <n/> } into { $trace }, count($trace/*))"
        ).values()
        assert counts == [1, 2, 3]

    def test_iteration_order_of_effects(self, e):
        e.execute(f"for $i in 1 to 2 return {probe('it')}")
        assert trace_of(e) == ["it", "it"]

    def test_empty_source_no_iterations(self, e):
        assert e.execute("for $i in () return error()").values() == []

    def test_source_delta_precedes_body_deltas(self, e):
        e.bind("sink", e.parse_fragment("<sink/>"))
        e.execute(
            """for $i in (insert { <src/> } into { $sink }, 1, 2)
               return insert { <body/> } into { $sink }"""
        )
        names = [n.name for n in e.execute("$sink/*").items]
        assert names == ["src", "body", "body"]


class TestFunctionCallRule:
    """Arguments left-to-right, then the body; deltas concatenated."""

    def test_user_function_value(self, e):
        e.load_module("declare function double($x) { $x * 2 };")
        assert e.execute("double(21)").first_value() == 42

    def test_argument_order(self, e):
        e.load_module("declare function pair($a, $b) { ($a, $b) };")
        e.execute(f"pair({probe('arg1', '1')}, {probe('arg2', '2')})")
        assert trace_of(e) == ["arg1", "arg2"]

    def test_args_then_body_effects(self, e):
        e.load_module(
            "declare function noisy($v) {"
            " (snap insert { <body/> } into { $trace }, $v) };"
        )
        e.execute(f"noisy({probe('arg', '5')})")
        assert trace_of(e) == ["arg", "body"]

    def test_function_sees_globals_not_caller_locals(self, e):
        e.load_module("declare function get() { $g };")
        e.bind("g", 7)
        assert e.execute("let $g := 9 return get()").first_value() == 7

    def test_recursion(self, e):
        e.load_module(
            "declare function fact($n) {"
            " if ($n le 1) then 1 else $n * fact($n - 1) };"
        )
        assert e.execute("fact(6)").first_value() == 720

    def test_function_delta_escapes_to_caller_snap(self, e):
        # An update made inside a function without snap is pending in the
        # caller's scope — first-class compositional updates (Section 2.2).
        e.load_module(
            "declare function log_and_get($v) {"
            " (insert { <logged/> } into { $trace }, $v) };"
        )
        value = e.execute("log_and_get(3)").first_value()
        assert value == 3
        assert trace_of(e) == ["logged"]


class TestElementConstructionRule:
    """element{E1}{E2}: name first, then content; NewElement allocates."""

    def test_computed_name(self, e):
        out = e.execute("element { concat('a', 'b') } { 1 }").serialize()
        assert out == "<ab>1</ab>"

    def test_name_evaluated_before_content(self, e):
        name_probe = probe("name", "'n'")
        content_probe = probe("content", "1")
        e.execute(f"element {{ ({name_probe}) }} {{ {content_probe} }}")
        assert trace_of(e) == ["name", "content"]

    def test_content_nodes_copied(self, e):
        e.bind("donor", e.parse_fragment("<donor/>"))
        e.execute("<wrap>{ $donor }</wrap>")
        assert e.execute("empty($donor/..)").first_value() is True

    def test_adjacent_atomics_one_text_node(self, e):
        out = e.execute("<a>{ 1, 2, 'x' }</a>")
        assert out.serialize() == "<a>1 2 x</a>"
        assert e.execute("count(<a>{1,2}</a>/text())").first_value() == 1

    # XQuery 1.0 §3.7.1.3: only atomics of *one* enclosed expression are
    # space-joined; adjacent text nodes then merge with no separator and
    # empty ones are dropped.
    def test_atomics_of_different_enclosed_expressions_not_joined(self, e):
        assert e.execute('<a>{"p"}{"q"}</a>').serialize() == "<a>pq</a>"
        assert e.execute('<a>{1, 2}{3}</a>').serialize() == "<a>1 23</a>"

    def test_adjacent_text_nodes_merge(self, e):
        assert e.execute('count(<a>x{"y"}</a>/text())').first_value() == 1
        assert e.execute('<a>x{"y"}</a>').serialize() == "<a>xy</a>"
        assert (
            e.execute('count(<a>{text{"x"}, text{"y"}}</a>/text())')
            .first_value()
            == 1
        )
        e.bind("t", e.parse_fragment("<t>held</t>"))
        held = e.execute("string(<a>{$t/text()}!</a>)").first_value()
        assert held == "held!"
        assert e.execute("$t").serialize() == "<t>held</t>"

    def test_empty_text_nodes_dropped(self, e):
        assert e.execute('count(<a>{text{""}}</a>/text())').first_value() == 0
        assert e.execute('count(<a>{""}</a>/node())').first_value() == 0
        assert e.execute('<a>{text{""}}<b/></a>').serialize() == "<a><b/></a>"


class TestLetRule:
    def test_binds_whole_sequence(self, e):
        assert e.execute("let $s := (1,2,3) return count($s)").first_value() == 3

    def test_source_before_body(self, e):
        e.execute(f"let $v := {probe('src', '1')} return {probe('body', '$v')}")
        assert trace_of(e) == ["src", "body"]

    def test_source_evaluated_once(self, e):
        e.execute(
            f"let $v := {probe('once', '1')} return ($v, $v, $v)"
        )
        assert trace_of(e) == ["once"]


class TestIfRule:
    def test_then_branch(self, e):
        assert e.execute("if (1 = 1) then 'y' else 'n'").first_value() == "y"

    def test_else_branch(self, e):
        assert e.execute("if (1 = 2) then 'y' else 'n'").first_value() == "n"

    def test_untaken_branch_not_evaluated(self, e):
        e.execute(f"if (1 = 1) then {probe('then')} else {probe('else')}")
        assert trace_of(e) == ["then"]

    def test_condition_delta_kept(self, e):
        e.execute(
            "if ((insert { <cond/> } into { $trace }, 1)) then 1 else 2"
        )
        assert trace_of(e) == ["cond"]


class TestEqualsRule:
    def test_value_and_order(self, e):
        e.execute(f"{probe('lhs', '1')} = {probe('rhs', '1')}")
        assert trace_of(e) == ["lhs", "rhs"]

    def test_general_equality(self, e):
        assert e.execute("(1, 2) = (2, 9)").first_value() is True
        assert e.execute("(1, 2) = (3, 9)").first_value() is False
