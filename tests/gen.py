"""Hypothesis strategies for small documents and pure XQuery programs.

``documents()`` draws element trees whose names repeat at every depth
(an ``a`` inside an ``a``), so a step taken from several context nodes
meets the same node twice and out of document order.  ``programs()``
draws pure expressions — no update, no snap — over the variables a test
binds: ``$d`` (the document), ``$v`` (a string), ``$n`` (an integer),
``$z`` (zero) and ``$e`` (the empty sequence), plus the functions of
``PROLOG``.  The grammar covers:

* paths with positional, value and attribute predicates over the child,
  descendant, attribute, parent and sibling axes;
* general, value and node comparisons over untyped, numeric and string
  operands; arithmetic with empty operands;
* ``and``/``or``, ``if``, ``for``/``let``, ``some``/``every``, and FLWOR
  with ``where`` and ``order by`` (keys may be empty);
* built-ins (focus functions too), constructors and casts, given
  half-way, NaN and infinite numbers among their operands.

Operands are drawn without regard to type, so a good share of programs
raise a dynamic error; which error comes first is part of the meaning.

``statements()`` draws updating statements over the same document: the
five update primitives (insert at every location, delete, replace,
replace value of, rename) under a top-level ``snap`` in any of its three
modes, snaps nested in snaps (each in any mode), two inserts at one
place, ``for`` loops whose body updates each node they bind, calls of
the updating functions of ``PROLOG`` (one recursing to a depth its
caller picks, past the call depth limit too, one snapping as it
recurses), constructed trees updated in scratch before a query
returns or inserts them, and FLWORs a §4.3 rewrite may fire on (a
loop-invariant ``let``, a two-``for`` join on attributes, a ``let``-bound
inner FLWOR joined to its loop).  Their targets are paths, so some select
nothing or several nodes and raise.
"""

from __future__ import annotations

from hypothesis import strategies as st

NAMES = ("a", "b", "c")
ATTRIBUTES = ("id", "k", "n")
VALUES = ("1", "2", "10", "x", "y", "")
TEXTS = ("x", "y", "2", "10", "x y")

# Pure functions the programs may call: a plain one, a positional one
# and a recursive one; and two updating ones for the statements: one
# that inserts $k marks into $t, one mark per level of its recursion,
# and one that snaps an insert per level and returns what it then sees.
PROLOG = """
declare function local:twice($x) { ($x, $x) };
declare function local:pick($s, $i) { $s[$i] };
declare function local:depth($m) {
  if (empty($m/..)) then 0 else 1 + local:depth($m/..)
};
declare function local:mark($t, $k) {
  if ($k <= 0) then ()
  else (insert { <m k="{$k}"/> } into { $t }, local:mark($t, $k - 1))
};
declare function local:bump($k) {
  if ($k <= 0) then count($d//c)
  else (snap insert { <c n="{$k}"/> } as first into { $d/r },
        local:bump($k - 1))
};
"""


@st.composite
def elements(draw, depth: int = 0) -> str:
    name = draw(st.sampled_from(NAMES))
    attrs = "".join(
        f' {attr}="{draw(st.sampled_from(VALUES))}"'
        for attr in ATTRIBUTES
        if draw(st.booleans())
    )
    children = []
    for _ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
        if draw(st.integers(0, 3)) == 0:
            children.append(draw(st.sampled_from(TEXTS)))
        else:
            children.append(draw(elements(depth + 1)))
    return f"<{name}{attrs}>{''.join(children)}</{name}>"


def documents():
    """A ``<r>`` root over a forest of small elements."""
    return st.lists(elements(), max_size=4).map(
        lambda forest: f"<r>{''.join(forest)}</r>"
    )


AXES = (
    "child::", "descendant::", "descendant-or-self::", "attribute::",
    "parent::", "self::", "ancestor::", "following-sibling::",
    "preceding-sibling::", "", "@",
)
TESTS = NAMES + ("*", "node()", "text()")
ATTRIBUTE_TESTS = ATTRIBUTES + ("*", "node()")
BASES = (
    "$d/r", "$d//a", "($d//b, $d//a)", "$d//c", "($d//*)[2]", "$d//b/..",
    "$d",
)
LITERALS = (
    '1', '2', '2.5', '1e0', '"x"', '""', '"10"', "()", "-1", "0.5",
    'number("x")', "1 div 0E0",
)
SCALARS = (
    "$n", "$v", "$z", "$e", "$d//a/@n", "$d//b/@k", "$d//text()", ".",
    "last()",
)
GENERAL = ("=", "!=", "<", "<=", ">", ">=")
VALUE = ("eq", "ne", "lt", "gt")
NODE = ("is", "<<", ">>")
ARITH = ("+", "-", "*", "div", "idiv", "mod")
FUNCTIONS_1 = (
    "count", "sum", "string", "number", "name", "local-name", "exists",
    "empty", "not", "string-length", "distinct-values", "data",
    "boolean", "max", "min", "avg", "reverse", "zero-or-one",
    "normalize-space", "local:twice", "local:depth", "xs:integer",
    "xs:string", "xs:double", "xs:boolean", "root", "floor", "ceiling",
    "round",
)
FUNCTIONS_2 = (
    "contains", "concat", "starts-with", "string-join", "index-of",
    "local:pick", "subsequence", "compare", "substring",
)
FOCUS = (
    "position()", "last()", "string()", "number()", "name()", ".",
    "string-length()", "local-name()",
)
CASTS = (
    "cast as xs:integer?", "cast as xs:double", "castable as xs:integer",
    "instance of xs:integer+", "instance of node()*", "treat as item()*",
    "cast as xs:string?",
)


def programs():
    top = frozenset()
    return st.one_of(
        paths(3, top), probed_paths(), bindings(3, top), expressions(3, top)
    )


# First predicates the value indexes can answer (when the comparand is a
# string and the step is a child or descendant name step).
PROBED = (
    "[@k = $v]", '["x" = @k]', '[@id = "1"]', "[@n = 1]", "[b = $v]",
    '[c = "x"]', "[contains(., $v)]", '[contains(string(.), "y")]',
)


def probed_paths():
    """A name step whose first predicate has a probe shape, with a tail
    of further predicates and maybe one more step."""
    return st.tuples(
        st.sampled_from(BASES[:4]),
        st.sampled_from(("/", "//")),
        st.sampled_from(("", "descendant::", "descendant-or-self::")),
        st.sampled_from(NAMES),
        st.sampled_from(PROBED),
        st.lists(predicates(1, frozenset()), max_size=2),
        st.sampled_from(("", "/b", "/@k", "/..", "//text()")),
    ).map(lambda t: "".join(t[:5]) + "".join(t[5]) + t[6])


def expressions(depth: int, scope: frozenset):
    """Any expression, with the variables in *scope* bound around it."""
    leaves = [
        st.sampled_from(LITERALS),
        st.sampled_from(SCALARS + tuple(f"${v}" for v in sorted(scope))),
        paths(depth, scope),
    ]
    if depth <= 0:
        return st.one_of(leaves)
    sub = expressions(depth - 1, scope)
    return st.one_of(leaves + [
        st.tuples(sub, st.sampled_from(GENERAL + VALUE), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(paths(1, scope), st.sampled_from(NODE), paths(1, scope))
        .map(lambda t: f"(({t[0]})[1] {t[1]} ({t[2]})[last()])"),
        st.tuples(sub, st.sampled_from(ARITH), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(sub, st.sampled_from(("and", "or")), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        guarded(sub),
        st.tuples(sub, sub, sub).map(
            lambda t: f"(if ({t[0]}) then {t[1]} else {t[2]})"
        ),
        bindings(depth, scope),
        st.tuples(st.sampled_from(FUNCTIONS_1), sub).map(
            lambda t: f"{t[0]}({t[1]})"
        ),
        st.tuples(st.sampled_from(FUNCTIONS_2), sub, sub).map(
            lambda t: f"{t[0]}({t[1]}, {t[2]})"
        ),
        st.tuples(sub, st.sampled_from(CASTS)).map(
            lambda t: f"({t[0]} {t[1]})"
        ),
        st.tuples(sub, sub).map(
            lambda t: f'<e a="{{{t[0]}}}">{{{t[1]}}}</e>'
        ),
        sub.map(lambda e: f"element f {{ {e} }}"),
        sub.map(lambda e: f"text {{ {e} }}"),
        st.tuples(paths(1, scope), paths(1, scope)).map(
            lambda t: f"(({t[0]}) union ({t[1]}))"
        ),
        sub.map(lambda e: f"(count({e}) to $n)"),
        sub.map(lambda e: f"({e} to 3)"),
    ])


# Operands that decide ``and``/``or`` alone, so the right operand must
# not run: ``(guard and x)`` with a false guard, ``(guard or x)`` with a
# true one — often guarding an operand that raises.
FALSE_GUARDS = ("$z", "exists($e)", "$d//c[9]", '""', "false()")
TRUE_GUARDS = ("$n", "empty($e)", "$d/r", '"x"', "true()")
RAISING = ("1 idiv $z", "(1, 2) = $v", "$d//a + 1", '"x" < 1', "$e[.]")


def guarded(sub):
    right = st.one_of(st.sampled_from(RAISING), sub)
    return st.one_of(
        st.tuples(st.sampled_from(FALSE_GUARDS), right).map(
            lambda t: f"({t[0]} and {t[1]})"
        ),
        st.tuples(st.sampled_from(TRUE_GUARDS), right).map(
            lambda t: f"({t[0]} or {t[1]})"
        ),
    )


def bindings(depth: int, scope: frozenset):
    """``for``/``let``/quantifiers and FLWOR with where and order by."""
    sub = expressions(depth - 1, scope)
    inner = expressions(depth - 1, scope | {"i"})
    flwor = expressions(depth - 1, scope | {"i", "p"})
    return st.one_of(
        st.tuples(sub, inner).map(
            lambda t: f"(for $i in {t[0]} return {t[1]})"
        ),
        st.tuples(sub, inner).map(
            lambda t: f"(let $i := {t[0]} return {t[1]})"
        ),
        st.tuples(st.sampled_from(("some", "every")), sub, inner).map(
            lambda t: f"({t[0]} $i in {t[1]} satisfies {t[2]})"
        ),
        st.tuples(
            sub, flwor, flwor,
            st.sampled_from(("", " descending", " empty greatest")),
            flwor,
        ).map(
            lambda t: f"(for $i at $p in {t[0]} where {t[1]} "
            f"order by {t[2]}{t[3]} return {t[4]})"
        ),
    )


def paths(depth: int, scope: frozenset):
    base = st.sampled_from(BASES + tuple(f"${v}" for v in sorted(scope)))
    return st.tuples(
        base, st.lists(steps(depth, scope), min_size=1, max_size=3)
    ).map(lambda t: t[0] + "".join(t[1]))


def steps(depth: int, scope: frozenset):
    return st.tuples(
        st.sampled_from(("/", "/", "//")),
        st.sampled_from(AXES),
        st.sampled_from(TESTS),
        st.sampled_from(ATTRIBUTE_TESTS),
        st.lists(predicates(depth, scope), max_size=2),
    ).map(_step)


def _step(parts) -> str:
    separator, axis, test, attribute_test, preds = parts
    if axis in ("@", "attribute::"):
        test = attribute_test
    return f"{separator}{axis}{test}{''.join(preds)}"


def predicates(depth: int, scope: frozenset):
    fixed = st.one_of(
        st.sampled_from((
            "[1]", "[2]", "[last()]", "[position() < $n]", "[last() - 1]",
            "[position() = last()]", "[@k = $v]", '["x" = @k]', "[@n > 1]",
            "[@id = 1]", "[b = $v]", '[. = "x"]', "[contains(., $v)]",
            "[@k]", "[not(@n)]", "[b]",
        )),
        guarded(st.sampled_from(FOCUS)).map(lambda e: f"[{e}]"),
    )
    if depth <= 0:
        return fixed
    return st.one_of(
        fixed,
        st.sampled_from(FOCUS).map(lambda e: f"[{e}]"),
        expressions(depth - 1, scope).map(lambda e: f"[{e}]"),
    )


# -- updating statements ---------------------------------------------------

# ``$h`` is a global the host binds (and rebinds) between statements.
TARGETS = (
    "($d//a)[1]", "($d//b)[last()]", "($d//c)[1]", "($d//a/@k)[1]",
    "($d//b/@n)[last()]", "($d//text())[1]", "$d/r", "($d//c/..)[1]",
    "$d//a", "$h", "$h/*[1]",
)
CONTENT = (
    '<a k="x"/>', '<b n="1">y</b>', 'text { "t" }', '<c><a id="2"/></c>',
    "($d//b)[1]", '(<a/>, <b k="y"/>)', 'attribute k { "z" }',
    'for $i in 1 to 2 return <c n="{$i}"/>',
)
SNAPS = ("snap", "snap ordered", "snap nondeterministic",
         "snap conflict-detection")
LOCATIONS = ("into", "as first into", "as last into", "before", "after")


def primitives():
    target = st.sampled_from(TARGETS)
    content = st.sampled_from(CONTENT)
    return st.one_of(
        st.tuples(content, st.sampled_from(LOCATIONS), target).map(
            lambda t: f"insert {{ {t[0]} }} {t[1]} {{ {t[2]} }}"
        ),
        target.map(lambda t: f"delete {{ {t} }}"),
        st.tuples(target, content).map(
            lambda t: f"replace {{ {t[0]} }} with {{ {t[1]} }}"
        ),
        st.tuples(target, st.sampled_from(('"v"', "$v", "count($d//a)")))
        .map(lambda t: f"replace value of {{ {t[0]} }} with {{ {t[1]} }}"),
        st.tuples(target, st.sampled_from(('"z"', '"a"', '"k"'))).map(
            lambda t: f"rename {{ {t[0]} }} to {{ {t[1]} }}"
        ),
    )


# What a ``for`` binds, and what its body does to each node bound.
BOUND = ("$d//a", "$d//b", "$d//a/@k", "$d//text()", "$d/r/*", "$h/*")
PER_NODE = (
    "insert {{ {c} }} into {{ $x }}", "insert {{ {c} }} after {{ $x }}",
    "delete {{ $x }}", "replace {{ $x }} with {{ {c} }}",
    'replace value of {{ $x }} with {{ concat("v", $i) }}',
    'rename {{ $x }} to {{ "z" }}',
    'insert {{ <p i="{{$i}}"/> }} as first into {{ $x }}',
)
# The depths local:mark recurses to: past 150 the call-depth guard
# refuses the statement.
DEPTHS = ("0", "1", "3", "160")


def loops():
    """``for $x at $i in P return <primitive on $x>``, maybe snapped."""
    return st.tuples(
        st.sampled_from(("",) + SNAPS),
        st.sampled_from(BOUND),
        st.sampled_from(PER_NODE),
        st.sampled_from(CONTENT),
    ).map(lambda t: _snapped(
        t[0], f"for $x at $i in {t[1]} return {t[2].format(c=t[3])}"
    ))


def _snapped(snap: str, body: str) -> str:
    return f"{snap} {{ {body} }}" if snap else body


def calls():
    """Calls of PROLOG's updating functions: under a snap, beside a
    read of what they did, and as the ``let`` of a loop (were it judged
    pure, the optimizer would move it out of the loop and call it
    once)."""
    target = st.sampled_from(TARGETS)
    depth = st.sampled_from(DEPTHS)
    return st.one_of(
        st.tuples(st.sampled_from(SNAPS), target, depth).map(
            lambda t: f"{t[0]} {{ local:mark({t[1]}, {t[2]}) }}"
        ),
        st.tuples(target, depth).map(
            lambda t: f"for $i in (1, 2) let $u := local:mark({t[0]}, {t[1]})"
            " return ($u, $i)"
        ),
        st.sampled_from(("0", "1", "2")).map(
            lambda k: f"(local:bump({k}), count($d//c))"
        ),
    )


def pairs():
    """Two inserts at one place in one snap: Δ order decides which
    lands first (conflict-detection may refuse the pair instead)."""
    return st.tuples(
        st.sampled_from(SNAPS),
        st.sampled_from(CONTENT),
        st.sampled_from(CONTENT),
        st.sampled_from(LOCATIONS),
        st.sampled_from(TARGETS),
    ).map(
        lambda t: f"{t[0]} {{ insert {{ {t[1]} }} {t[3]} {{ {t[4]} }}, "
        f"insert {{ {t[2]} }} {t[3]} {{ {t[4]} }} }}"
    )


# -- FLWORs a §4.3 rewrite may fire on ---------------------------------------

# Loop-invariant ``let`` sources: hoisted out of the loop when pure and
# allocation-free; a constructor must stay in it, one node per iteration.
INVARIANT = (
    "count($d//b)", "$d//c", "string($v)", "local:twice($n)", "<m/>",
    '<p k="{$n}"/>',
)
LET_BODIES = (
    "($x, $y, $p)", "insert { $y } into { $x }", "count($y) + $p",
    'insert { <m n="{count($y)}"/> } into { $x }',
    "insert { $y } into { $d/r }",
)
# Join sources, conjuncts (one separable equality, maybe beside a
# one-sided filter or an updating conjunct that must keep its place) and
# bodies, and the group-by's per-match and return expressions.
INNER = ("$d//b", "$d//a", "$d/r/*", '<x k="1" n="x"/>')
WHERES = (
    "$a/@k = $b/@k", "$a/@k = $b/@k and $b/@n", "$b/@id and $a/@id = $b/@n",
    "(insert { <w/> } into { $a }, true()) and $a/@k = $b/@k",
    '$a/@n = $b/@k and $a/@k != "2"',
)
JOIN_BODIES = (
    "$b", "($a/@k, $b/@n)", "insert { <m/> } into { $b }", "<j>{$a/@id}</j>",
)
ORDERS = ("", " order by $b/@n", " order by $a/@k descending")
PER_MATCH = ("$b", "insert { <m/> } into { $b }", "<m/>")
GROUP_BODIES = ("count($g)", "($a/@k, $g)", "<row>{ count($g) }</row>")


def plans():
    """A FLWOR with a loop-invariant ``let``, a join of two ``for``
    clauses, or a ``let``-bound inner FLWOR joined to its loop."""
    return st.one_of(
        st.tuples(
            st.sampled_from(BOUND), st.sampled_from(INVARIANT),
            st.sampled_from(LET_BODIES),
        ).map(lambda t: f"for $x at $p in {t[0]} let $y := {t[1]} "
                        f"return {t[2]}"),
        st.tuples(
            st.sampled_from(INNER), st.sampled_from(WHERES),
            st.sampled_from(ORDERS), st.sampled_from(JOIN_BODIES),
        ).map(lambda t: f"for $a in $d//a for $b in {t[0]} where {t[1]}"
                        f"{t[2]} return {t[3]}"),
        st.tuples(
            st.sampled_from(INNER), st.sampled_from(PER_MATCH),
            st.sampled_from(GROUP_BODIES),
        ).map(lambda t: f"for $a in $d//a let $g := for $b in {t[0]} "
                        f"where $a/@k = $b/@k return {t[1]} return {t[2]}"),
    )


def statements():
    """One statement: a snap of update primitives (maybe nested, maybe
    returning a path), two inserts at one place, a loop updating what
    it binds, a call of an updating function, an update of a constructed
    tree, a FLWOR a rewrite may fire on, or a pure program."""
    body = st.lists(primitives(), min_size=1, max_size=3).map(", ".join)
    return _evenly(
        st.tuples(st.sampled_from(SNAPS), body).map(
            lambda t: f"{t[0]} {{ {t[1]} }}"
        ),
        st.tuples(
            st.sampled_from(SNAPS), primitives(), st.sampled_from(SNAPS),
            body, primitives(),
        ).map(lambda t: f"{t[0]} {{ {t[1]}, {t[2]} {{ {t[3]} }}, {t[4]} }}"),
        pairs(),
        loops(),
        calls(),
        st.tuples(body, st.sampled_from(TARGETS)).map(
            lambda t: f"(snap {{ {t[0]} }}, {t[1]})"
        ),
        st.tuples(st.sampled_from(CONTENT), st.sampled_from(LOCATIONS[:3]))
        .map(
            lambda t: f"let $x := <s><a/></s> return "
            f"(snap insert {{ {t[0]} }} {t[1]} {{ $x/a }}, $x)"
        ),
        plans(),
        st.sampled_from(TARGETS),
        programs(),
    )


def _evenly(*strategies):
    """One of *strategies*, each drawn about as often as the others.
    Drawn by ``st.one_of``, the pure programs took all but a few of 150
    draws, so the updating branches were rarely checked."""
    return st.integers(0, len(strategies) - 1).flatmap(
        lambda index: strategies[index]
    )
