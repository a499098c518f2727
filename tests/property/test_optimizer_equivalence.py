"""Property-based optimizer equivalence: for randomized data and a family
of join-shaped queries (with and without collecting updates), the optimized
plan must produce the same values and the same side effects as the
interpreted nested loop."""

import random

from hypothesis import given, settings, strategies as st

from repro import Engine
from repro.algebra.plan import plan_operators
from tests.interpreted import interpreted


def make_db(seed: int, left: int, right: int, keyspace: int) -> str:
    rng = random.Random(seed)
    rows = ["<db><l>"]
    for i in range(left):
        rows.append(f'<a id="{i}" k="k{rng.randrange(keyspace)}"/>')
    rows.append("</l><r>")
    for i in range(right):
        rows.append(f'<b id="{i}" k="k{rng.randrange(keyspace)}"/>')
    rows.append("</r></db>")
    return "".join(rows)


def fresh(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("db", xml)
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    return engine


PURE_JOIN = """
    for $a in $db//a
    for $b in $db//b
    where $a/@k = $b/@k
    return concat($a/@id, "-", $b/@id)
"""

EFFECT_JOIN = """
    for $a in $db//a
    for $b in $db//b
    where $a/@k = $b/@k
    return insert { <m a="{$a/@id}" b="{$b/@id}"/> } into { $sink }
"""

GROUP_QUERY = """
    for $a in $db//a
    let $g := for $b in $db//b
              where $a/@k = $b/@k
              return (insert { <m a="{$a/@id}" b="{$b/@id}"/> }
                      into { $sink }, $b)
    return <row a="{$a/@id}">{ count($g) }</row>
"""

_PARAMS = st.tuples(
    st.integers(0, 10_000),      # seed
    st.integers(0, 12),          # left size
    st.integers(0, 12),          # right size
    st.integers(1, 5),           # key space
)


class TestOptimizerEquivalence:
    @given(_PARAMS)
    @settings(max_examples=40, deadline=None)
    def test_pure_join_values(self, params):
        xml = make_db(*params)
        naive = interpreted(fresh(xml), PURE_JOIN).values()
        optimized = fresh(xml).execute(PURE_JOIN).values()
        assert naive == optimized

    @given(_PARAMS)
    @settings(max_examples=40, deadline=None)
    def test_effectful_join_side_effects(self, params):
        xml = make_db(*params)
        e1, e2 = fresh(xml), fresh(xml)
        interpreted(e1, EFFECT_JOIN)
        e2.execute(EFFECT_JOIN)
        assert (
            e1.execute("$sink").serialize() == e2.execute("$sink").serialize()
        )

    @given(_PARAMS)
    @settings(max_examples=40, deadline=None)
    def test_groupby_values_and_effects(self, params):
        xml = make_db(*params)
        e1, e2 = fresh(xml), fresh(xml)
        v1 = interpreted(e1, GROUP_QUERY).serialize()
        v2 = e2.execute(GROUP_QUERY).serialize()
        assert v1 == v2
        assert (
            e1.execute("$sink").serialize() == e2.execute("$sink").serialize()
        )

    def test_rewrites_actually_fire(self):
        # Sanity: the property above would hold trivially if nothing were
        # rewritten; assert the plans differ from the naive pipeline.
        xml = make_db(7, 5, 5, 3)
        assert "HashJoin" in plan_operators(fresh(xml).compile(PURE_JOIN))
        assert "GroupBy" in plan_operators(fresh(xml).compile(GROUP_QUERY))
