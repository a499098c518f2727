"""Tests for selection pushdown around the hash-join rewrite."""

import pytest

from repro import Engine
from repro.algebra.plan import HashJoin, Select, plan_operators
from tests.interpreted import interpreted


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.load_document(
        "db",
        '<db><l><a id="1" k="x" keep="y"/><a id="2" k="x" keep="n"/>'
        '<a id="3" k="z" keep="y"/></l>'
        '<r><b id="9" k="x" big="y"/><b id="8" k="z" big="n"/></r></db>',
    )
    return engine


QUERY = """
    for $a in $db//a
    for $b in $db//b
    where $a/@k = $b/@k and $a/@keep = 'y' and $b/@big = 'y'
    return concat($a/@id, '-', $b/@id)
"""


def find_join(plan):
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, HashJoin):
            return node
        stack.extend(node.children())
    return None


class TestPushdown:
    def test_one_sided_conjuncts_pushed(self, e):
        plan = e.compile(QUERY)
        join = find_join(plan)
        assert join is not None
        # Both streams gained a Select below the join.
        assert isinstance(join.left, Select)
        assert isinstance(join.right, Select)
        # And no Select remains above it.
        ops_above = plan_operators(plan)
        assert ops_above.index("Select") > ops_above.index("HashJoin") or (
            ops_above.count("Select") == 2
        )

    def test_results_unchanged(self, e):
        naive = interpreted(e, QUERY).values()
        optimized = e.execute(QUERY).values()
        assert naive == optimized == ["1-9"]

    def test_cross_side_conjunct_stays_above(self, e):
        query = """
            for $a in $db//a
            for $b in $db//b
            where $a/@k = $b/@k and concat($a/@id, $b/@id) != '19'
            return concat($a/@id, $b/@id)
        """
        plan = e.compile(query)
        join = find_join(plan)
        assert join is not None
        assert not isinstance(join.left, Select)
        assert not isinstance(join.right, Select)
        naive = interpreted(e, query).values()
        optimized = e.execute(query).values()
        assert naive == optimized

    def test_effectful_conjunct_not_pushed(self, e):
        e.bind("sink", e.parse_fragment("<sink/>"))
        query = """
            for $a in $db//a
            for $b in $db//b
            where $a/@k = $b/@k
              and ((insert { <probe/> } into { $sink }, true()))
            return concat($a/@id, $b/@id)
        """
        e1 = Engine()
        e1.load_document("db", e.execute("$db").serialize())
        e1.bind("sink", e1.parse_fragment("<sink/>"))
        interpreted(e1, query)
        expected_probes = e1.execute("count($sink/probe)").first_value()

        e.execute(query)
        assert e.execute("count($sink/probe)").first_value() == expected_probes
