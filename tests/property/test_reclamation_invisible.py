"""Property: reclaiming unreachable nodes changes nothing anyone can see.

Each example draws a document and a run of host steps: updating
statements and pure programs (``tests.gen``), each keeping its result,
only the children or only the parents of its nodes (navigation handles),
or nothing; dropping every handle kept so far; and rebinding the global
``$h`` to a parsed fragment or to the last result.  The steps run on two
engines, one of which has statement-end reclamation withheld
(:func:`tests.interpreted.without_reclamation`).  After every step the
two must agree on the step's value or error code, on
``store_fingerprint`` and on the serialization of every handle the test
still holds.  A handle whose node the first engine freed while it was
held reads as ``"gone"`` and fails the property.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.replica import store_fingerprint
from repro.engine import Engine
from repro.errors import StoreError, XQueryError
from repro.xdm.nodes import Node
from repro.xdm.store import NodeKind
from repro.xmlio.serializer import serialize
from tests.gen import PROLOG, documents, statements
from tests.interpreted import without_reclamation

KEEP = ("result", "children", "parent", "none")
HOST = ("drop", "rebind", "bind-result")
FRAGMENT = '<h><a k="1"/><b n="2">t</b></h>'


def make_engine(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("d", xml)
    engine.bind("v", "x")
    engine.bind("n", 2)
    engine.bind("z", 0)
    engine.bind("e", [])
    engine.load_module(PROLOG)
    engine.bind("h", engine.parse_fragment(FRAGMENT))
    return engine


def render(item):
    """An item as comparable data; a freed node reads as "gone"."""
    if not isinstance(item, Node):
        return (item.type, item.lexical())
    try:
        if item.kind in (NodeKind.ELEMENT, NodeKind.DOCUMENT):
            return serialize(item)
        return (item.kind.value, item.name, item.string_value)
    except StoreError:
        return "gone"


class Host:
    """One engine driven through the steps, with the handles it keeps."""

    def __init__(self, engine: Engine):
        self.engine = engine
        self.kept: list = []
        self.last: list = []

    def step(self, step) -> tuple:
        engine = self.engine
        if step[0] == "run":
            _, query, keep = step
            try:
                result = engine.execute(query)
            except XQueryError as error:
                self.last = []
                return ("error", error.code)
            nodes = [item for item in result if isinstance(item, Node)]
            if keep == "result":
                self.kept.append(result)
            elif keep == "children":
                for node in nodes:
                    self.kept.append(node.children)
            elif keep == "parent":
                self.kept.append([node.parent for node in nodes])
            seen = [render(item) for item in result]
            self.last = nodes
            return ("ok", seen)
        if step[0] == "drop":
            self.kept.clear()
        elif step[0] == "rebind":
            engine.bind("h", engine.parse_fragment(FRAGMENT))
        else:
            engine.bind("h", self.last or engine.parse_fragment(FRAGMENT))
        self.last = []
        return (step[0],)

    def state(self) -> tuple:
        return (
            store_fingerprint(self.engine),
            [
                [render(item) for item in group if item is not None]
                for group in self.kept
            ],
        )


def steps():
    return st.lists(
        st.one_of(
            st.tuples(st.just("run"), statements(), st.sampled_from(KEEP)),
            st.sampled_from(HOST).map(lambda name: (name,)),
        ),
        min_size=1,
        max_size=6,
    )


def check(xml: str, run: list) -> Host:
    reclaiming = Host(make_engine(xml))
    keeping = Host(without_reclamation(make_engine(xml)))
    for step in run:
        assert reclaiming.step(step) == keeping.step(step), step
        assert reclaiming.state() == keeping.state(), step
    return reclaiming


DOC = '<r><a k="1"><b n="2">x</b></a><c><a/></c></r>'
# A child kept through navigation alone, then deleted: only its pin
# keeps the detached subtree, until the handle goes.
NAVIGATED = [
    ("run", "($d//a)[1]", "children"),
    ("run", "snap delete { ($d//b)[1] }", "none"),
    ("run", "1", "none"),
    ("drop",),
    ("run", "1", "none"),
]
# A global rebound: the old fragment is garbage, the kept parent is not.
REBOUND = [
    ("run", "$h/a", "parent"),
    ("rebind",),
    ("run", "snap delete { $d//a }", "result"),
    ("drop",),
    ("run", "count($d//*)", "none"),
]


@settings(max_examples=120, deadline=None)
@example(DOC, NAVIGATED)
@example(DOC, REBOUND)
@given(xml=documents(), run=steps())
def test_reclamation_is_invisible(xml, run):
    check(xml, run)


def test_the_fixed_runs_reclaim_something():
    """The property is not vacuous: these runs do free records."""
    for run in (NAVIGATED, REBOUND):
        host = check(DOC, run)
        assert host.engine.store.nodes_reclaimed > 0
