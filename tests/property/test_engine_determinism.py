"""Property: the engine is deterministic — the same query over the same
data, on fresh engines, produces byte-identical results and stores (the
XQuery! design point: evaluation order is *fully specified*) — and,
under the concurrent executor, readers are isolated: every read
observes a committed snap boundary, never a state in between."""

import random
import threading

from hypothesis import given, settings, strategies as st

from repro import ConcurrentExecutor, Engine
from repro.xmlio import serialize
from tests.interpreted import interpreted


def make_doc(seed: int) -> str:
    rng = random.Random(seed)
    rows = []
    for i in range(rng.randint(1, 12)):
        rows.append(
            f'<row id="{i}" k="{rng.randint(0, 3)}"><v>{rng.randint(0, 99)}</v></row>'
        )
    return "<t>" + "".join(rows) + "</t>"


QUERIES = [
    "for $r in $doc//row order by number($r/v) descending "
    "return string($r/@id)",
    "sum($doc//row/v) , avg($doc//row/v)",
    "for $r in $doc//row where $r/@k = 1 "
    "return insert { <hit id='{$r/@id}'/> } into { $sink }",
    "snap { for $r in $doc//row return insert { <n/> } into { $sink } },"
    "count($sink/n)",
    "for $a in $doc//row, $b in $doc//row where $a/@k = $b/@k "
    "and $a/@id != $b/@id return concat($a/@id, $b/@id)",
    "for $r in $doc//row return snap rename { $r } to { 'item' }",
]


def run_once(seed: int, query: str, plan: bool) -> tuple[str, str, str]:
    engine = Engine()
    engine.load_document("doc", make_doc(seed))
    engine.bind("sink", engine.parse_fragment("<sink/>"))
    if plan:
        result = engine.execute(query)
    else:
        result = interpreted(engine, query)
    return (
        result.serialize(),
        engine.execute("$doc").serialize(),
        engine.execute("$sink").serialize(),
    )


class TestDeterminism:
    @given(st.integers(0, 10_000), st.integers(0, len(QUERIES) - 1))
    @settings(max_examples=60, deadline=None)
    def test_interpreter_is_deterministic(self, seed, qidx):
        first = run_once(seed, QUERIES[qidx], plan=False)
        second = run_once(seed, QUERIES[qidx], plan=False)
        assert first == second

    @given(st.integers(0, 10_000), st.integers(0, len(QUERIES) - 1))
    @settings(max_examples=60, deadline=None)
    def test_optimizer_matches_interpreter(self, seed, qidx):
        walked = run_once(seed, QUERIES[qidx], plan=False)
        assert run_once(seed, QUERIES[qidx], plan=True) == walked


class TestConcurrentIsolation:
    """Property: under the concurrent executor, a reader racing a
    writer sees only pre-snap or post-snap states.

    Each write atomically appends one ``<i/>`` AND bumps a counter in
    the same implicit snap, so ``count($doc/t/i)`` and ``data($doc/c)``
    agree in every committed state; a reader observing them disagree
    has seen a torn, mid-snap store."""

    @given(
        writes=st.integers(1, 8),
        readers=st.integers(1, 3),
        workers=st.integers(2, 4),
    )
    @settings(max_examples=12, deadline=None)
    def test_readers_see_only_committed_snap_states(
        self, writes, readers, workers
    ):
        engine = Engine()
        engine.load_document("doc", "<r><t/><c>0</c></r>")
        write = (
            "insert { <i/> } into { $doc/r/t }, "
            "replace value of { $doc/r/c } with { data($doc/r/c) + 1 }"
        )
        read = "concat(count($doc/r/t/i), ':', data($doc/r/c))"
        torn = []
        stop = threading.Event()
        with ConcurrentExecutor(
            engine, workers=workers, queue_size=256
        ) as executor:

            def read_loop():
                while not stop.is_set():
                    value = executor.execute(read).first_value()
                    left, _, right = value.partition(":")
                    if left != right:
                        torn.append(value)

            threads = [
                threading.Thread(target=read_loop) for _ in range(readers)
            ]
            for thread in threads:
                thread.start()
            for _ in range(writes):
                executor.execute(write)
            stop.set()
            for thread in threads:
                thread.join()
            assert torn == []
            final = executor.execute(read).first_value()
            assert final == f"{writes}:{writes}"
