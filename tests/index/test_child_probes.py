"""Child-axis key lookups and first predicates followed by more
predicates are answered from the value index; the child axis probes
only when that cannot cost more than the scan; and every execution path
(prepared, snapshot read, transaction statement) honours
``ExecutionOptions(use_indexes=False)``."""

import pytest

from repro.concurrent.executor import ConcurrentExecutor
from repro.concurrent.snapshot import StoreSnapshot
from repro.engine import Engine, ExecutionOptions
from repro.txn.view import TransactionView

_NO_INDEX = ExecutionOptions(use_indexes=False)


def engine_with(name: str, xml: str) -> Engine:
    engine = Engine()
    engine.bind(name, engine.parse_fragment(xml))
    return engine


def flat_root() -> Engine:
    rows = "".join(
        f'<row k="k{i % 7}" amount="{i}"/>' for i in range(70)
    )
    return engine_with("r", f"<rows>{rows}</rows>")


def probes(engine: Engine) -> int:
    return engine.store.indexes.probes


def both(engine: Engine, query: str) -> tuple[str, str]:
    return (
        engine.execute(query).serialize(),
        engine.execute(query, options=_NO_INDEX).serialize(),
    )


class TestCostGuard:
    def test_long_posting_list_scans_the_child_list(self):
        # Every <c> bears k="v": the posting list (4,000) is longer than
        # any context's child list (2), so each step must scan.
        pairs = "".join('<p><c k="v"/><c k="v"/></p>' for _ in range(2000))
        engine = engine_with("d", f"<ps>{pairs}</ps>")
        query = 'sum(for $p in $d//p return count($p/c[@k = "v"]))'
        before = probes(engine)
        fast = engine.execute(query).first_value()
        assert probes(engine) == before
        assert fast == engine.execute(query, options=_NO_INDEX).first_value()
        assert int(fast) == 4000

    def test_selective_key_probes(self):
        engine = flat_root()
        before = probes(engine)
        fast, slow = both(engine, '$r/row[@k = "k3"]')
        assert fast == slow
        assert fast.count("<row") == 10
        assert probes(engine) == before + 1


class TestFirstPredicateProbe:
    @pytest.mark.parametrize(
        "tail",
        [
            "[1]",
            "[last()]",
            "[position() = 2]",
            "[number(@amount) >= $x]",
            "[number(@amount) >= $x][1]",
        ],
    )
    def test_tails_count_as_the_scan_counts(self, tail):
        engine = flat_root()
        engine.bind("x", 30)
        for step in ("$r/row", "$r//row"):
            before = probes(engine)
            query = f'{step}[@k = "k2"]{tail}'
            fast, slow = both(engine, query)
            assert fast == slow, query
            assert probes(engine) == before + 1, query

    def test_declined_probe_scans_with_the_same_tail(self):
        # Every row bears k="all", and one more node elsewhere: 21
        # postings against 20 children, so the guard declines.
        rows = "".join(f'<row k="all" amount="{i}"/>' for i in range(20))
        engine = engine_with("r", f"<rows>{rows}</rows>")
        engine.bind("other", engine.parse_fragment('<row k="all"/>'))
        engine.bind("x", 15)
        before = probes(engine)
        fast, slow = both(engine, '$r/row[@k = "all"][number(@amount) >= $x]')
        assert fast == slow
        assert fast.count("<row") == 5
        assert probes(engine) == before


class TestUseIndexesHonoured:
    QUERY = '$r/row[@k = "k4"]'

    def _recording(self, monkeypatch, cls) -> list:
        calls = []
        original = cls.attr_eq_probe

        def recording(self, *args):
            calls.append(args)
            return original(self, *args)

        monkeypatch.setattr(cls, "attr_eq_probe", recording)
        return calls

    def test_snapshot_reads(self, monkeypatch):
        engine = flat_root()
        expected = engine.execute(self.QUERY, options=_NO_INDEX).serialize()
        calls = self._recording(monkeypatch, StoreSnapshot)
        for options, probed in ((_NO_INDEX, False), (None, True)):
            # A fresh executor each time: no shared result cache.
            executor = ConcurrentExecutor(engine, workers=1)
            try:
                future = executor.submit(self.QUERY, options=options)
                got = future.result(timeout=30)
            finally:
                executor.shutdown()
            assert got.serialize() == expected
            assert bool(calls) is probed
            calls.clear()

    def test_transaction_statements(self, monkeypatch):
        engine = flat_root()
        expected = engine.execute(self.QUERY, options=_NO_INDEX).serialize()
        calls = self._recording(monkeypatch, TransactionView)
        with engine.session() as session:
            with session.transaction() as txn:
                got = txn.execute(self.QUERY, options=_NO_INDEX)
                assert got.serialize() == expected
                assert not calls
                assert txn.execute(self.QUERY).serialize() == expected
                assert calls
