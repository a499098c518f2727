"""Engine-level transactions through the Session API.

``engine.session()`` is the one transactional surface; the deep
transactional coverage lives in ``tests/txn/``.  The commit and
rollback classes below pin, on sessions, the contract the removed
``Engine.transaction()`` context manager used to offer.
"""

import pytest

from repro import Engine
from repro.errors import DynamicError


@pytest.fixture
def e() -> Engine:
    engine = Engine()
    engine.bind("table", engine.parse_fragment("<table><row id='0'/></table>"))
    return engine


def txn(engine):
    """One transaction scope on a fresh session."""
    return engine.session().transaction()


class TestDeprecation:
    def test_engine_transaction_is_removed(self, e):
        assert not hasattr(e, "transaction")

    def test_session_api_does_not_warn(self, e):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with e.session() as session:
                with session.transaction() as txn:
                    txn.execute(
                        "snap insert { <row id='1'/> } into { $table }"
                    )
        assert e.execute("count($table/row)").first_value() == 2


class TestLegacyCommit:
    def test_successful_transaction_persists(self, e):
        with txn(e) as t:
            t.execute("snap insert { <row id='1'/> } into { $table }")
            t.execute("snap insert { <row id='2'/> } into { $table }")
        assert e.execute("count($table/row)").first_value() == 3

    def test_nested_reads_see_writes(self, e):
        with txn(e) as t:
            t.execute("snap insert { <row id='1'/> } into { $table }")
            count = t.execute("count($table/row)").first_value()
            assert count == 2


class TestLegacyRollback:
    def test_exception_rolls_back_store(self, e):
        with pytest.raises(DynamicError):
            with txn(e) as t:
                t.execute("snap insert { <row id='1'/> } into { $table }")
                t.execute("error('boom')")
        assert e.execute("count($table/row)").first_value() == 1

    def test_rollback_restores_globals(self, e):
        with pytest.raises(RuntimeError):
            with txn(e) as t:
                t.execute("declare variable $temp := 99; $temp")
                raise RuntimeError("abort")
        # A variable declared inside the transaction never reaches the
        # engine's bindings.
        assert "temp" not in e.evaluator.globals
        assert e.execute("count($table/row)").first_value() == 1

    def test_rollback_restores_renames_and_deletes(self, e):
        with pytest.raises(RuntimeError):
            with txn(e) as t:
                t.execute('snap rename { $table/row } to { "tuple" }')
                t.execute("snap delete { $table/tuple }")
                raise RuntimeError("abort")
        assert e.execute("count($table/row)").first_value() == 1
        e.store.check_invariants()

    def test_python_exception_propagates(self, e):
        with pytest.raises(ZeroDivisionError):
            with txn(e):
                1 / 0

    def test_sequential_transactions_independent(self, e):
        with pytest.raises(RuntimeError):
            with txn(e) as t:
                t.execute("snap insert { <row id='x'/> } into { $table }")
                raise RuntimeError
        with txn(e) as t:
            t.execute("snap insert { <row id='y'/> } into { $table }")
        rows = e.execute("$table/row/@id").strings()
        assert rows == ["0", "y"]

    def test_queries_after_rollback_work(self, e):
        with pytest.raises(RuntimeError):
            with txn(e) as t:
                t.execute("snap delete { $table/row }")
                raise RuntimeError
        # The engine's handles still resolve.
        assert e.execute("string($table/row/@id)").first_value() == "0"
