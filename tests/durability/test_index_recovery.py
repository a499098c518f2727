"""Crash recovery × indexes: a store rebuilt from checkpoint + journal
replay must yield indexes in exact agreement with a from-scratch rebuild
over the recovered records — no stale postings survive a crash, and no
postings are lost.

The index is deliberately *not* journaled: recovery loads the checkpoint
(one bulk rebuild) and replays ops through the per-op hooks, so agreement
here proves the maintenance hooks and the bulk rebuild compute the same
function of the records.
"""

import pytest

from repro.durability import DurableEngine, recover
from repro.durability.faults import (
    CRASH_AFTER_JOURNAL,
    CRASH_BEFORE_FSYNC,
    FaultInjector,
    InjectedCrash,
)
from repro.index.manager import IndexManager

DOC = (
    "<inventory>"
    "<item id='a'><name>widget</name></item>"
    "<item id='b'><name>sprocket</name></item>"
    "<item id='c'><name>flywheel</name></item>"
    "</inventory>"
)

UPDATES = [
    'snap { replace value of { $doc//item[@id="a"]/name } '
    'with { "gadget" } }',
    'snap { rename { $doc//item[@id="b"]/@id } to { "ident" } }',
    'snap { insert { <item id="d"><name>cog</name></item> } '
    "into { $doc/inventory } }",
    'snap { delete { $doc//item[@id="c"] } }',
]


def assert_indexes_match_fresh_rebuild(store):
    """Verify, and compare against a scratch manager's bulk rebuild."""
    live = store.indexes
    live.verify()
    scratch = IndexManager(store)
    scratch.ensure_built()
    assert live._attr == scratch._attr
    assert live.token_index == scratch.token_index


def crash_recover(tmp_path, crash_point, crash_on_update):
    faults = FaultInjector()
    path = str(tmp_path / "d")
    engine = DurableEngine(path, faults=faults)
    engine.load_document("doc", DOC)
    for update in UPDATES[:crash_on_update]:
        engine.execute(update)
    faults.arm(crash_point)
    with pytest.raises(InjectedCrash):
        engine.execute(UPDATES[crash_on_update])
    return recover(path).engine


class TestIndexRecovery:
    def test_clean_shutdown_indexes_agree(self, tmp_path):
        path = str(tmp_path / "d")
        engine = DurableEngine(path)
        engine.load_document("doc", DOC)
        for update in UPDATES:
            engine.execute(update)
        engine.close()
        recovered = recover(path).engine
        assert_indexes_match_fresh_rebuild(recovered.store)

    @pytest.mark.parametrize("crash_on_update", [0, 2, 3])
    def test_crash_before_fsync_drops_the_snap(
        self, tmp_path, crash_on_update
    ):
        engine = crash_recover(
            tmp_path, CRASH_BEFORE_FSYNC, crash_on_update
        )
        store = engine.store
        assert_indexes_match_fresh_rebuild(store)
        # The crashed snap never committed: with crash_on_update == 0 the
        # replace-value never happened, so "widget" is still indexed.
        if crash_on_update == 0:
            assert len(store.token_probe("widget")) == 1
            assert store.token_probe("gadget") == ()

    def test_crash_after_journal_keeps_the_snap(self, tmp_path):
        engine = crash_recover(tmp_path, CRASH_AFTER_JOURNAL, 0)
        store = engine.store
        assert_indexes_match_fresh_rebuild(store)
        # The record hit the journal before the crash, so recovery
        # replays it — and the index must reflect the replayed write.
        # (gc first: replace-value-of detaches the old text node, whose
        # posting rightly lives until the node is reclaimed.)
        engine.gc()
        assert store.token_probe("widget") == ()
        assert len(store.token_probe("gadget")) == 1

    def test_recovered_engine_maintains_incrementally(self, tmp_path):
        engine = crash_recover(tmp_path, CRASH_BEFORE_FSYNC, 2)
        store = engine.store
        rebuilds = store.indexes.rebuilds
        engine.execute(UPDATES[2])  # re-issue the crashed insert
        engine.gc()  # reclaim constructor intermediates
        assert len(store.token_probe("cog")) == 1
        assert store.indexes.rebuilds == rebuilds  # maintained, not rebuilt
        assert_indexes_match_fresh_rebuild(store)
        store.check_invariants()
