"""The auction service's key lookups are answered by the value indexes.

The §2 service call ``get_item_nolog`` is ``$auction//item[@id =
$itemid]``, exactly the attribute-probe shape.  The indexes are part of
the store from the moment the document is parsed, so:

* a read-only front end answers it through *snapshot* probes without any
  writer ever having touched the store, and
* transactional commits, which install the committed subtrees as raw
  rows, keep the postings in step instead of dropping them.

Every indexed answer is checked against the same call with index probes
switched off.
"""

import pytest

from repro.concurrent.snapshot import StoreSnapshot
from repro.usecases import AuctionFrontEnd, AuctionService
from repro.xmark import XMarkConfig, generate_auction_xml


@pytest.fixture(scope="module")
def xml() -> str:
    return generate_auction_xml(XMarkConfig(persons=15, items=10))


def item_and_user_ids(service) -> tuple[list[str], list[str]]:
    # Plain path steps: nothing here probes (or, before the indexes were
    # store state, would have built) the value indexes.
    items = service.engine.execute(
        "for $i in $auction//item return string($i/@id)"
    ).strings()
    users = service.engine.execute(
        "for $p in $auction//person return string($p/@id)"
    ).strings()
    return items, users


def unindexed_get_item(service, item: str, user: str) -> str:
    return service.engine.execute(
        "get_item_nolog($itemid, $userid)",
        bindings={"itemid": item, "userid": user},
        use_indexes=False,
    ).serialize()


def test_read_only_front_end_answers_through_snapshot_probes(
    xml, monkeypatch
):
    service = AuctionService(auction_xml=xml)
    store = service.engine.store
    rebuilds = store.indexes.rebuilds
    items, users = item_and_user_ids(service)
    expected = {
        item: unindexed_get_item(service, item, users[0]) for item in items
    }

    answered = []
    original = StoreSnapshot.attr_eq_probe

    def recording(self, name, value):
        result = original(self, name, value)
        answered.append(result)
        return result

    monkeypatch.setattr(StoreSnapshot, "attr_eq_probe", recording)
    with AuctionFrontEnd(service, workers=2) as front:
        for item in items:
            result = front.get_item_nolog(item, users[0])
            assert result.serialize() == expected[item]
        assert front.metrics.counter("reads_snapshot") == len(items)

    assert len(answered) >= len(items)
    assert all(result is not None for result in answered)
    assert all(len(result) == 1 for result in answered)
    assert store.indexes.rebuilds == rebuilds


def test_transactional_commits_keep_the_indexes(xml, tmp_path):
    service = AuctionService(
        auction_xml=xml, durable_path=str(tmp_path / "service")
    )
    store = service.engine.store
    rebuilds = store.indexes.rebuilds
    items, users = item_and_user_ids(service)
    for n in range(20):
        item = items[n % len(items)]
        user = users[n % len(users)]
        if n % 2:
            assert service.add_watch(item, user)
        else:
            assert service.place_bid(item, user, 10.0 + n)
        # A live-store probe right after each commit: answered from the
        # maintained postings, never from a rebuild.
        assert (
            service.get_item_nolog(item, user).serialize()
            == unindexed_get_item(service, item, user)
        )
    assert store.indexes.rebuilds == rebuilds
    store.check_invariants()
    service.close()
