"""The auction service's key lookups are answered by the value indexes.

The §2 service call ``get_item_nolog`` is ``$auction//item[@id =
$itemid]``, exactly the attribute-probe shape.  The indexes are part of
the store from the moment the document is parsed, so:

* a read-only front end answers it through *snapshot* probes without any
  writer ever having touched the store, and
* transactional commits, which install the committed subtrees as raw
  rows, keep the postings in step instead of dropping them.

The bid and watch-list lookups (``$bids/bid[@itemid = $itemid]``, with
a second predicate in ``place_bid``/``add_watch``) are child-axis
probes: through front-end snapshots for ``highest_bid``/``watchers``,
and through the transaction view for the endpoints' statements.

Every indexed answer is checked against the same call with index probes
switched off.
"""

import pytest

from repro.concurrent.snapshot import StoreSnapshot
from repro.engine import ExecutionOptions
from repro.txn.view import TransactionView
from repro.usecases import AuctionFrontEnd, AuctionService
from repro.xmark import XMarkConfig, generate_auction_xml

NO_INDEX = ExecutionOptions(use_indexes=False)


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

    def recording(self, *args):
        result = original(self, *args)
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


def recorded_probes(monkeypatch, cls) -> list:
    """Results of every ``cls.attr_eq_probe`` call from here on."""
    answered = []
    original = cls.attr_eq_probe

    def recording(self, *args):
        result = original(self, *args)
        answered.append(result)
        return result

    monkeypatch.setattr(cls, "attr_eq_probe", recording)
    return answered


def seeded_service(xml) -> AuctionService:
    service = AuctionService(auction_xml=xml)
    engine = service.engine
    bids = "".join(
        f'<bid itemid="item{n % 10}" user="person{n % 15}" '
        f'amount="{n % 13}.5"/>'
        for n in range(60)
    )
    watches = "".join(
        f'<watch itemid="item{n % 10}" user="person{n % 15}"/>'
        for n in range(30)
    )
    engine.bind("bids", engine.parse_fragment(f"<bids>{bids}</bids>"))
    watchlist = engine.parse_fragment(f"<watchlist>{watches}</watchlist>")
    engine.bind("watchlist", watchlist)
    return service


READS = {
    "highest_bid": "highest_bid($bids, $itemid)",
    "watchers": "for $w in watchers($watchlist, $itemid) "
    "return string($w/@user)",
}


def test_bid_and_watch_reads_answer_through_snapshot_probes(
    xml, monkeypatch
):
    service = seeded_service(xml)
    expected = {
        (kind, n): service.engine.execute(
            query, bindings={"itemid": f"item{n}"}, use_indexes=False
        ).serialize()
        for kind, query in READS.items()
        for n in range(12)
    }
    answered = recorded_probes(monkeypatch, StoreSnapshot)
    with AuctionFrontEnd(service, workers=2) as front:
        for (kind, n), want in expected.items():
            got = front.submit_query(
                READS[kind], {"itemid": f"item{n}"}
            ).result(timeout=30)
            assert got.serialize() == want, (kind, n)
    assert len(answered) == len(expected)
    assert all(result is not None for result in answered)


def test_bid_and_watch_statements_probe_inside_transactions(
    xml, monkeypatch
):
    service = seeded_service(xml)
    statements = [
        (
            "count($bids/bid[@itemid = $itemid]"
            "[number(@amount) >= $amount])",
            {"itemid": "item3", "amount": 5.0},
        ),
        (
            "count($watchlist/watch[@itemid = $itemid][@user = $userid])",
            {"itemid": "item4", "userid": "person4"},
        ),
    ]
    answered = recorded_probes(monkeypatch, TransactionView)
    with service.engine.session() as session:
        with session.transaction() as txn:
            for query, bindings in statements:
                fast = txn.execute(query, bindings=bindings).serialize()
                slow = txn.execute(
                    query, bindings=bindings, options=NO_INDEX
                ).serialize()
                assert fast == slow, query
            txn.rollback()
    assert len(answered) == len(statements)
    assert all(result is not None for result in answered)

    # The endpoints themselves: both checks read through the probe.
    answered.clear()
    assert not service.place_bid("item3", "person1", 1.0)  # beaten
    assert service.place_bid("item3", "person1", 99.0)
    assert not service.add_watch("item4", "person4")  # already present
    assert service.add_watch("item4", "person5")
    assert len(answered) == 4
    assert all(result is not None for result in answered)
    assert service.highest_bid("item3") == 99.0
    service.engine.store.indexes.verify()
