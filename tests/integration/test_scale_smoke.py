"""Large-scale smoke test: an XMark document at a non-toy scale, end to
end through parsing, indexing, querying, optimization and updates."""

import pytest

from repro import Engine
from repro.xmark import XMarkConfig, generate_auction_xml


@pytest.fixture(scope="module")
def big() -> Engine:
    engine = Engine()
    engine.load_document(
        "auction",
        generate_auction_xml(
            XMarkConfig(
                persons=1200, items=800, open_auctions=400, closed_auctions=900
            )
        ),
    )
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    return engine


class TestScaleSmoke:
    def test_store_size(self, big):
        assert len(big.store) > 20_000

    def test_indexed_scans(self, big):
        assert big.execute("count($auction//person)").first_value() == 1200
        assert big.execute("count($auction//closed_auction)").first_value() == 900

    def test_optimized_q8_at_scale(self, big):
        out = big.execute(
            """
            for $p in $auction//person
            let $a := for $t in $auction//closed_auction
                      where $t/buyer/@person = $p/@id
                      return $t
            return count($a)
            """
        )
        assert len(out) == 1200
        assert sum(out.values()) == 900

    def test_bulk_update_at_scale(self, big):
        big.execute(
            "snap { for $p in $auction//person "
            'return insert { <seen/> } into { $p } }'
        )
        assert big.execute("count($auction//seen)").first_value() == 1200

    def test_aggregation_at_scale(self, big):
        total = big.execute("sum($auction//closed_auction/price)")
        assert float(total.first_value()) > 0

    def test_order_by_at_scale(self, big):
        out = big.execute(
            "for $p in subsequence($auction//person, 1, 300) "
            "order by string($p/name) return string($p/name)"
        )
        values = out.values()
        assert values == sorted(values) and len(values) == 300
