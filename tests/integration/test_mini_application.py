"""A complete mini-application written in XQuery!: an order-processing
system exercising most language features together — typeswitch, counters,
snap-visible state machines, transactions, conflict-detection, and the
optimizer — as a downstream user of the library would."""

import pytest

from repro import Engine
from repro.errors import ConflictError, DynamicError
from tests.interpreted import interpreted

SHOP_MODULE = """
declare variable $seq := element seq { 0 };

declare function next-order-id() as xs:integer {
  snap { replace { $seq/text() } with { $seq + 1 }, $seq }
};

declare function stock-of($sku) {
  number(exactly-one($inventory/item[@sku = $sku])/@stock)
};

declare function place-order($sku, $qty) {
  if (stock-of($sku) >= $qty)
  then (
    snap {
      replace { exactly-one($inventory/item[@sku = $sku])/@stock }
              with { attribute stock { stock-of($sku) - $qty } },
      insert { <order id="{next-order-id()}" sku="{$sku}" qty="{$qty}"
                      status="placed"/> }
             into { $orders }
    },
    exactly-one($orders/order[last()])
  )
  else (
    snap insert { <rejected sku="{$sku}" qty="{$qty}"/> } into { $audit },
    ()
  )
};

declare function ship-order($id) {
  let $order := exactly-one($orders/order[@id = $id])
  return typeswitch ($order/@status)
    case $s as attribute() return
      if ($s = "placed")
      then snap replace { $s } with { attribute status { "shipped" } }
      else error(concat("order ", $id, " is not placeable: ", $s))
    default return error("no status")
};

declare function revenue($prices) {
  sum(for $o in $orders/order[@status = "shipped"]
      return number($prices/price[@sku = $o/@sku]/@amount) * number($o/@qty))
};
"""


@pytest.fixture
def shop() -> Engine:
    engine = Engine()
    engine.bind(
        "inventory",
        engine.parse_fragment(
            '<inventory><item sku="apple" stock="10"/>'
            '<item sku="pear" stock="2"/></inventory>'
        ),
    )
    engine.bind("orders", engine.parse_fragment("<orders/>"))
    engine.bind("audit", engine.parse_fragment("<audit/>"))
    engine.bind(
        "prices",
        engine.parse_fragment(
            '<prices><price sku="apple" amount="2"/>'
            '<price sku="pear" amount="5"/></prices>'
        ),
    )
    engine.load_module(SHOP_MODULE)
    return engine


class TestOrderFlow:
    def test_place_order_decrements_stock(self, shop):
        order = shop.execute('place-order("apple", 3)')
        assert 'status="placed"' in order.serialize()
        assert shop.execute('stock-of("apple")').first_value() == 7.0

    def test_order_ids_sequential(self, shop):
        shop.execute('place-order("apple", 1)')
        shop.execute('place-order("pear", 1)')
        ids = shop.execute("$orders/order/@id").strings()
        assert ids == ["1", "2"]

    def test_insufficient_stock_rejected(self, shop):
        result = shop.execute('place-order("pear", 99)')
        assert len(result) == 0
        assert shop.execute("count($audit/rejected)").first_value() == 1
        assert shop.execute('stock-of("pear")').first_value() == 2.0

    def test_ship_and_revenue(self, shop):
        shop.execute('place-order("apple", 3)')
        shop.execute('place-order("pear", 2)')
        shop.execute("ship-order(1)")
        shop.execute("ship-order(2)")
        # 3 apples * 2 + 2 pears * 5 = 16
        assert shop.execute("revenue($prices)").first_value() == 16.0

    def test_double_ship_errors(self, shop):
        shop.execute('place-order("apple", 1)')
        shop.execute("ship-order(1)")
        with pytest.raises(DynamicError):
            shop.execute("ship-order(1)")

    def test_transactional_batch_session_api(self, shop):
        # A rejected batch rolls back whole, including the first (valid)
        # order, without ever touching the live store.
        session = shop.session()
        with pytest.raises(DynamicError):
            with session.transaction() as txn:
                txn.execute('place-order("apple", 5)')
                txn.execute('place-order("pear", 99)')
                # Reject the whole batch if anything was rejected:
                txn.execute(
                    'if (exists($audit/rejected)) then error("batch") '
                    "else ()"
                )
        session.close()
        assert shop.execute("count($orders/order)").first_value() == 0
        assert shop.execute('stock-of("apple")').first_value() == 10.0

    def test_conflict_detection_on_independent_updates(self, shop):
        shop.execute('place-order("apple", 1)')
        shop.execute('place-order("pear", 1)')
        # Marking two different orders under conflict-detection is fine...
        shop.execute(
            """snap conflict-detection {
                 rename { $orders/order[@id = "1"] } to { "archived" },
                 rename { $orders/order[@id = "2"] } to { "archived" } }"""
        )
        assert shop.execute("count($orders/archived)").first_value() == 2
        # ...marking the same one twice is rejected.
        with pytest.raises(ConflictError):
            shop.execute(
                """snap conflict-detection {
                     rename { ($orders/archived)[1] } to { "a" },
                     rename { ($orders/archived)[1] } to { "b" } }"""
            )

    def test_report_query_optimizes(self, shop):
        for sku, qty in (("apple", 2), ("apple", 1), ("pear", 1)):
            shop.execute(f'place-order("{sku}", {qty})')
        report_query = """
            for $i in $inventory/item
            let $sold := for $o in $orders/order
                         where $o/@sku = $i/@sku
                         return $o
            return <line sku="{$i/@sku}" orders="{count($sold)}"/>
        """
        naive = interpreted(shop, report_query).serialize()
        optimized = shop.execute(report_query).serialize()
        assert naive == optimized
        assert 'orders="2"' in naive
        from repro.algebra.plan import plan_operators

        assert "GroupBy" in plan_operators(shop.compile(report_query))
