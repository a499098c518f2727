"""Integration: every literal code example from the paper, end to end."""

import pytest

from repro import Engine
from repro.xmark import XMarkConfig, generate_auction_xml


@pytest.fixture(scope="module")
def xml() -> str:
    return generate_auction_xml(
        XMarkConfig(persons=12, items=8, closed_auctions=15)
    )


@pytest.fixture
def e(xml) -> Engine:
    engine = Engine()
    engine.load_document("auction", xml)
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    engine.bind("log", engine.parse_fragment("<log/>"))
    engine.bind("archive", engine.parse_fragment("<archive/>"))
    engine.bind("maxlog", 100)
    return engine


class TestSection21SnapshotJoin:
    """The Section 2.1 join query inserting buyers per match."""

    QUERY = """
        for $p in $auction//person
        for $t in $auction//closed_auction
        where $t/buyer/@person = $p/@id
        return insert { <buyer person="{$t/buyer/@person}"
                               itemid="{$t/itemref/@item}" /> }
               into { $purchasers }
    """

    def test_inserts_one_buyer_per_closed_auction(self, e):
        e.execute(self.QUERY)
        buyers = e.execute("count($purchasers/buyer)").first_value()
        closed = e.execute("count($auction//closed_auction)").first_value()
        assert buyers == closed

    def test_buyer_attributes_populated(self, e):
        e.execute(self.QUERY)
        assert e.execute(
            "every $b in $purchasers/buyer satisfies "
            "(exists($b/@person) and exists($b/@itemid))"
        ).first_value() is True


class TestSection22GetItem:
    """get_item with and without logging (paper Section 2.2)."""

    def test_plain_get_item(self, e):
        e.load_module(
            """
            declare function get_item($itemid, $userid) {
              let $item := $auction//item[@id = $itemid]
              return $item
            };
            """
        )
        out = e.execute('get_item("item3", "person1")')
        assert 'id="item3"' in out.serialize()

    def test_logging_get_item(self, e):
        e.load_module(
            """
            declare function get_item($itemid, $userid) {
              let $item := $auction//item[@id = $itemid]
              return (
                let $name := $auction//person[@id = $userid]/name return
                insert { <logentry user="{$name}" itemid="{$itemid}"/> }
                into { $log },
                $item
              )
            };
            """
        )
        out = e.execute('get_item("item3", "person1")')
        assert 'id="item3"' in out.serialize()
        assert e.execute("count($log/logentry)").first_value() == 1
        entry = e.execute("$log/logentry").serialize()
        assert 'itemid="item3"' in entry


class TestSection23LogRollover:
    """The snap + maxlog variant (paper Section 2.3)."""

    MODULE = """
        declare function archivelog($log, $archive) {
          snap insert { <batch>{ $log/logentry }</batch> } into { $archive }
        };
        declare function get_item($itemid, $userid) {
          let $item := $auction//item[@id = $itemid]
          return (
            (let $name := $auction//person[@id = $userid]/name
             return
               (snap insert { <logentry user="{$name}"
                              itemid="{$itemid}"/> }
                     into { $log },
                if (count($log/logentry) >= $maxlog)
                then (archivelog($log, $archive),
                      snap delete { $log/logentry })
                else ())),
            $item
          )
        };
    """

    def test_rollover_happens_exactly_at_threshold(self, e):
        e.bind("maxlog", 2)
        e.load_module(self.MODULE)
        e.execute('get_item("item0", "person0")')
        assert e.execute("count($log/logentry)").first_value() == 1
        e.execute('get_item("item1", "person1")')
        # Second call hits maxlog: archived and cleared.
        assert e.execute("count($log/logentry)").first_value() == 0
        assert e.execute("count($archive/batch/logentry)").first_value() == 2


class TestSection25NextId:
    """The counter and its use in log entries (paper Section 2.5)."""

    def test_counter_module(self, e):
        e.load_module(
            """
            declare variable $d := element counter { 0 };
            declare function nextid() as xs:integer {
              snap { replace { $d/text() } with { $d + 1 },
                     $d }
            };
            """
        )
        values = [e.execute("data(nextid())").strings()[0] for _ in range(3)]
        assert values == ["1", "2", "3"]

    def test_logging_with_ids(self, e):
        e.load_module(
            """
            declare variable $d := element counter { 0 };
            declare function nextid() as xs:integer {
              snap { replace { $d/text() } with { $d + 1 },
                     $d }
            };
            """
        )
        e.execute(
            """
            let $name := $auction//person[@id = "person0"]/name
            return
              snap insert { <logentry id="{nextid()}"
                             user="{$name}"
                             itemid="item0"/> }
                   into { $log }
            """
        )
        assert e.execute("string($log/logentry/@id)").first_value() == "1"


class TestSection34SnapOrdering:
    """The <b/><a/><c/> example (paper Section 3.4)."""

    def test_bac_order(self, e):
        e.bind("x", e.parse_fragment("<x/>"))
        e.execute(
            """snap ordered { insert {<a/>} into {$x},
                              snap { insert {<b/>} into {$x} },
                              insert {<c/>} into {$x} }"""
        )
        assert e.execute("$x").serialize() == "<x><b/><a/><c/></x>"


class TestSection43OptimizedQuery:
    """The Q8 variant, interpreted vs optimized (paper Section 4.3)."""

    QUERY = """
        for $p in $auction//person
        let $a :=
          for $t in $auction//closed_auction
          where $t/buyer/@person = $p/@id
          return (insert { <buyer person="{$t/buyer/@person}"
                                  itemid="{$t/itemref/@item}" /> }
                  into { $purchasers }, $t)
        return <item person="{ $p/name }">{ count($a) }</item>
    """

    def test_row_per_person(self, e):
        out = e.execute(self.QUERY)
        persons = e.execute("count($auction//person)").first_value()
        assert len(out) == persons

    def test_counts_sum_to_closed_auctions(self, e):
        out = e.execute(self.QUERY)
        total = sum(int(item.string_value) for item in out.items)
        closed = e.execute("count($auction//closed_auction)").first_value()
        assert total == closed
