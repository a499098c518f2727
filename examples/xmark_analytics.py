#!/usr/bin/env python3
"""XMark analytics with side effects: the paper's Section 4.3 query.

For every person, count the auctions they won — and, as a side effect,
materialize a purchasers list.  Runs the query twice: as the naive
nested-loop plan (O(P*C)), built by hand from the query's pipeline, and
through ``Engine.execute``, which runs the rewritten outer-join/group-by
plan (O(P+C+M)); shows that plan, and verifies that values AND side
effects agree.
"""

import time

from repro import Engine
from repro.algebra.compile import decompose_pipeline, naive_plan
from repro.algebra.execute import execute_plan
from repro.algebra.plan import Snap, pretty_plan
from repro.lang.normalize import normalize
from repro.lang.parser import parse
from repro.xmark import XMarkConfig, generate_auction_xml

Q8_VARIANT = """
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                          itemid="{$t/itemref/@item}" /> }
          into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>
"""


def fresh_engine(xml: str) -> Engine:
    engine = Engine()
    engine.load_document("auction", xml)
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    return engine


def main() -> None:
    xml = generate_auction_xml(
        XMarkConfig(persons=150, items=80, closed_auctions=200)
    )

    print("=== the optimized plan (paper Section 4.3) ===")
    print(pretty_plan(fresh_engine(xml).compile(Q8_VARIANT)))
    print()

    naive = fresh_engine(xml)
    nested_loop = Snap(
        input=naive_plan(decompose_pipeline(normalize(parse(Q8_VARIANT))))
    )
    start = time.perf_counter()
    naive_items = execute_plan(nested_loop, naive.evaluator)
    naive_seconds = time.perf_counter() - start

    optimized = fresh_engine(xml)
    start = time.perf_counter()
    optimized_result = optimized.execute(Q8_VARIANT)
    optimized_seconds = time.perf_counter() - start

    print(f"naive nested-loop : {naive_seconds * 1000:8.1f} ms")
    print(f"outer-join/group-by: {optimized_seconds * 1000:8.1f} ms")
    print(f"speedup            : {naive_seconds / optimized_seconds:8.1f} x")
    print()

    same_value = naive.serialize(naive_items) == optimized_result.serialize()
    naive_buyers = naive.execute("count($purchasers/buyer)").first_value()
    optimized_buyers = optimized.execute("count($purchasers/buyer)").first_value()
    print("values identical   :", same_value)
    print("side effects       :", naive_buyers, "buyers both ways"
          if naive_buyers == optimized_buyers else "MISMATCH")
    print()
    print("first five rows:")
    for item in naive_items[:5]:
        print(" ", naive.serialize([item]))


if __name__ == "__main__":
    main()
