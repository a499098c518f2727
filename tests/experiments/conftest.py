"""Shared fixtures for the paper-shape experiments.

The paper has no numeric tables; its measurable claims are complexity
statements.  The tests in this package restate each one as counts that
repeat exactly from run to run (tracer counters, table sizes, evaluation
steps), so they need no clock and no tolerance for host noise.
"""

from __future__ import annotations

import pytest

from repro import Engine
from repro.xmark import XMarkConfig, generate_auction_xml


def _auction_engine(
    persons: int, closed: int, items: int | None = None, seed: int = 20060329
) -> Engine:
    config = XMarkConfig(
        persons=persons,
        items=items if items is not None else max(2, persons // 2),
        open_auctions=max(2, persons // 3),
        closed_auctions=closed,
        seed=seed,
    )
    engine = Engine()
    engine.load_document("auction", generate_auction_xml(config))
    engine.bind("purchasers", engine.parse_fragment("<purchasers/>"))
    engine.bind("log", engine.parse_fragment("<log/>"))
    engine.bind("archive", engine.parse_fragment("<archive/>"))
    engine.bind("maxlog", 10)
    return engine


@pytest.fixture
def auction_engine():
    """Factory: ``auction_engine(persons, closed)`` returns a fresh engine
    loaded with a generated auction document plus the $purchasers / $log
    / $archive targets the paper's queries use."""
    return _auction_engine
