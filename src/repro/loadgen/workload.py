"""Seeded XMark workload mixes over the auction service.

A :class:`Workload` is a deterministic stream of :class:`Operation`
values drawn from a named mix over the auction service's endpoints
(Section 2's Web service, served by
:class:`~repro.usecases.webservice.AuctionFrontEnd`):

========================  =====  =============================================
operation                 class  runs as
========================  =====  =============================================
``get_item_nolog``        read   lock-free snapshot read through the executor
``highest_bid``           read   snapshot read (bid scan + aggregate)
``watchers``              read   snapshot read
``get_item``              write  logged lookup: snap-inserts a log entry
``place_bid``             txn    MVCC read-check-write transaction
``add_watch``             txn    MVCC idempotent insert
========================  =====  =============================================

Determinism: operation *i* is a pure function of ``(seed, i)`` — the
stream does not depend on how fast operations complete or in which
order their futures resolve, so two runs with one seed issue the same
operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: op name -> ("read" | "write" | "txn")
OP_CLASSES: dict[str, str] = {
    "get_item_nolog": "read",
    "highest_bid": "read",
    "watchers": "read",
    "get_item": "write",
    "place_bid": "txn",
    "add_watch": "txn",
}

#: mix name -> ((op name, weight), ...); weights need not sum to 1.
MIXES: dict[str, tuple[tuple[str, float], ...]] = {
    # The scoreboard mix: mostly reads, a steady trickle of logged
    # lookups and transactional writes — production-shaped traffic.
    "xmark-rw": (
        ("get_item_nolog", 0.55),
        ("highest_bid", 0.12),
        ("watchers", 0.08),
        ("get_item", 0.15),
        ("place_bid", 0.06),
        ("add_watch", 0.04),
    ),
    # Pure-read profile (snapshot path saturation).
    "xmark-read": (
        ("get_item_nolog", 0.70),
        ("highest_bid", 0.20),
        ("watchers", 0.10),
    ),
    # Write-heavy profile (write lock + journal + OCC pressure).
    "xmark-write": (
        ("get_item", 0.50),
        ("place_bid", 0.30),
        ("add_watch", 0.15),
        ("get_item_nolog", 0.05),
    ),
}


@dataclass(frozen=True)
class Operation:
    """One scheduled request: what to run and how to run it."""

    index: int
    name: str
    itemid: str
    userid: str
    amount: float | None = None

    @property
    def op_class(self) -> str:
        return OP_CLASSES[self.name]

    @property
    def query(self) -> str | None:
        """Query text for executor-routed operations (None for the
        transactional endpoints, which run through the session API)."""
        if self.name == "get_item_nolog":
            return "get_item_nolog($itemid, $userid)"
        if self.name == "get_item":
            return "get_item($itemid, $userid)"
        if self.name == "highest_bid":
            return "highest_bid($bids, $itemid)"
        if self.name == "watchers":
            return (
                "for $w in watchers($watchlist, $itemid) "
                "return string($w/@user)"
            )
        return None

    @property
    def bindings(self) -> dict:
        if self.name in ("get_item_nolog", "get_item"):
            return {"itemid": self.itemid, "userid": self.userid}
        return {"itemid": self.itemid}


class Workload:
    """A deterministic operation stream for one load run.

    Parameters:
        mix: a key of :data:`MIXES`.
        seed: RNG seed; two workloads with equal (mix, seed, items,
            persons) yield identical streams.
        items / persons: id ranges matching the served XMark document.
    """

    def __init__(
        self,
        mix: str = "xmark-rw",
        seed: int = 1,
        *,
        items: int = 40,
        persons: int = 50,
    ):
        if mix not in MIXES:
            raise ValueError(f"unknown mix {mix!r}; one of {sorted(MIXES)}")
        self.mix = mix
        self.seed = seed
        self.items = items
        self.persons = persons
        self._names = [name for name, _ in MIXES[mix]]
        self._weights = [weight for _, weight in MIXES[mix]]
        self._rng = random.Random(f"repro.loadgen:{mix}:{seed}")
        self._next_index = 0

    def operation(self) -> Operation:
        """The next operation in the stream."""
        rng = self._rng
        index = self._next_index
        self._next_index += 1
        name = rng.choices(self._names, weights=self._weights, k=1)[0]
        # A mild Zipf-ish skew (power draw) keeps some items hot, the
        # way real catalogs behave — hot reads exercise the result
        # cache, hot bids exercise OCC conflicts.
        item = int(self.items * rng.random() ** 2.0) % self.items
        person = rng.randrange(self.persons)
        amount = None
        if name == "place_bid":
            # Mostly-increasing amounts so a fraction of bids are
            # accepted (beat the high bid) and the rest roll back.
            amount = round(10.0 + index * 0.01 + rng.random() * 5.0, 2)
        return Operation(
            index=index,
            name=name,
            itemid=f"item{item}",
            userid=f"person{person}",
            amount=amount,
        )
