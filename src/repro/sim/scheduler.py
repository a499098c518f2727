"""The seeded event-loop scheduler that owns all simulated interleaving.

One heap of ``(virtual_time, tie, sequence)``-ordered events drives the
whole simulated cluster: network deliveries, ship/probe rounds,
workload arrivals, fault injections.  Nothing in the simulation blocks
— every wait is an event on this heap, and the heap pop order *is* the
cluster's interleaving.

Determinism comes from three properties:

* time is a :class:`VirtualClock` — it only moves
  when the scheduler pops an event, so wall-clock jitter cannot leak
  into ordering;
* ties (events scheduled for the same virtual instant) are broken by a
  random draw taken *at scheduling time* from a seeded stream, so the
  interleaving of simultaneous events is owned by the seed, not by
  insertion order accidents — yet is byte-for-byte reproducible;
* the final tiebreaker is a monotone sequence number, so even equal
  random draws order deterministically.

The same seed therefore replays the same event order exactly, which is
what makes a failing schedule a one-line repro
(``python -m repro.sim --seed N``).
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable


class VirtualClock:
    """Deterministic simulated time starting at 0.0.

    ``sleep_until`` jumps the clock forward instead of waiting; time
    never moves backwards (sleeping until a past deadline is a no-op).
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep_until(self, deadline: float) -> None:
        if deadline > self._now:
            self._now = deadline

    def advance(self, seconds: float) -> None:
        """Move time forward by *seconds* (negative values are refused)."""
        if seconds < 0:
            raise ValueError("virtual time cannot move backwards")
        self._now += seconds


class Event:
    """One scheduled callback; ``cancel()`` makes the pop a no-op."""

    __slots__ = ("when", "label", "callback", "cancelled")

    def __init__(self, when: float, label: str, callback: Callable[[], Any]):
        self.when = when
        self.label = label
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        return (
            f"Event(when={self.when:.6f}, label={self.label!r}, "
            f"cancelled={self.cancelled})"
        )


class EventScheduler:
    """A deterministic, seeded discrete-event scheduler.

    Parameters:
        seed: interleaving seed.  The tie-break stream is derived from
            it (``"{seed}:schedule"``), so the network's and workload's
            own streams (derived with different suffixes) stay
            independent — a schedule replayed with a hand-edited fault
            list still draws identical tie-breaks.
        clock: the shared :class:`VirtualClock` (one per simulation;
            hosts read it, only the scheduler advances it).
    """

    def __init__(self, seed: int, clock: VirtualClock | None = None):
        self.seed = seed
        self.clock = clock if clock is not None else VirtualClock()
        self.rng = random.Random(f"{seed}:schedule")
        self._heap: list[tuple[float, float, int, Event]] = []
        self._count = 0
        self.processed = 0

    # -- scheduling --------------------------------------------------------

    def call_at(
        self, when: float, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule *callback* at virtual time *when* (clamped to now)."""
        when = max(when, self.clock.now())
        event = Event(when, label, callback)
        self._count += 1
        heapq.heappush(
            self._heap, (when, self.rng.random(), self._count, event)
        )
        return event

    def call_after(
        self, delay: float, callback: Callable[[], Any], label: str = ""
    ) -> Event:
        """Schedule *callback* ``delay`` virtual seconds from now."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.call_at(self.clock.now() + delay, callback, label)

    def __len__(self) -> int:
        return len(self._heap)

    # -- running -----------------------------------------------------------

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Pop and run events in order; returns the number processed.

        Stops when the heap is empty, when the next event lies past
        *until* (that event stays queued), or after *max_events* (a
        runaway-loop backstop — a simulation that trips it is a bug).
        """
        ran = 0
        while self._heap:
            when, _tie, _count, event = self._heap[0]
            if until is not None and when > until:
                break
            heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.sleep_until(when)
            event.callback()
            ran += 1
            self.processed += 1
            if max_events is not None and ran >= max_events:
                break
        if until is not None:
            # Even an idle stretch moves time to the horizon asked for.
            self.clock.sleep_until(until)
        return ran

    def __repr__(self) -> str:
        return (
            f"EventScheduler(seed={self.seed}, now={self.clock.now():.3f}, "
            f"pending={len(self._heap)}, processed={self.processed})"
        )
