"""EventScheduler: ordering, seeded tie-breaks, cancellation, time."""

from __future__ import annotations

import time

import pytest

from repro.sim.scheduler import EventScheduler, VirtualClock


class TestOrdering:
    def test_events_run_in_virtual_time_order(self):
        scheduler = EventScheduler(1)
        ran: list[str] = []
        scheduler.call_at(0.3, lambda: ran.append("c"), label="c")
        scheduler.call_at(0.1, lambda: ran.append("a"), label="a")
        scheduler.call_at(0.2, lambda: ran.append("b"), label="b")
        scheduler.run()
        assert ran == ["a", "b", "c"]

    def test_clock_advances_to_each_event_then_to_until(self):
        scheduler = EventScheduler(1)
        seen: list[float] = []
        scheduler.call_at(0.5, lambda: seen.append(scheduler.clock.now()))
        scheduler.run(until=2.0)
        assert seen == [0.5]
        assert scheduler.clock.now() == 2.0

    def test_until_leaves_later_events_queued(self):
        scheduler = EventScheduler(1)
        ran: list[str] = []
        scheduler.call_at(1.0, lambda: ran.append("early"))
        scheduler.call_at(5.0, lambda: ran.append("late"))
        scheduler.run(until=2.0)
        assert ran == ["early"]
        assert len(scheduler) == 1
        scheduler.run()
        assert ran == ["early", "late"]

    def test_past_deadline_clamps_to_now(self):
        scheduler = EventScheduler(1)
        scheduler.call_at(1.0, lambda: None)
        scheduler.run()
        event = scheduler.call_at(0.25, lambda: None)  # already past
        assert event.when == scheduler.clock.now()

    def test_negative_delay_is_rejected(self):
        scheduler = EventScheduler(1)
        with pytest.raises(ValueError):
            scheduler.call_after(-0.1, lambda: None)


class TestDeterminism:
    @staticmethod
    def _simultaneous_run(seed: int) -> list[str]:
        scheduler = EventScheduler(seed)
        ran: list[str] = []
        for name in ("a", "b", "c", "d", "e"):
            scheduler.call_at(
                1.0, lambda n=name: ran.append(n), label=name
            )
        scheduler.run()
        return ran

    def test_same_seed_breaks_ties_identically(self):
        assert self._simultaneous_run(7) == self._simultaneous_run(7)

    def test_tie_break_is_owned_by_the_seed(self):
        # Across many seeds the simultaneous-event order must vary —
        # if it never does, insertion order is leaking through.
        orders = {tuple(self._simultaneous_run(seed)) for seed in range(20)}
        assert len(orders) > 1


class TestCancel:
    def test_cancelled_event_is_skipped(self):
        scheduler = EventScheduler(1)
        ran: list[str] = []
        keep = scheduler.call_at(0.1, lambda: ran.append("keep"))
        drop = scheduler.call_at(0.2, lambda: ran.append("drop"))
        drop.cancel()
        scheduler.run()
        assert ran == ["keep"]
        assert keep.when == 0.1

    def test_max_events_backstop(self):
        scheduler = EventScheduler(1)

        def reschedule() -> None:
            scheduler.call_after(0.01, reschedule)

        scheduler.call_after(0.01, reschedule)
        ran = scheduler.run(max_events=25)
        assert ran == 25


class TestVirtualClock:
    def test_starts_at_zero_and_jumps(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.sleep_until(12.5)
        assert clock.now() == 12.5

    def test_never_moves_backwards(self):
        clock = VirtualClock()
        clock.sleep_until(5.0)
        clock.sleep_until(1.0)  # a past deadline is a no-op
        assert clock.now() == 5.0

    def test_advance(self):
        clock = VirtualClock(start=2.0)
        clock.advance(3.0)
        assert clock.now() == 5.0

    def test_advance_refuses_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_no_wall_time_involved(self):
        # A "20 second" virtual schedule completes instantly.
        clock = VirtualClock()
        start = time.monotonic()
        for i in range(2000):
            clock.sleep_until(i * 0.01)
        assert clock.now() == pytest.approx(19.99)
        assert time.monotonic() - start < 1.0
