"""Virtual clock and event queue."""

import pytest

from repro.errors import ConfigError
from repro.sim.clock import EventQueue, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_custom_start(self):
        assert VirtualClock(500).now == 500

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(1000)
        assert clock.now == 1000

    def test_no_backwards(self):
        clock = VirtualClock(100)
        with pytest.raises(ConfigError):
            clock.advance_to(50)

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            VirtualClock(-1)


class TestEventQueue:
    def test_one_shot_fires_at_time(self):
        queue = EventQueue()
        fired = []
        queue.schedule_at(100, lambda now: fired.append(now))
        queue.run_until(99)
        assert fired == []
        queue.run_until(100)
        assert fired == [100]

    def test_schedule_after(self):
        queue = EventQueue()
        fired = []
        queue.run_until(50)
        queue.schedule_after(25, lambda now: fired.append(now))
        queue.run_until(100)
        assert fired == [75]

    def test_cannot_schedule_in_past(self):
        queue = EventQueue()
        queue.run_until(100)
        with pytest.raises(ConfigError):
            queue.schedule_at(50, lambda now: None)

    def test_same_time_fires_in_registration_order(self):
        queue = EventQueue()
        order = []
        queue.schedule_at(10, lambda now: order.append("a"))
        queue.schedule_at(10, lambda now: order.append("b"))
        queue.schedule_at(10, lambda now: order.append("c"))
        queue.run_until(10)
        assert order == ["a", "b", "c"]

    def test_clock_reaches_deadline_with_empty_queue(self):
        queue = EventQueue()
        queue.run_until(12345)
        assert queue.clock.now == 12345

    def test_periodic_fires_every_period(self):
        queue = EventQueue()
        fired = []
        queue.schedule_periodic(10, lambda now: fired.append(now))
        queue.run_until(35)
        assert fired == [10, 20, 30]

    def test_periodic_phase_offsets_first_firing(self):
        queue = EventQueue()
        fired = []
        queue.schedule_periodic(10, lambda now: fired.append(now), phase=3)
        queue.run_until(25)
        assert fired == [13, 23]

    def test_periodic_cancel(self):
        queue = EventQueue()
        fired = []
        event = queue.schedule_periodic(10, lambda now: fired.append(now))
        queue.run_until(25)
        event.cancel()
        queue.run_until(100)
        assert fired == [10, 20]

    def test_cancel_inside_callback_stops_rescheduling(self):
        queue = EventQueue()
        fired = []
        holder = {}

        def callback(now):
            fired.append(now)
            if len(fired) == 2:
                holder["event"].cancel()

        holder["event"] = queue.schedule_periodic(10, callback)
        queue.run_until(100)
        assert fired == [10, 20]

    def test_zero_period_rejected(self):
        queue = EventQueue()
        with pytest.raises(ConfigError):
            queue.schedule_periodic(0, lambda now: None)

    def test_period_change_takes_effect_lazily(self):
        # The firing at t=10 already queued its successor at t=20 with
        # the old period; the new period applies from there on.
        queue = EventQueue()
        fired = []
        event = queue.schedule_periodic(10, lambda now: fired.append(now))
        queue.run_until(10)
        event.period = 20
        queue.run_until(70)
        assert fired == [10, 20, 40, 60]

    def test_run_for_is_relative(self):
        queue = EventQueue()
        queue.run_until(100)
        fired = []
        queue.schedule_periodic(30, lambda now: fired.append(now))
        queue.run_for(60)
        assert fired == [130, 160]

    def test_events_scheduled_by_events_run_same_pass(self):
        queue = EventQueue()
        fired = []

        def outer(now):
            queue.schedule_at(now + 5, lambda t: fired.append(("inner", t)))
            fired.append(("outer", now))

        queue.schedule_at(10, outer)
        queue.run_until(20)
        assert fired == [("outer", 10), ("inner", 15)]

    def test_dispatch_count(self):
        queue = EventQueue()
        queue.schedule_at(1, lambda now: None)
        queue.schedule_at(2, lambda now: None)
        assert queue.run_until(10) == 2

    def test_len_reflects_pending(self):
        queue = EventQueue()
        queue.schedule_at(5, lambda now: None)
        assert len(queue) == 1
        queue.run_until(5)
        assert len(queue) == 0


class TestCoalescingPeriodic:
    """A ``coalesce=True`` periodic gets runs of firings as ``(now, n)``
    blocks: never past another queued entry, never past a deadline."""

    @staticmethod
    def flatten(blocks, period):
        return [now + i * period for now, n in blocks for i in range(n)]

    def test_block_stops_before_same_instant_and_later_entries(self):
        queue = EventQueue()
        log = []
        queue.schedule_at(50, lambda now: log.append(("x", now)))
        queue.schedule_at(75, lambda now: log.append(("y", now)))
        queue.schedule_periodic(10, lambda now, n: log.append(("p", now, n)), coalesce=True)
        assert queue.run_until(100) == 2 + 10
        # x at 50 was queued first, so it wins the tie with the firing
        # at 50; y at 75 falls between firings.
        assert log == [
            ("p", 10, 4),
            ("x", 50),
            ("p", 50, 3),
            ("y", 75),
            ("p", 80, 3),
        ]

    def test_block_stops_at_the_deadline_inclusive(self):
        queue = EventQueue()
        blocks = []
        queue.schedule_periodic(
            10, lambda now, n: blocks.append((now, n)), name="tick", coalesce=True
        )
        assert queue.run_until(30) == 3
        assert blocks == [(10, 3)]
        assert queue.clock.now == 30
        assert queue.run_until(35) == 0
        assert queue.run_until(40) == 1
        assert blocks == [(10, 3), (40, 1)]
        assert queue.pending_periodics() == [("tick", 50, 10)]

    @staticmethod
    def drive(deadlines, coalesce):
        """A sampling-like periodic (5 ms) beside aggregation-like (100 ms)
        and epoch-like (100 ms, registered later) periodics; returns the
        per-firing log and the summed dispatch count."""
        queue = EventQueue()
        log = []
        if coalesce:
            queue.schedule_periodic(
                5000,
                lambda now, n: log.extend(("s", now + i * 5000) for i in range(n)),
                coalesce=True,
            )
        else:
            queue.schedule_periodic(5000, lambda now: log.append(("s", now)))
        queue.schedule_periodic(100_000, lambda now: log.append(("a", now)))
        queue.schedule_periodic(100_000, lambda now: log.append(("e", now)))
        dispatched = sum(queue.run_until(deadline) for deadline in deadlines)
        return log, dispatched, queue.pending_periodics()

    def test_stepping_matches_one_big_run_until(self):
        end = 1_000_000
        one_shot = self.drive([end], coalesce=True)
        stepped = self.drive(list(range(7000, end, 7000)) + [end], coalesce=True)
        per_tick = self.drive([end], coalesce=False)
        assert one_shot[0] == stepped[0] == per_tick[0]
        assert one_shot[1] == stepped[1] == per_tick[1] == len(per_tick[0])
        assert one_shot[2] == stepped[2] == per_tick[2]

    def test_pending_periodics_match_a_non_coalescing_queue(self):
        for end in (95_000, 100_000, 123_000, 500_000):
            assert self.drive([end], True)[2] == self.drive([end], False)[2]

    def test_cancel_inside_the_callback(self):
        queue = EventQueue()
        blocks = []
        holder = {}

        def callback(now, n):
            blocks.append((now, n))
            if len(blocks) == 2:
                holder["event"].cancel()

        holder["event"] = queue.schedule_periodic(10, callback, coalesce=True)
        queue.schedule_at(35, lambda now: None)
        queue.run_until(200)
        # The cancel lands after the second block's last firing.
        assert blocks == [(10, 3), (40, 17)]
        assert len(queue) == 0

    def test_period_change_inside_the_callback(self):
        # The new period applies from the block's last firing, as it
        # would from the last of the separate firings.
        queue = EventQueue()
        blocks = []
        holder = {}

        def callback(now, n):
            blocks.append((now, n))
            holder["event"].period = 20

        holder["event"] = queue.schedule_periodic(10, callback, coalesce=True)
        queue.schedule_at(35, lambda now: None)
        queue.run_until(110)
        assert blocks == [(10, 3), (50, 4)]
        assert self.flatten(blocks[1:], 20) == [50, 70, 90, 110]

    def test_period_change_between_steps_applies_lazily(self):
        queue = EventQueue()
        blocks = []
        event = queue.schedule_periodic(
            10, lambda now, n: blocks.append((now, n)), coalesce=True
        )
        queue.run_until(10)
        event.period = 20
        queue.run_until(70)
        assert blocks == [(10, 1), (20, 3)]
        assert self.flatten(blocks[1:], 20) == [20, 40, 60]

    def test_cancelled_entries_are_still_respected_as_boundaries(self):
        queue = EventQueue()
        blocks = []
        other = queue.schedule_periodic(25, lambda now: None)
        other.cancel()
        queue.schedule_periodic(10, lambda now, n: blocks.append((now, n)), coalesce=True)
        queue.run_until(60)
        assert self.flatten(blocks, 10) == [10, 20, 30, 40, 50, 60]
