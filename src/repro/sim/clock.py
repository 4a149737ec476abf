"""Discrete-event virtual time.

All components of the reproduction — workload epochs, monitor sampling
ticks, aggregation callbacks, scheme application — are events on a single
virtual clock measured in integer microseconds.  Running the paper's
experiments (hundreds of seconds of monitored execution at a 5 ms sampling
interval) therefore costs only as much wall time as the handlers
themselves.

A periodic event may opt in to *coalescing*: when nothing else is queued
between its firings, the queue hands the callback the whole run of them
(a *block*) in one call.  The monitor's sampling ticks use it — twenty
ticks per aggregation interval read the same kernel state and fuse into
one vectorised pass (see :meth:`EventQueue.schedule_periodic`).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..errors import CheckpointError, ConfigError

__all__ = ["VirtualClock", "EventQueue", "PeriodicEvent"]


class VirtualClock:
    """A monotonically advancing virtual clock in microseconds."""

    __slots__ = ("_now",)

    def __init__(self, start: int = 0):
        if start < 0:
            raise ConfigError(f"clock cannot start at negative time: {start}")
        self._now = int(start)

    @property
    def now(self) -> int:
        """Current virtual time in microseconds."""
        return self._now

    def advance_to(self, when: int) -> None:
        """Move the clock forward to ``when``; moving backwards is a bug."""
        if when < self._now:
            raise ConfigError(
                f"clock cannot move backwards: {when} < {self._now}"
            )
        self._now = int(when)


class PeriodicEvent:
    """Handle for a repeating event registered on an :class:`EventQueue`.

    The period may be changed on the fly (the monitor's regions-update
    interval is reconfigurable at runtime in upstream DAMON); cancellation
    is lazy — the queue drops cancelled entries when they surface.
    A ``coalesce`` event's callback takes ``(now, n)``: ``n`` firings at
    ``now, now + period, …`` in one call.
    """

    __slots__ = ("callback", "period", "cancelled", "name", "coalesce")

    def __init__(
        self,
        callback: Callable[..., None],
        period: int,
        name: str = "",
        coalesce: bool = False,
    ):
        if period <= 0:
            raise ConfigError(f"event period must be positive: {period}")
        self.callback = callback
        self.period = int(period)
        self.cancelled = False
        self.name = name or getattr(callback, "__name__", "event")
        self.coalesce = coalesce

    def cancel(self) -> None:
        """Stop future firings (lazily dropped from the queue)."""
        self.cancelled = True


class EventQueue:
    """Priority queue of timed callbacks driving a :class:`VirtualClock`.

    Events scheduled for the same instant fire in registration order,
    which keeps runs bit-for-bit reproducible.
    """

    def __init__(self, clock: Optional[VirtualClock] = None):
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list = []
        self._counter = itertools.count()
        # The current run_until deadline (no block may cross it) and the
        # firings beyond the first that blocks dispatched under it.
        self._deadline = self.clock.now
        self._extra_firings = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(self, when: int, callback: Callable[[int], None]) -> None:
        """Run ``callback(now)`` once at virtual time ``when``."""
        self._schedule(when, callback, None)

    def _schedule(
        self,
        when: int,
        callback: Callable[[int], None],
        event: Optional[PeriodicEvent],
    ) -> None:
        if when < self.clock.now:
            raise ConfigError(
                f"cannot schedule in the past: {when} < {self.clock.now}"
            )
        heapq.heappush(
            self._heap, (int(when), next(self._counter), callback, event)
        )

    def schedule_after(self, delay: int, callback: Callable[[int], None]) -> None:
        """Run ``callback(now)`` once ``delay`` microseconds from now."""
        self.schedule_at(self.clock.now + int(delay), callback)

    def schedule_periodic(
        self,
        period: int,
        callback: Callable[..., None],
        *,
        phase: int = 0,
        name: str = "",
        first_at: Optional[int] = None,
        coalesce: bool = False,
    ) -> PeriodicEvent:
        """Run ``callback(now)`` every ``period`` microseconds.

        ``phase`` offsets the first firing from the current time; the
        monitor uses it so that sampling, aggregation and regions-update
        ticks interleave in the same order as the upstream kdamond loop
        (sampling first, then aggregation, then regions update).

        ``first_at`` pins the first firing to an absolute virtual time
        instead — checkpoint restore uses it to re-register each pending
        periodic at exactly the instant the interrupted run would have
        fired it, preserving same-instant tie order via registration
        order.

        ``coalesce=True`` makes the callback take ``(now, n)``.  When
        the queue pops a firing at ``now`` it counts the firings
        ``now, now + period, …`` that are strictly earlier than the
        earliest other queued entry and no later than the current
        :meth:`run_until` deadline (at least one), hands all ``n`` over
        in one call and queues the next firing after the last.  Any
        entry already queued has a lower sequence number than the
        event's later pushes, so it would have won a same-instant tie
        anyway; and since blocks never cross a deadline, every pause
        between :meth:`run_until` steps sees exactly the state of
        one-at-a-time dispatch.  The callback must treat the block as
        ``n`` consecutive firings and must not schedule events itself.
        A cancel or period change inside it takes effect after the
        block's last firing.
        """
        event = PeriodicEvent(callback, period, name=name, coalesce=coalesce)

        if coalesce:

            def fire(now: int, _event=event) -> None:
                if _event.cancelled:
                    return
                step = _event.period
                limit = self._deadline
                if self._heap and self._heap[0][0] <= limit:
                    limit = self._heap[0][0] - 1
                n = max(1, (limit - now) // step + 1)
                self._extra_firings += n - 1
                _event.callback(now, n)
                if not _event.cancelled:
                    self._schedule(now + (n - 1) * step + _event.period, fire, _event)

        else:

            def fire(now: int, _event=event) -> None:
                if _event.cancelled:
                    return
                _event.callback(now)
                if not _event.cancelled:
                    self._schedule(now + _event.period, fire, _event)

        when = first_at if first_at is not None else self.clock.now + phase + event.period
        self._schedule(when, fire, event)
        return event

    def pending_periodics(self) -> List[Tuple[str, int, int]]:
        """Snapshot the pending heap as ``(name, next_fire, period)`` rows.

        Rows come back in dispatch order — ``(when, seq)`` — so replaying
        them through :meth:`schedule_periodic` with ``first_at`` restores
        identical same-instant tie-breaking.  Cancelled entries are
        skipped; a pending *one-shot* entry has no handle to re-register
        from, so checkpointing with one in flight is an error.
        """
        rows: List[Tuple[str, int, int]] = []
        for when, seq, _callback, event in sorted(
            self._heap, key=lambda entry: (entry[0], entry[1])
        ):
            if event is None:
                raise CheckpointError(
                    f"cannot snapshot queue: one-shot event pending at t={when}"
                )
            if event.cancelled:
                continue
            rows.append((event.name, int(when), int(event.period)))
        return rows

    def run_until(self, deadline: int) -> int:
        """Dispatch events up to and including ``deadline``.

        Returns the number of events dispatched, counting each firing of
        a coalesced block.  The clock finishes at ``deadline`` even if
        the queue drains earlier.
        """
        self._deadline = deadline
        self._extra_firings = 0
        dispatched = 0
        while self._heap and self._heap[0][0] <= deadline:
            when, _seq, callback, _ = heapq.heappop(self._heap)
            self.clock.advance_to(when)
            callback(when)
            dispatched += 1
        self.clock.advance_to(max(self.clock.now, deadline))
        return dispatched + self._extra_firings

    def run_for(self, duration: int) -> int:
        """Dispatch events for ``duration`` microseconds of virtual time."""
        return self.run_until(self.clock.now + int(duration))
