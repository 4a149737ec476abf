"""The monitoring core: a faithful port of the kdamond control loop.

Per sampling interval the monitor checks one sample page per region
(``check_accesses``) and immediately picks and clears the next sample
page (``prepare_access_checks``).  Sampling ticks that no other event
separates read the same kernel state, so the event queue hands them
over as one block and :meth:`DataAccessMonitor.sample_tick` runs them as
one vectorised pass, byte-identical to one tick at a time.  Per
aggregation interval it runs, in upstream order:

1. **merge** adjacent regions with similar access counts — this pass
   also applies the *aging* rule (stable count → ``age += 1``, changed
   count → ``age = 0``);
2. **callbacks** receive a frozen :class:`~repro.monitor.snapshot.Snapshot`;
3. **schemes** are applied by the attached engine (if any);
4. **reset** of the per-region counters (current → ``last_nr_accesses``);
5. **split** of each region into 2 (or 3) randomly sized subregions,
   skipped when it would exceed ``max_nr_regions``;
6. **prepare** the next sample round over the fresh region list.  The
   sampling tick due at the same instant fires right after this, so it
   checks pages over a 0 µs window and never finds an accessed bit: of
   the ``attrs.max_nr_accesses`` checks charged per interval, an
   always-hot region reads at most ``max_nr_accesses - 1``.

The merge size limit (total target size / ``min_nr_regions``) guarantees
at least ``min_nr_regions`` regions survive merging; the split guard
keeps the count at or below ``max_nr_regions``.  Together they bound the
overhead from above and the accuracy from below, independent of the size
of the monitored memory — the paper's central mechanism.

Region state lives in a struct-of-arrays
:class:`~repro.perf.regionarray.RegionArray`; ``monitor.regions`` hands
out write-through :class:`~repro.perf.regionarray.RegionView` objects
(cached per structural generation, so an unchanged monitor returns the
same list — and the same views — across reads).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ..errors import MonitorStateError
from ..perf.regionarray import MIN_REGION_SIZE, RegionArray
from ..sim.clock import EventQueue
from ..trace.bus import TraceBus
from ..trace.events import AccessSampled, RegionsAggregated
from .attrs import MonitorAttrs
from .primitives import MonitoringPrimitive
from .snapshot import Snapshot

__all__ = ["DataAccessMonitor"]


def _slots(draws: np.ndarray, ticks: int, stride: int, lo: int, hi: int) -> np.ndarray:
    """Slots ``[lo, hi)`` of each tick's ``stride`` draws, flat and
    tick-major (a view for a single tick)."""
    if ticks == 1:
        return draws[lo:hi]
    return draws.reshape(ticks, stride)[:, lo:hi].ravel()


class DataAccessMonitor:
    """One monitoring context over one primitive (≈ upstream damon_ctx)."""

    def __init__(
        self,
        primitive: MonitoringPrimitive,
        attrs: Optional[MonitorAttrs] = None,
        *,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
        faults=None,
    ):
        self.primitive = primitive
        self.attrs = attrs if attrs is not None else MonitorAttrs()
        #: Optional trace bus; sampling/aggregation ticks emit through it.
        self.trace = trace
        #: Optional :class:`repro.faults.FaultInjector` shared with the
        #: run; the sampler consults it for dropped ticks and flaky bits.
        self.faults = faults
        #: Optional :class:`repro.sanitize.SimSanitizer`, attached by the
        #: experiment driver after construction (legacy-oracle-safe).
        self.sanitizer = None
        self.rng = np.random.default_rng(seed)
        self.callbacks: List[Callable[[Snapshot], None]] = []
        self.raw_callbacks: List = []
        self.engine = None  # attached SchemesEngine, if any
        self.running = False
        # View cache for the ``regions`` property (see below).
        self._views: Optional[List] = None
        self._views_generation = -1
        self.regions = RegionArray()  # the setter also resets sampling
        # Sampling state: addresses whose accessed bits were cleared at
        # _pending_since, to be checked at the next sampling tick.
        self._pending_since = 0
        self._seen_generation: Optional[int] = None
        # Split heuristic state (upstream: split into 3 when the region
        # count has been stuck low for two consecutive aggregations).
        self._last_nr_regions = 0
        # Lifetime statistics.
        self.total_checks = 0
        self.total_aggregations = 0
        self.total_splits = 0
        self.total_merges = 0
        self._events = []

    # ------------------------------------------------------------------
    # Region storage: struct-of-arrays with an object-view façade
    # ------------------------------------------------------------------
    @property
    def regions(self) -> List:
        """The region list as write-through views over the backing
        :class:`RegionArray`.  The list (and its elements) is cached and
        reused until the next structural change, so callers holding a
        reference across a no-op tick see the identical objects."""
        if self._views is None or self._views_generation != self._ra.generation:
            self._views = self._ra.views()
            self._views_generation = self._ra.generation
        return self._views

    @regions.setter
    def regions(self, value: RegionArray) -> None:
        """Install a new region table (region init, layout updates and
        tests assign here); resets the sampling state."""
        self._ra = value
        self._views = None
        self._views_generation = -1
        self._addrs: Optional[np.ndarray] = None
        self._acc = np.zeros(self._ra.n, dtype=np.int64)
        self._wacc = np.zeros(self._ra.n, dtype=np.int64)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register_callback(self, callback: Callable[[Snapshot], None]) -> None:
        """Register an aggregation callback (invoked before counter reset)."""
        self.callbacks.append(callback)

    def register_raw_callback(self, callback) -> None:
        """Register a callback receiving ``(monitor, now)`` instead of a
        frozen snapshot.  Raw callbacks avoid the per-aggregation cost of
        materialising a snapshot; they must not mutate the region list."""
        self.raw_callbacks.append(callback)

    def attach_engine(self, engine) -> None:
        """Attach a schemes engine, applied at every aggregation."""
        self.engine = engine

    def start(self, queue: EventQueue) -> None:
        """Initialise regions and register periodic ticks on ``queue``.

        Registration order matters: sampling before aggregation before
        regions-update, so simultaneous ticks fire in kdamond order.
        """
        if self.running:
            raise MonitorStateError("monitor already running")
        self.init_regions()
        a = self.attrs
        periods = {
            "sample": a.sampling_interval_us,
            "aggregate": a.aggregation_interval_us,
            "update": a.regions_update_interval_us,
        }
        self._events = [
            queue.schedule_periodic(periods[name], tick, name=name, coalesce=coalesce)
            for name, (tick, coalesce) in self.tick_handlers().items()
        ]
        self.running = True

    def stop(self) -> None:
        """Cancel the periodic ticks; the region state is kept."""
        for event in self._events:
            event.cancel()
        self._events = []
        self.running = False

    def tick_handlers(self) -> dict:
        """Periodic-name → ``(bound tick, coalesce)`` in :meth:`start`'s
        registration order.  Checkpoint restore uses it to re-register
        the monitor's pending ticks on a fresh queue.  Sampling ticks
        coalesce into blocks unless a fault injector is attached: its
        hooks draw and stamp their events per tick."""
        return {
            "sample": (self.sample_tick, self.faults is None),
            "aggregate": (self.aggregate_tick, False),
            "update": (self.regions_update_tick, False),
        }

    def adopt_events(self, events) -> None:
        """Adopt re-registered periodic handles after a checkpoint
        restore.  Unlike :meth:`start` this must *not* re-derive the
        region layout — the restored RegionArray (ages, access counts,
        sampling addresses) is the monitor's state."""
        if self.running:
            raise MonitorStateError("monitor already running")
        self._events = list(events)
        self.running = True

    # ------------------------------------------------------------------
    # Region initialisation and layout updates
    # ------------------------------------------------------------------
    def init_regions(self) -> None:
        """Derive initial regions: each target range evenly split so the
        total lands near ``min_nr_regions`` (upstream damon_va_init)."""
        ranges = self.primitive.target_ranges()
        self._seen_generation = self.primitive.layout_generation()
        total = sum(end - start for start, end in ranges)
        bounds: List[Tuple[int, int]] = []
        for start, end in ranges:
            share = max(1, round(self.attrs.min_nr_regions * (end - start) / total))
            bounds.extend(self._evenly_split(start, end, share))
        self.regions = RegionArray.from_bounds(bounds)

    @staticmethod
    def _evenly_split(start: int, end: int, pieces: int) -> List[Tuple[int, int]]:
        size = end - start
        pieces = max(1, min(pieces, size // MIN_REGION_SIZE))
        if pieces <= 1:
            return [(start, end)]
        step = (size // pieces) & ~(MIN_REGION_SIZE - 1)
        step = max(step, MIN_REGION_SIZE)
        out = []
        cursor = start
        for _ in range(pieces - 1):
            if end - (cursor + step) < MIN_REGION_SIZE:
                break
            out.append((cursor, cursor + step))
            cursor += step
        out.append((cursor, end))
        return out

    def regions_update_tick(self, now: int) -> None:
        """Re-derive target ranges when the layout changed (mmap/munmap,
        hotplug); surviving regions keep their counters."""
        generation = self.primitive.layout_generation()
        if generation == self._seen_generation:
            return
        self._seen_generation = generation
        ranges = self.primitive.target_ranges()
        self.regions = self._ra.clip(ranges)
        if self._ra.n == 0:
            self.init_regions()
        self._reset_sampling_state(now)

    def _reset_sampling_state(self, now: Optional[int] = None) -> None:
        """Clear the accumulators; with ``now`` given, also prepare the
        next sample round immediately (pick and "clear" sample pages),
        so no sampling tick is spent merely preparing."""
        self._acc = np.zeros(self._ra.n, dtype=np.int64)
        self._wacc = np.zeros(self._ra.n, dtype=np.int64)
        if now is None:
            self._addrs = None
        else:
            self._addrs = self._ra.pick_sampling_addrs(self.rng)
            self._pending_since = now

    # ------------------------------------------------------------------
    # Sampling ticks: check previous sample pages, prepare the next
    # ------------------------------------------------------------------
    def sample_tick(self, now: int, n: int = 1) -> None:
        """``n`` consecutive sampling intervals, at ``now, now + p, …``
        for ``p`` the sampling interval: each checks the pending sample
        pages, then picks (and clears) the next round's.

        The event queue coalesces the sampling periodic, so ``n`` ticks
        arrive as one block only when no other event separates them:
        they all read the same kernel state, and the block costs one RNG
        draw and one probability lookup.  The result is byte-identical to
        ``n`` single-tick calls.  Each tick draws ``[hits | write hits |
        next addresses]``, one float64 per region each (a tick with
        nothing to check draws only its addresses), and PCG64 fills one
        array element per output, so one draw over the block yields the
        same stream as per-tick draws.
        """
        ra = self._ra
        r = ra.n
        period = self.attrs.sampling_interval_us
        faults = self.faults
        if faults is not None and n != 1:
            raise MonitorStateError("a monitor with fault hooks samples one tick at a time")
        # An injected drop_sample fault loses the whole tick's checks
        # (a missed kdamond wakeup): counters stay put, the next sample
        # round is still prepared.
        pending = self._addrs
        if (faults is not None and faults.drop_sample_tick(now)) or (
            pending is not None and pending.size != r
        ):
            pending = None
        first = int(pending is None)  # the first tick that checks pages
        stride = (3 if self.attrs.track_writes else 2) * r
        draws = self.rng.random(n * stride - first * (stride - r))
        if first:
            # Pad tick 0's unused check slots: one row of draws per tick.
            draws = np.concatenate((np.zeros(stride - r), draws))
        # Every array below is flat and tick-major, R entries per tick.
        # Tick i picks the pages tick i + 1 checks.
        picks = ra.sampling_addrs(_slots(draws, n, stride, stride - r, stride))
        checking = n - first
        hits = whits = None
        if checking:
            if first:
                checked = picks[: (n - 1) * r]
            elif n == 1:
                checked = pending
            else:
                checked = np.concatenate((pending, picks[: (n - 1) * r]))
            # Pages picked at the previous tick read one sampling period.
            window = period if first else now - self._pending_since
            probe = self._probe
            probs = probe(self.primitive.access_probabilities, checked, r, window, period)
            draws = draws[first * stride :]
            hits = _slots(draws, checking, stride, 0, r) < probs
            flaky = faults.flaky_bit_mask(now, r) if faults is not None else None
            if flaky is not None:
                # A lost PTE read clears both channels of the sample.
                hits &= ~flaky
            self._acc += hits if checking == 1 else hits.reshape(checking, r).sum(axis=0)
            if self.attrs.track_writes:
                wprobs = probe(self.primitive.write_probabilities, checked, r, window, period)
                whits = _slots(draws, checking, stride, r, 2 * r) < wprobs
                if flaky is not None:
                    whits &= ~flaky
                self._wacc += whits if checking == 1 else whits.reshape(checking, r).sum(axis=0)
            self.total_checks += checking * r
        self._addrs = picks[(n - 1) * r :]
        self._pending_since = now + (n - 1) * period

        tr = self.trace
        emit = tr is not None and tr.wants(AccessSampled)
        if emit:
            hit_counts, whit_counts = (
                [0] * checking if bits is None else bits.reshape(checking, r).sum(axis=1).tolist()
                for bits in (hits, whits)
            )
        charge = self.primitive.charge_checks
        for i in range(n):
            checks = r if i >= first else 0
            # The kdamond wakeup itself costs CPU even on a tick that
            # only prepares the next sample round.
            charge(checks, wakeups=1)
            if emit:
                j = i - first
                tr.emit(
                    AccessSampled(
                        time_us=tr.now + i * period,
                        nr_regions=r,
                        checked=checks,
                        hits=hit_counts[j] if j >= 0 else 0,
                        write_hits=whit_counts[j] if j >= 0 else 0,
                    )
                )
        if tr is not None and not emit:
            tr.count(AccessSampled, n, period)

    @staticmethod
    def _probe(lookup, addrs: np.ndarray, r: int, window: int, period: int) -> np.ndarray:
        """A primitive's ``lookup`` (access or write probabilities) over
        the flat sample addresses of consecutive ticks, ``r`` per tick:
        the first tick's read over ``window``, later ones' over one
        sampling ``period``."""
        if window == period or len(addrs) == r:
            return lookup(addrs, window)
        return np.concatenate((lookup(addrs[:r], window), lookup(addrs[r:], period)))

    # ------------------------------------------------------------------
    # Aggregation tick: merge/age → callbacks → schemes → reset → split
    # ------------------------------------------------------------------
    def aggregate_tick(self, now: int) -> None:
        """One aggregation interval: merge/age, callbacks, schemes,
        counter reset, split, next-round prepare — in upstream kdamond
        order."""
        # Publish accumulated counts (and the last pending sample
        # addresses, for introspection) into the region table.  Raises
        # MonitorStateError if the accumulators have diverged in length
        # from the region list (a callback mutating regions mid-interval
        # used to be silently zip-truncated here).
        addrs = self._addrs
        if addrs is not None and addrs.size != self._ra.n:
            addrs = None
        self._ra.publish(self._acc, self._wacc, addrs)
        max_seen = int(self._acc.max()) if self._acc.size else 0

        threshold = max(1, max_seen // 10)
        merges_before = self.total_merges
        self._merge_regions(threshold)
        tr = self.trace
        if tr is not None:
            if tr.wants(RegionsAggregated):
                # Emitted after merge/age and before callbacks, so bus
                # subscribers see the same region state snapshots do.
                tr.emit(
                    RegionsAggregated(
                        time_us=tr.now,
                        nr_regions=self._ra.n,
                        total_bytes=self._ra.total_bytes(),
                        max_nr_accesses=self.attrs.max_nr_accesses,
                        nr_merges=self.total_merges - merges_before,
                    )
                )
            else:
                tr.count(RegionsAggregated)

        if self.callbacks:
            snapshot = self.snapshot(now)
            for callback in self.callbacks:
                callback(snapshot)
        for raw in self.raw_callbacks:
            raw(self, now)
        if self.engine is not None:
            self.engine.apply(self, now)

        self._ra.reset_counters()
        self._split_regions()
        # Prepare the next sample round *now* (over the post-split
        # regions), so no sampling tick of the next interval is spent
        # merely preparing.  The tick due at this same instant checks
        # these pages over a 0 µs window (see the module docstring).
        self._reset_sampling_state(now)
        self.total_aggregations += 1
        if self.sanitizer is not None:
            self.sanitizer.checkpoint_monitor(self, now)

    def snapshot(self, now: int) -> Snapshot:
        """Freeze the current region state for callbacks/analysis."""
        ra = self._ra
        return Snapshot.from_columns(
            now,
            ra.start,
            ra.end,
            ra.nr_accesses,
            ra.age,
            ra.nr_writes,
            self.attrs.max_nr_accesses,
        )

    # -- merge (with aging) ---------------------------------------------
    def _merge_size_limit(self) -> int:
        return max(MIN_REGION_SIZE, self._ra.total_bytes() // self.attrs.min_nr_regions)

    def _merge_regions(self, threshold: int) -> None:
        """Upstream damon_merge_regions_of: age every region, then fold
        adjacent regions whose counts differ by at most ``threshold``,
        capping merged size so at least ``min_nr_regions`` survive."""
        if self._ra.n == 0:
            return
        self.total_merges += self._ra.age_and_merge(threshold, self._merge_size_limit())

    # -- split -----------------------------------------------------------
    def _split_regions(self) -> None:
        """Upstream kdamond_split_regions: probe for intra-region skew by
        splitting every region at a random point, unless the count is
        already above half the maximum."""
        nr = self._ra.n
        if nr > self.attrs.max_nr_regions // 2:
            self._last_nr_regions = nr
            return
        subregions = 2
        if nr < self.attrs.max_nr_regions // 3 and nr == self._last_nr_regions:
            subregions = 3
        self.total_splits += self._ra.split(self.rng, subregions)
        self._last_nr_regions = nr

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def nr_regions(self) -> int:
        """Current region count (bounded by the configured maximum)."""
        return self._ra.n

    def check_invariants(self) -> None:
        """Assert the structural invariants the property tests rely on.

        When the monitor tracks a primitive whose layout has not changed
        since the last regions update, this includes the tiling
        invariant: the regions cover the target ranges byte for byte
        (mapped memory is never silently dropped from monitoring).
        """
        ranges = None
        if (
            self.primitive is not None
            and self._seen_generation is not None
            and self.primitive.layout_generation() == self._seen_generation
        ):
            ranges = self.primitive.target_ranges()
        self._ra.check_invariants(ranges)
