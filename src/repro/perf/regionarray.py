"""Struct-of-arrays region storage: the monitor's vectorized hot path.

The paper's overhead bound (§3.1) promises at most ``max_nr_regions``
checks per sampling interval; the *constant* in front of that bound is
paid by every epoch of every scheme of every sweep point.
:class:`RegionArray` is the monitor's one region model: the region
table as NumPy columns::

    start / end / sampling_addr                                int64
    counters: nr_accesses / last_nr_accesses / nr_writes / age  int64 (4, n)
    write_ewma                                                 float64

The four counter names are properties returning row views of the
block.  At ~40 regions a pass costs its numpy calls, not its regions,
so the per-aggregation passes — counter publish, merge+age, counter
reset, split, sampling-address choice — make whole-table calls: merge
finds every chunk end with one ``searchsorted`` and averages all four
counters with one ``reduceat``; split rebuilds them with one ``repeat``.

Determinism contract: every pass is a pure function of the column state
and the monitor's seeded RNG; the RNG is drawn in fixed-size batches
(one batch per pass, sized by the region count), so the same seed
produces the same region trajectory on every run and on every machine.

:class:`RegionView` is the thin object façade kept for callbacks,
invariant checks and tests: it reads and writes the backing columns in
place, so ``view.age = 0`` is visible to the next vectorized pass.
Views are positional — they are valid until the next structural pass
(merge/split/layout update) reorders the table; consumers get fresh
views from the monitor each aggregation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError, MonitorStateError

__all__ = ["MIN_REGION_SIZE", "RegionArray", "RegionView"]

#: Regions never shrink below one page: the sampling granularity.
MIN_REGION_SIZE = 4096
_PAGE_SHIFT = 12


def _counter_row(row: int, name: str) -> property:
    """Row ``row`` of ``RegionArray.counters`` as a read/write property
    (a stored view would come back from pickle as a detached copy)."""

    def get(self: "RegionArray") -> np.ndarray:
        return self.counters[row]

    def set(self: "RegionArray", value) -> None:
        self.counters[row] = value

    return property(get, set, doc=f"``{name}`` per region: row {row} of the counter block.")


class RegionView:
    """One region of a :class:`RegionArray`, viewed as an object.

    Attribute reads/writes go straight to the backing columns; the
    schemes engine, snapshots and tests see regions only through views.
    Positional: stale after the next structural pass of the owning
    array.
    """

    __slots__ = ("_ra", "_i")

    def __init__(self, ra: "RegionArray", index: int):
        self._ra = ra
        self._i = index

    # -- column accessors (int() so consumers see plain Python ints) ----
    @property
    def start(self) -> int:
        return int(self._ra.start[self._i])

    @start.setter
    def start(self, value: int) -> None:
        self._ra.start[self._i] = value

    @property
    def end(self) -> int:
        return int(self._ra.end[self._i])

    @end.setter
    def end(self, value: int) -> None:
        self._ra.end[self._i] = value

    @property
    def nr_accesses(self) -> int:
        return int(self._ra.nr_accesses[self._i])

    @nr_accesses.setter
    def nr_accesses(self, value: int) -> None:
        self._ra.nr_accesses[self._i] = value

    @property
    def last_nr_accesses(self) -> int:
        return int(self._ra.last_nr_accesses[self._i])

    @last_nr_accesses.setter
    def last_nr_accesses(self, value: int) -> None:
        self._ra.last_nr_accesses[self._i] = value

    @property
    def nr_writes(self) -> int:
        return int(self._ra.nr_writes[self._i])

    @nr_writes.setter
    def nr_writes(self, value: int) -> None:
        self._ra.nr_writes[self._i] = value

    @property
    def write_ewma(self) -> float:
        return float(self._ra.write_ewma[self._i])

    @write_ewma.setter
    def write_ewma(self, value: float) -> None:
        self._ra.write_ewma[self._i] = value

    @property
    def age(self) -> int:
        return int(self._ra.age[self._i])

    @age.setter
    def age(self, value: int) -> None:
        self._ra.age[self._i] = value

    @property
    def sampling_addr(self) -> int:
        return int(self._ra.sampling_addr[self._i])

    @sampling_addr.setter
    def sampling_addr(self, value: int) -> None:
        self._ra.sampling_addr[self._i] = value

    @property
    def size(self) -> int:
        return int(self._ra.end[self._i] - self._ra.start[self._i])

    def overlaps(self, start: int, end: int) -> bool:
        """Does this region intersect ``[start, end)``?"""
        return self.start < end and start < self.end

    def __repr__(self) -> str:
        return (
            f"Region({self.start:#x}-{self.end:#x}, "
            f"nr={self.nr_accesses}, age={self.age})"
        )


class RegionArray:
    """The monitor's region table as parallel NumPy columns."""

    __slots__ = ("start", "end", "counters", "sampling_addr", "write_ewma", "generation")

    nr_accesses = _counter_row(0, "nr_accesses")
    last_nr_accesses = _counter_row(1, "last_nr_accesses")
    nr_writes = _counter_row(2, "nr_writes")
    age = _counter_row(3, "age")

    def __init__(self, n: int = 0):
        self.start = np.zeros(n, dtype=np.int64)
        self.end = np.zeros(n, dtype=np.int64)
        #: The integer counters, one row each: see the properties above.
        self.counters = np.zeros((4, n), dtype=np.int64)
        self.sampling_addr = np.zeros(n, dtype=np.int64)
        self.write_ewma = np.zeros(n, dtype=np.float64)
        #: Bumped on every structural change; view caches key off it.
        self.generation = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_bounds(cls, bounds: Iterable[Tuple[int, int]]) -> "RegionArray":
        """Fresh regions over ``(start, end)`` pairs: counters zero,
        each sampling from its own start.  Raises :class:`ConfigError`
        for a region below :data:`MIN_REGION_SIZE`."""
        pairs = np.array(list(bounds), dtype=np.int64).reshape(-1, 2)
        ra = cls(len(pairs))
        ra.start[:] = pairs[:, 0]
        ra.end[:] = pairs[:, 1]
        ra.sampling_addr[:] = ra.start
        small = np.flatnonzero(ra.end - ra.start < MIN_REGION_SIZE)
        if small.size:
            i = int(small[0])
            raise ConfigError(
                f"region [{int(ra.start[i]):#x}, {int(ra.end[i]):#x}) below "
                f"minimum size {MIN_REGION_SIZE}"
            )
        return ra

    def view(self, index: int) -> RegionView:
        """A write-through object view of row ``index``."""
        return RegionView(self, index)

    def views(self) -> List[RegionView]:
        """Write-through views of every row, in address order."""
        return [RegionView(self, i) for i in range(self.n)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current region count."""
        return int(self.start.shape[0])

    def __len__(self) -> int:
        return self.n

    @property
    def sizes(self) -> np.ndarray:
        """Per-region sizes in bytes (a fresh array)."""
        return self.end - self.start

    def total_bytes(self) -> int:
        """Bytes covered by all regions."""
        return int((self.end - self.start).sum())

    def max_nr_accesses_seen(self) -> int:
        """Largest published access count (0 when empty)."""
        return int(self.nr_accesses.max()) if self.n else 0

    def check_invariants(
        self, ranges: Optional[Iterable[Tuple[int, int]]] = None
    ) -> None:
        """Structural invariants: minimum size, sortedness, and — when
        ``ranges`` is given — the tiling invariant (regions cover the
        target ranges byte for byte)."""
        sizes = self.end - self.start
        if self.n and int(sizes.min()) < MIN_REGION_SIZE:
            i = int(sizes.argmin())
            raise MonitorStateError(
                f"undersized region [{int(self.start[i]):#x}, "
                f"{int(self.end[i]):#x})"
            )
        if self.n > 1 and bool((self.start[1:] < self.end[:-1]).any()):
            i = int((self.start[1:] < self.end[:-1]).argmax()) + 1
            raise MonitorStateError(
                f"overlapping region [{int(self.start[i]):#x}, "
                f"{int(self.end[i]):#x})"
            )
        if ranges is not None:
            expected = sum(end - start for start, end in ranges)
            covered = self.total_bytes()
            if covered != expected:
                raise MonitorStateError(
                    f"regions cover {covered} bytes but the target ranges "
                    f"span {expected} — the region list no longer tiles "
                    f"the monitored address space"
                )

    # ------------------------------------------------------------------
    # The per-aggregation vector passes
    # ------------------------------------------------------------------
    def publish(
        self,
        acc: np.ndarray,
        wacc: np.ndarray,
        addrs: Optional[np.ndarray] = None,
    ) -> None:
        """Publish one aggregation interval's accumulated counters.

        Raises :class:`MonitorStateError` when the accumulator lengths
        have diverged from the region count (e.g. a callback mutated the
        region list mid-interval) — the pre-array code silently zip-
        truncated here and dropped counts without error.
        """
        n = self.n
        if len(acc) != n or len(wacc) != n:
            raise MonitorStateError(
                f"counter publish length mismatch: {n} regions but "
                f"{len(acc)} access / {len(wacc)} write accumulators — "
                f"was the region list mutated mid-interval?"
            )
        self.counters[0] = acc
        self.counters[2] = wacc
        # Peak-hold with slow decay; floored so long-idle regions
        # eventually read as fully clean again.
        np.maximum(wacc.astype(np.float64), self.write_ewma * 0.95,
                   out=self.write_ewma)
        self.write_ewma[self.write_ewma < 0.5] = 0.0
        if addrs is not None and len(addrs) == n:
            np.copyto(self.sampling_addr, addrs)

    def age_and_merge(self, threshold: int, sz_limit: int) -> int:
        """One merge pass with aging (upstream damon_merge_regions_of):
        age every region, then fold runs of adjacent regions whose
        published counts differ by at most ``threshold``, capping each
        merged region at ``sz_limit`` so at least ``min_nr_regions``
        survive.  Returns the number of merges performed.

        Merged counters are size-weighted averages of the parents'
        (paper §3.1; upstream ``damon_merge_two_regions``) and a merged
        region samples from its leftmost parent's address; similarity is
        judged between the *published* neighbour counts.
        """
        n = len(self.start)
        if n == 0:
            return 0
        block = self.counters
        nr, age = block[0], block[3]
        # Aging, in place: stable access count → older; changed → reset.
        changed = np.abs(nr - block[1]) > threshold
        age += 1
        age[changed] = 0
        # Row i ends a mergeable run unless it can merge with row i + 1.
        run_ends = np.concatenate((
            (self.end[:-1] != self.start[1:]) | (np.abs(nr[:-1] - nr[1:]) > threshold),
            [True],
        )).nonzero()[0]
        if len(run_ends) == n:
            return 0
        sizes = self.end - self.start
        cum = sizes.cumsum()
        # Greedy size-capped fold: each row's chunk would end at the last
        # row within ``sz_limit`` bytes of its start (one searchsorted
        # over all rows), clamped to [row, end of its mergeable run]; a
        # chunk starting at row j ends at chunk_end[j], so a plain-int
        # walk over the chunk starts finds them all.
        rows = np.arange(n)
        chunk_end = cum.searchsorted(cum - sizes + sz_limit, side="right") - 1
        chunk_end = np.minimum(np.maximum(chunk_end, rows), run_ends[run_ends.searchsorted(rows)])
        last = chunk_end.tolist()
        starts = []
        j = 0
        while j < n:
            starts.append(j)
            j = last[j] + 1
        if len(starts) == n:
            return 0
        starts_idx = np.array(starts, dtype=np.int64)
        # Size-weighted averages of all four counters at once: the same
        # int64 products and float64 divide per element as one column
        # at a time.
        weight_sum = np.add.reduceat(sizes, starts_idx)
        self.counters = np.rint(
            np.add.reduceat(block * sizes, starts_idx, axis=1) / weight_sum
        ).astype(np.int64)
        self.write_ewma = (
            np.add.reduceat(self.write_ewma * sizes, starts_idx) / weight_sum
        )
        self.start = self.start[starts_idx]
        self.end = self.end[chunk_end[starts_idx]]
        self.sampling_addr = self.sampling_addr[starts_idx]
        self.generation += 1
        return n - len(starts)

    def reset_counters(self) -> None:
        """Counter reset at the end of an aggregation interval:
        current → ``last_nr_accesses``, current cleared."""
        block = self.counters
        block[1] = block[0]
        block[0] = 0

    def split(self, rng: np.random.Generator, pieces: int) -> int:
        """Split every splittable region into up to ``pieces`` randomly
        sized, page-aligned subregions (children inherit all counters).
        Returns the number of regions added.

        Both rounds draw one RNG batch over the whole table (draws for
        unsplittable rows are made and discarded), keeping consumption a
        function of (region count, pieces) only — deterministic under a
        fixed seed regardless of which regions happen to be splittable.
        """
        start, end = self.start, self.end
        n = len(start)
        if n == 0 or pieces < 2:
            return 0
        n_pages = (end - start) >> _PAGE_SHIFT
        split1 = n_pages >= 2
        offs1 = rng.integers(1, np.where(split1, n_pages, 2))
        cut1 = np.where(split1, start + (offs1 << _PAGE_SHIFT), end)
        cut2 = end
        if pieces >= 3:
            right_pages = np.where(split1, end - cut1, 0) >> _PAGE_SHIFT
            split2 = split1 & (right_pages >= 2)
            offs2 = rng.integers(1, np.where(split2, right_pages, 2))
            cut2 = np.where(split2, cut1 + (offs2 << _PAGE_SHIFT), end)
        if not split1.any():
            return 0
        # A cut not made sits at ``end``, so each region's children are
        # the non-empty pieces of [start, cut1) [cut1, cut2) [cut2, end),
        # in row-major order.
        bounds = np.array((start, cut1, cut2, end)).T
        lo, hi = bounds[:, :-1], bounds[:, 1:]
        children = hi > lo
        counts = np.add.reduce(children, axis=1)
        self.start, self.end = lo[children], hi[children]
        self.counters = self.counters.repeat(counts, axis=1)
        self.write_ewma = self.write_ewma.repeat(counts)
        # Fresh children sample from their own start; unsplit rows keep
        # their sampling address.
        lo[:, 0] = np.where(split1, start, self.sampling_addr)
        self.sampling_addr = lo[children]
        self.generation += 1
        return len(self.start) - n

    def pick_sampling_addrs(self, rng: np.random.Generator) -> np.ndarray:
        """One random page-aligned sample address per region, drawn in a
        single batch.  ``sampling_addr`` is not written back here: the
        sampling loop owns the pending addresses, and :meth:`publish`
        records them at aggregation boundaries."""
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        return self.sampling_addrs(rng.random(self.n))

    def sampling_addrs(self, draws: np.ndarray) -> np.ndarray:
        """Sample addresses for uniform ``draws``, one per region per
        sampling round.  ``draws`` is flat and round-major (``K`` rounds
        of ``n`` draws), and so is the result."""
        n_pages = (self.end - self.start) >> _PAGE_SHIFT
        if len(draws) != len(n_pages):
            draws = draws.reshape(-1, len(n_pages))
        offsets = (draws * n_pages).astype(np.int64)
        return (self.start + (offsets << _PAGE_SHIFT)).ravel()

    # ------------------------------------------------------------------
    # Layout updates
    # ------------------------------------------------------------------
    def clip(self, ranges: Iterable[Tuple[int, int]]) -> "RegionArray":
        """The table clipped to a new set of target ranges (the
        regions-update step after mmap/munmap or hotplug).

        Regions overlapping the new layout survive, clipped to it and
        keeping their counters and age — monitoring history outlives a
        layout change — and uncovered parts of the ranges get fresh
        regions.  Every piece samples from its own start.

        Every byte of every range at least ``MIN_REGION_SIZE`` long ends
        up covered (the tiling invariant): pieces below the minimum
        region size — clipped survivors and gap fills alike — are
        absorbed into the next piece (the last one into the previous),
        which keeps its own counters.  A whole range below the minimum
        is too small to monitor at page granularity and is skipped.
        Consumes no randomness.
        """
        rows: List[Tuple[int, int, int]] = []  # (start, end, survivor or -1)
        for lo, hi in ranges:
            # Tile the range with clipped survivors interleaved with gap
            # fills, any size.
            pieces: List[Tuple[int, int, int]] = []
            covered = lo
            for i in np.flatnonzero((self.start < hi) & (lo < self.end)):
                a = max(int(self.start[i]), lo)
                b = min(int(self.end[i]), hi)
                if a > covered:
                    pieces.append((covered, a, -1))
                pieces.append((a, b, int(i)))
                covered = b
            if hi > covered:
                pieces.append((covered, hi, -1))
            first = len(rows)
            carry: Optional[int] = None
            for a, b, source in pieces:
                if carry is not None:
                    a, carry = carry, None
                if b - a < MIN_REGION_SIZE:
                    carry = a
                    continue
                rows.append((a, b, source))
            if carry is not None and len(rows) > first:
                rows[-1] = (rows[-1][0], hi, rows[-1][2])
        out = RegionArray.from_bounds([(a, b) for a, b, _ in rows])
        src = np.array([source for _, _, source in rows], dtype=np.int64)
        kept = np.flatnonzero(src >= 0)
        out.counters[:, kept] = self.counters[:, src[kept]]
        out.write_ewma[kept] = self.write_ewma[src[kept]]
        return out
