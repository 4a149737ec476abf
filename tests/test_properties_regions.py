"""Property-based invariants of the DAMON split/merge/aging loop.

The monitoring core is only trustworthy under load if its structural
invariants hold for *any* region layout, not just the ones unit tests
happen to construct.  These properties machine-check the paper's
central mechanism (§3.1):

* merging never violates the ``min_nr_regions`` floor (given region
  sizes at or below the merge size limit, the steady-state condition);
* splitting never exceeds the ``max_nr_regions`` ceiling;
* both passes preserve total covered bytes and keep the region list
  sorted and non-overlapping;
* aging resets exactly when the access count moved by more than the
  merge threshold, and increments otherwise;
* the vectorised merge walk equals the per-run reference fold bit for
  bit, and the four counter names stay views of the counter block
  through view writes, clips and pickle round trips.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.perf.regionarray import MIN_REGION_SIZE, RegionArray
from repro.units import MSEC

from tests.helpers import region_table

K = MIN_REGION_SIZE

#: Small, fast attrs; min/max region bounds are what we probe.
ATTRS = MonitorAttrs(
    sampling_interval_us=1 * MSEC,
    aggregation_interval_us=20 * MSEC,
    regions_update_interval_us=200 * MSEC,
    min_nr_regions=5,
    max_nr_regions=60,
)


def _monitor(regions) -> DataAccessMonitor:
    """A monitor whose primitive is never touched by merge/split."""
    monitor = DataAccessMonitor(primitive=None, attrs=ATTRS, seed=11)
    monitor.regions = regions
    return monitor


@st.composite
def region_lists(draw, min_n=1, max_n=30, max_pages=16, gaps="maybe"):
    """A sorted, non-overlapping region table with random counters.

    ``gaps`` — "maybe": random gaps; "never": fully adjacent;
    "always": at least one page between consecutive regions.
    """
    n = draw(st.integers(min_n, max_n))
    lo = {"maybe": 0, "never": 0, "always": 1}[gaps]
    hi = {"maybe": 3, "never": 0, "always": 3}[gaps]
    bounds = []
    cursor = 0
    for _ in range(n):
        cursor += draw(st.integers(lo, hi)) * K
        size = draw(st.integers(1, max_pages)) * K
        bounds.append((cursor, cursor + size))
        cursor += size
    counters = st.lists(st.integers(0, 20), min_size=n, max_size=n)
    return region_table(
        bounds,
        nr_accesses=draw(counters),
        last_nr_accesses=draw(counters),
        age=draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)),
    )


def _covered_bytes(regions) -> int:
    if isinstance(regions, RegionArray):
        return regions.total_bytes()
    return sum(r.size for r in regions)


def _assert_sorted_nonoverlapping(regions) -> None:
    for left, right in zip(regions, regions[1:]):
        assert left.end <= right.start, f"{left!r} overlaps {right!r}"
    for region in regions:
        assert region.size >= MIN_REGION_SIZE


# ----------------------------------------------------------------------
# Merge pass
# ----------------------------------------------------------------------
@given(regions=region_lists(), threshold=st.integers(0, 10))
@settings(max_examples=200)
def test_merge_preserves_bytes_and_structure(regions, threshold):
    before_bytes = _covered_bytes(regions)
    before_n = len(regions)
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    after = monitor.regions
    assert _covered_bytes(after) == before_bytes
    assert len(after) <= before_n
    _assert_sorted_nonoverlapping(after)


@given(regions=region_lists(min_n=5, max_n=30, max_pages=8), threshold=st.integers(0, 30))
@settings(max_examples=200)
def test_merge_respects_min_nr_regions_floor(regions, threshold):
    """With every region at or below the merge size limit (the
    steady-state the loop maintains), merging leaves at least
    ``min_nr_regions`` regions — the accuracy floor."""
    total = _covered_bytes(regions)
    sz_limit = total // ATTRS.min_nr_regions
    assume(sz_limit >= MIN_REGION_SIZE)
    assume(int(regions.sizes.max()) <= sz_limit)
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    assert len(monitor.regions) >= ATTRS.min_nr_regions


#: Every column of the region table, counter rows included.
COLUMNS = (
    "start", "end", "nr_accesses", "last_nr_accesses", "nr_writes", "age",
    "sampling_addr", "write_ewma",
)
COUNTERS = ("nr_accesses", "last_nr_accesses", "nr_writes", "age")


def _reference_merge(cols, threshold, sz_limit):
    """The merge as one column at a time: age, then walk each mergeable
    run chunk by chunk with one ``searchsorted`` per chunk."""
    c = {name: column.copy() for name, column in cols.items()}
    n = len(c["start"])
    changed = np.abs(c["nr_accesses"] - c["last_nr_accesses"]) > threshold
    c["age"] = np.where(changed, 0, c["age"] + 1)
    mergeable = (c["end"][:-1] == c["start"][1:]) & (np.abs(np.diff(c["nr_accesses"])) <= threshold)
    sizes = c["end"] - c["start"]
    cum = np.cumsum(sizes)
    is_start = np.ones(n, dtype=bool)
    run_idx = np.flatnonzero(mergeable)
    for run in np.split(run_idx, np.flatnonzero(np.diff(run_idx) > 1) + 1) if run_idx.size else []:
        j, last = int(run[0]), int(run[-1]) + 1
        while j <= last:
            k = int(np.searchsorted(cum, int(cum[j]) - int(sizes[j]) + sz_limit, side="right")) - 1
            k = min(max(k, j), last)
            is_start[j + 1 : k + 1] = False
            j = k + 1
    starts = np.flatnonzero(is_start)
    if len(starts) == n:
        return 0, c
    weight = np.add.reduceat(sizes, starts)
    out = {"start": c["start"][starts], "sampling_addr": c["sampling_addr"][starts]}
    out["end"] = c["end"][np.append(starts[1:], n) - 1]
    for name in COUNTERS:
        out[name] = np.rint(np.add.reduceat(c[name] * sizes, starts) / weight).astype(np.int64)
    out["write_ewma"] = np.add.reduceat(c["write_ewma"] * sizes, starts) / weight
    return n - len(starts), out


@given(regions=region_lists(max_n=40), threshold=st.integers(0, 20), data=st.data())
@settings(max_examples=300)
def test_merge_walk_equals_reference_fold(regions, threshold, data):
    n = regions.n
    counts = st.lists(st.integers(0, 20), min_size=n, max_size=n)
    regions.nr_writes = data.draw(counts)
    regions.write_ewma[:] = data.draw(
        st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=n, max_size=n)
    )
    pages = (regions.sizes // K).tolist()
    regions.sampling_addr[:] = regions.start + K * np.array(
        [data.draw(st.integers(0, p - 1)) for p in pages], dtype=np.int64
    )
    span = int(regions.end[-1] - regions.start[0])
    sz_limit = data.draw(st.integers(K, span))
    merges, expected = _reference_merge(
        {name: getattr(regions, name) for name in COLUMNS}, threshold, sz_limit
    )
    assert regions.age_and_merge(threshold, sz_limit) == merges
    for name in COLUMNS:
        column = getattr(regions, name)
        assert column.dtype == expected[name].dtype, name
        assert column.tobytes() == expected[name].tobytes(), name


def _assert_rows_view_the_block(ra) -> None:
    for row, name in enumerate(COUNTERS):
        assert getattr(ra, name).base is ra.counters, name
        getattr(ra, name)[:] = row + 100
        assert (ra.counters[row] == row + 100).all(), name


@given(regions=region_lists(), data=st.data())
@settings(max_examples=100)
def test_counter_names_stay_views_of_the_block(regions, data):
    i = data.draw(st.integers(0, regions.n - 1))
    view = regions.view(i)
    view.age, view.nr_writes = 77, 5
    assert regions.counters[3, i] == 77 and regions.counters[2, i] == 5
    # Clipping to the table's own bounds keeps every row as a survivor.
    clipped = regions.clip(zip(regions.start.tolist(), regions.end.tolist()))
    assert clipped.counters.tobytes() == regions.counters.tobytes()
    restored = pickle.loads(pickle.dumps(regions, protocol=4))
    assert restored.counters.tobytes() == regions.counters.tobytes()
    for ra in (clipped, restored, regions):
        _assert_rows_view_the_block(ra)


# ----------------------------------------------------------------------
# Split pass
# ----------------------------------------------------------------------
@given(regions=region_lists(max_n=55))
@settings(max_examples=200)
def test_split_respects_max_nr_regions_ceiling(regions):
    assume(len(regions) <= ATTRS.max_nr_regions)
    before_bytes = _covered_bytes(regions)
    monitor = _monitor(regions)
    monitor._split_regions()
    after = monitor.regions
    assert len(after) <= ATTRS.max_nr_regions
    assert _covered_bytes(after) == before_bytes
    _assert_sorted_nonoverlapping(after)


@given(regions=region_lists())
@settings(max_examples=100)
def test_split_children_inherit_counters(regions):
    parents = [
        (r.start, r.end, r.nr_accesses, r.last_nr_accesses, r.age)
        for r in regions.views()
    ]
    monitor = _monitor(regions)
    monitor._split_regions()
    for child in monitor.regions:
        parent = next(
            p for p in parents if p[0] <= child.start and child.end <= p[1]
        )
        assert child.nr_accesses == parent[2]
        assert child.last_nr_accesses == parent[3]
        assert child.age == parent[4]


# ----------------------------------------------------------------------
# Full merge→split cycles stay within the configured band
# ----------------------------------------------------------------------
@given(
    regions=region_lists(min_n=5, max_n=40, max_pages=6),
    thresholds=st.lists(st.integers(0, 8), min_size=1, max_size=6),
)
@settings(max_examples=100)
def test_cycles_stay_bounded(regions, thresholds):
    total = _covered_bytes(regions)
    sz_limit = total // ATTRS.min_nr_regions
    assume(sz_limit >= MIN_REGION_SIZE)
    assume(int(regions.sizes.max()) <= sz_limit)
    monitor = _monitor(regions)
    for threshold in thresholds:
        monitor._merge_regions(threshold)
        monitor._split_regions()
        assert ATTRS.min_nr_regions <= len(monitor.regions) <= ATTRS.max_nr_regions
        assert _covered_bytes(monitor.regions) == total
        monitor.check_invariants()


# ----------------------------------------------------------------------
# Aging
# ----------------------------------------------------------------------
@given(regions=region_lists(gaps="always"), threshold=st.integers(0, 10))
@settings(max_examples=200)
def test_aging_resets_exactly_on_changed_count(regions, threshold):
    """With gaps everywhere (no merge can fire), the aging rule is
    exactly observable: age resets iff the access count moved by more
    than the merge threshold, and increments otherwise."""
    before = [(r.nr_accesses, r.last_nr_accesses, r.age) for r in regions.views()]
    monitor = _monitor(regions)
    monitor._merge_regions(threshold)
    assert len(monitor.regions) == len(before)
    for region, (nr, last, age) in zip(monitor.regions, before):
        if abs(nr - last) > threshold:
            assert region.age == 0, "changed count must reset the age"
        else:
            assert region.age == age + 1, "stable count must increment the age"


# ----------------------------------------------------------------------
# The two structural passes on a single pair / single region
# ----------------------------------------------------------------------
@given(
    left_pages=st.integers(1, 32),
    right_pages=st.integers(1, 32),
    left_nr=st.integers(0, 20),
    right_nr=st.integers(0, 20),
    left_age=st.integers(0, 60),
    right_age=st.integers(0, 60),
)
def test_merge_two_weighted_averages_stay_in_range(
    left_pages, right_pages, left_nr, right_nr, left_age, right_age
):
    ra = region_table(
        [(0, left_pages * K), (left_pages * K, (left_pages + right_pages) * K)],
        nr_accesses=[left_nr, right_nr],
        last_nr_accesses=[left_nr, right_nr],
        age=[left_age, right_age],
    )
    ra.sampling_addr[:] = [K // 2, left_pages * K]
    # A threshold spanning both counts forces the merge; counts are
    # stable, so aging adds one to each age first.
    ra.age_and_merge(threshold=20, sz_limit=(left_pages + right_pages) * K)
    assert ra.n == 1
    merged = ra.view(0)
    assert merged.size == (left_pages + right_pages) * K
    assert min(left_nr, right_nr) <= merged.nr_accesses <= max(left_nr, right_nr)
    assert min(left_age, right_age) + 1 <= merged.age <= max(left_age, right_age) + 1
    assert merged.sampling_addr == K // 2


class _Cut:
    """An RNG stand-in whose ``integers`` cuts ``pages`` pages in."""

    def __init__(self, pages):
        self.pages = pages

    def integers(self, low, high):
        return np.full(np.shape(high), self.pages)


@given(pages=st.integers(2, 64), split_page=st.integers(1, 63), nr=st.integers(0, 20))
def test_split_region_tiles_parent_exactly(pages, split_page, nr):
    assume(split_page < pages)
    ra = region_table([(0, pages * K)], nr_accesses=nr)
    assert ra.split(_Cut(split_page), 2) == 1
    left, right = ra.views()
    assert left.start == 0
    assert left.end == right.start == split_page * K
    assert right.end == pages * K
    assert left.nr_accesses == right.nr_accesses == nr
    assert right.sampling_addr == split_page * K
