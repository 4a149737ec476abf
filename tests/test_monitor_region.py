"""The region table: construction, split, merge, aging math, layout
clipping and sample-address choice, on :class:`RegionArray`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.perf.regionarray import MIN_REGION_SIZE, RegionArray

from tests.helpers import region_table

K = MIN_REGION_SIZE


def bounds(ra):
    return [(int(s), int(e)) for s, e in zip(ra.start, ra.end)]


class OneCut:
    """An RNG stand-in whose ``integers`` always cuts ``pages`` pages in."""

    def __init__(self, pages):
        self.pages = pages

    def integers(self, low, high):
        return np.clip(np.full(np.shape(high), self.pages), low, np.asarray(high) - 1)


class TestRegion:
    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigError):
            RegionArray.from_bounds([(0, K - 1)])

    def test_fresh_counters(self):
        ra = RegionArray.from_bounds([(0, 10 * K)])
        region = ra.view(0)
        assert region.nr_accesses == 0
        assert region.age == 0
        assert region.size == 10 * K
        assert region.sampling_addr == 0

    def test_overlaps(self):
        region = RegionArray.from_bounds([(10 * K, 20 * K)]).view(0)
        assert region.overlaps(0, 11 * K)
        assert region.overlaps(19 * K, 30 * K)
        assert not region.overlaps(0, 10 * K)
        assert not region.overlaps(20 * K, 30 * K)


class TestSplit:
    def test_children_tile_parent(self):
        ra = RegionArray.from_bounds([(0, 10 * K)])
        assert ra.split(OneCut(4), 2) == 1
        assert bounds(ra) == [(0, 4 * K), (4 * K, 10 * K)]

    def test_children_inherit_counters(self):
        ra = region_table([(0, 10 * K)], nr_accesses=7, age=3, last_nr_accesses=5)
        ra.split(OneCut(5), 2)
        assert ra.n == 2
        for child in ra.views():
            assert child.nr_accesses == 7
            assert child.age == 3
            assert child.last_nr_accesses == 5

    def test_split_too_close_to_edge_rejected(self):
        """Cuts land on page boundaries at least one page from either
        edge, so a single-page region is never split."""
        ra = RegionArray.from_bounds([(0, K), (K, 3 * K)])
        assert ra.split(np.random.default_rng(0), 3) == 1
        assert bounds(ra) == [(0, K), (K, 2 * K), (2 * K, 3 * K)]


class TestMerge:
    def test_merge_requires_adjacency(self):
        ra = RegionArray.from_bounds([(0, K), (2 * K, 3 * K)])
        assert ra.age_and_merge(threshold=0, sz_limit=10 * K) == 0
        assert bounds(ra) == [(0, K), (2 * K, 3 * K)]

    def test_size_weighted_access_count(self):
        ra = region_table([(0, 3 * K), (3 * K, 4 * K)], nr_accesses=[4, 8])
        ra.age_and_merge(threshold=4, sz_limit=10 * K)
        assert ra.n == 1
        assert ra.view(0).nr_accesses == 5  # (4*3 + 8*1) / 4

    def test_size_weighted_age(self):
        # Aging runs first: both counts are stable, so both ages grow
        # by one before the merge averages them.
        ra = region_table([(0, K), (K, 4 * K)], age=[0, 8])
        ra.age_and_merge(threshold=0, sz_limit=10 * K)
        assert ra.n == 1
        assert ra.view(0).age == 7  # (1*1 + 9*3) / 4

    def test_merge_spans_union(self):
        ra = RegionArray.from_bounds([(0, 2 * K), (2 * K, 5 * K)])
        ra.age_and_merge(threshold=0, sz_limit=10 * K)
        assert bounds(ra) == [(0, 5 * K)]

    @settings(max_examples=50, deadline=None)
    @given(
        split_at=st.integers(min_value=1, max_value=9),
        nr=st.integers(min_value=0, max_value=20),
        age=st.integers(min_value=0, max_value=100),
    )
    def test_split_then_merge_is_identity(self, split_at, nr, age):
        ra = region_table([(0, 10 * K)], nr_accesses=nr, last_nr_accesses=nr, age=age)
        ra.split(OneCut(split_at), 2)
        assert ra.n == 2
        ra.age_and_merge(threshold=0, sz_limit=10 * K)
        assert bounds(ra) == [(0, 10 * K)]
        assert ra.view(0).nr_accesses == nr
        assert ra.view(0).age == age + 1  # one aging step


class TestIntersecting:
    def test_surviving_regions_keep_counters(self):
        ra = region_table(
            [(0, 10 * K)], nr_accesses=9, last_nr_accesses=6, nr_writes=2,
            write_ewma=1.5, age=4,
        )
        out = ra.clip([(0, 10 * K)])
        assert out.n == 1
        region = out.view(0)
        assert region.nr_accesses == 9
        assert region.last_nr_accesses == 6
        assert region.nr_writes == 2
        assert region.write_ewma == 1.5
        assert region.age == 4

    def test_clipped_to_new_range(self):
        ra = RegionArray.from_bounds([(0, 10 * K)])
        out = ra.clip([(2 * K, 6 * K)])
        assert bounds(out) == [(2 * K, 6 * K)]
        assert out.view(0).sampling_addr == 2 * K

    def test_uncovered_ranges_get_fresh_regions(self):
        ra = region_table([(0, 4 * K)], nr_accesses=3, age=2)
        out = ra.clip([(0, 10 * K)])
        assert bounds(out) == [(0, 4 * K), (4 * K, 10 * K)]
        assert out.view(1).nr_accesses == 0
        assert out.view(1).age == 0

    def test_disjoint_region_dropped(self):
        ra = RegionArray.from_bounds([(100 * K, 110 * K)])
        out = ra.clip([(0, 10 * K)])
        assert bounds(out) == [(0, 10 * K)]

    def test_multiple_ranges(self):
        ra = RegionArray.from_bounds([(0, 10 * K), (20 * K, 30 * K)])
        out = ra.clip([(0, 10 * K), (20 * K, 30 * K)])
        assert out.n == 2

    def test_regions_tile_ranges_without_overlap(self):
        ra = RegionArray.from_bounds([(K, 3 * K), (5 * K, 8 * K)])
        out = ra.clip([(0, 10 * K)])
        out.check_invariants([(0, 10 * K)])

    def test_clip_leaves_the_source_untouched(self):
        ra = region_table([(0, 10 * K)], nr_accesses=5)
        ra.clip([(2 * K, 3 * K)])
        assert bounds(ra) == [(0, 10 * K)]
        assert ra.view(0).nr_accesses == 5


class TestSamplingAddrs:
    def test_addrs_inside_regions(self):
        rng = np.random.default_rng(0)
        ra = RegionArray.from_bounds([(i * 100 * K, (i + 1) * 100 * K) for i in range(20)])
        addrs = ra.pick_sampling_addrs(rng)
        for region, addr in zip(ra.views(), addrs):
            assert region.start <= addr < region.end
            assert addr % K == 0

    def test_empty_region_list(self):
        rng = np.random.default_rng(0)
        assert RegionArray().pick_sampling_addrs(rng).size == 0

    def test_single_page_region_always_its_page(self):
        rng = np.random.default_rng(0)
        ra = RegionArray.from_bounds([(5 * K, 6 * K)])
        for _ in range(5):
            assert ra.pick_sampling_addrs(rng)[0] == 5 * K

    def test_randomised_across_calls(self):
        rng = np.random.default_rng(0)
        ra = RegionArray.from_bounds([(0, 1000 * K)])
        seen = {int(ra.pick_sampling_addrs(rng)[0]) for _ in range(20)}
        assert len(seen) > 5
