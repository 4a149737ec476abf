"""Shared non-fixture helpers for tests."""

from __future__ import annotations

from repro.perf.regionarray import RegionArray
from repro.units import MSEC

#: Base address used by most unit tests (2 MiB aligned).
BASE = 0x7F00_0000_0000


def run_epochs(kernel, queue, bursts, n_epochs, epoch_us=100 * MSEC, compute_us=None):
    """Drive ``n_epochs`` epochs; ``bursts`` is a list of dicts passed to
    ``kernel.apply_access`` (each gets start/end/etc.)."""
    compute_us = compute_us if compute_us is not None else epoch_us * 0.7

    def one_epoch(now):
        kernel.begin_epoch()
        for burst in bursts:
            kernel.apply_access(now=now, epoch_us=epoch_us, **burst)
        kernel.end_epoch(now + epoch_us, compute_us)

    one_epoch(queue.clock.now)
    queue.schedule_periodic(epoch_us, one_epoch)
    queue.run_for(n_epochs * epoch_us)


def region_table(bounds, **columns):
    """A :class:`RegionArray` over ``(start, end)`` pairs, with optional
    per-row column values: ``region_table([(0, K)], nr_accesses=[3])``."""
    ra = RegionArray.from_bounds(bounds)
    for name, values in columns.items():
        getattr(ra, name)[:] = values
    return ra
