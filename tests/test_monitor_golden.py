"""Monitor goldens: pinned end-to-end digests of the region model.

Every scenario pins what the monitor's region table produced, so a
refactor of the region code that changes any split, merge, publish,
sampling or layout-update decision shows up as a digest mismatch:

* full experiments (``rec``, ``prec``, ``prcl``, ``ethp``, a
  write-aware reclaimer, a quota-limited reclaimer with a deny filter
  and a managed ``migrate_hot``/``migrate_cold`` tiering pair): the
  result fingerprint, the sha256 of the canonical JSONL trace, and the
  final region-table digest;
* two seeded layout storms driven through ``regions_update_tick``: the
  region digest after every layout update.  The experiments above never
  re-derive their layout, so the storms are what pin the clip of the
  region table to a changed set of target ranges.

The digests live in ``tests/fixtures/monitor_golden.json``.  To refresh
after an intentional change: ``REPRO_REGEN_GOLDEN=1 python -m pytest
tests/test_monitor_golden.py`` and commit the rewritten fixture.
"""

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.monitor import DataAccessMonitor, MonitorAttrs, VirtualPrimitive
from repro.monitor.primitives import MonitoringPrimitive
from repro.runner.configs import ExperimentConfig
from repro.runner.experiment import ExperimentRun
from repro.sanitize.checkers import digest_region_state
from repro.schemes.actions import Action
from repro.schemes.filters import AddressFilter
from repro.schemes.quotas import Quota
from repro.schemes.scheme import AccessPattern, Scheme
from repro.sim.kernel import SimKernel
from repro.sim.machine import GuestSpec, get_instance, scaled_instance
from repro.sweep.serialize import fingerprint
from repro.trace import JsonlTraceSink, TraceBus
from repro.units import GIB, MIB, MSEC, SEC

from .helpers import BASE

FIXTURE = Path(__file__).parent / "fixtures" / "monitor_golden.json"

WORKLOAD = "parsec3/swaptions"
SEED = 5
TIME_SCALE = 0.02

TIERING = ExperimentConfig(
    name="tiering",
    monitor="vaddr",
    schemes_text=(
        "4K max 1 max min max migrate_hot\n"
        "4K max min min 2s max migrate_cold\n"
    ),
)


def _column_digest(monitor) -> str:
    """sha256 over every column of the region table (the storms pin the
    counters the layout update carries over, not just the four that
    :func:`digest_region_state` covers)."""
    ra = monitor._ra
    h = hashlib.sha256()
    for column in (
        ra.start,
        ra.end,
        ra.nr_accesses,
        ra.last_nr_accesses,
        ra.nr_writes,
        ra.write_ewma,
        ra.age,
        ra.sampling_addr,
    ):
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Experiment scenarios
# ----------------------------------------------------------------------
def _write_aware(run):
    """Swap prcl's pageout for a clean-cold reclaimer that the dirty-bit
    channel gates."""
    run.tenant.engine.replace_schemes(
        [
            Scheme(
                pattern=AccessPattern(max_freq=0.0, max_wfreq=0.0, min_age_us=200 * MSEC),
                action=Action.PAGEOUT,
            )
        ]
    )


def _quota_and_filter(run):
    """prcl under a limited quota with non-default priority weights and a
    deny filter: pins the engine's priority sort, the budget cut of a
    region at the remaining budget, and filter-shattered ranges."""
    prcl = run.tenant.engine.schemes[0]
    run.tenant.engine.replace_schemes(
        [
            Scheme(
                pattern=prcl.pattern,
                action=prcl.action,
                quota=Quota(
                    size_bytes=6 * MIB,
                    reset_interval_us=1 * SEC,
                    weight_nr_accesses=0.7,
                    weight_age=0.3,
                ),
                filters=[
                    AddressFilter(0x7F00_0000_0000 + 152 * MIB, 0x7F00_0000_0000 + 156 * MIB,
                                  allow=False)
                ],
            )
        ]
    )


SCENARIOS = {
    "rec": dict(config="rec"),
    "prec": dict(config="prec"),
    "prcl": dict(config="prcl"),
    "ethp": dict(config="ethp"),
    "write_aware": dict(
        config="prcl", attrs=MonitorAttrs(track_writes=True), setup=_write_aware
    ),
    "prcl_quota": dict(
        workload="parsec3/freqmine", config="prcl", time_scale=0.05, setup=_quota_and_filter
    ),
    "tiering": dict(
        workload="parsec3/freqmine",
        config=TIERING,
        time_scale=0.05,
        machine=scaled_instance("i3.metal", dram_scale=256 * MIB * 4 / (128 * GIB)),
        tier="cxl-dram",
        tier_scale=1 / 256,
        tier_policy="managed",
    ),
}


def run_scenario(name):
    """Run one scenario; returns its three digests."""
    kwargs = dict(SCENARIOS[name])
    setup = kwargs.pop("setup", None)
    workload = kwargs.pop("workload", WORKLOAD)
    kwargs.setdefault("time_scale", TIME_SCALE)
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(buffer))
    run = ExperimentRun(workload, seed=SEED, trace=bus, sanitize=False, **kwargs)
    if setup is not None:
        setup(run)
    run.start()
    run.run_until(run.spec.duration_us)
    result = run.finish()
    return {
        "result_fingerprint": fingerprint(result),
        "trace_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
        "region_digest": digest_region_state(run.tenant.monitor),
    }


# ----------------------------------------------------------------------
# Layout storms
# ----------------------------------------------------------------------
def mmap_storm(seed=11, steps=24):
    """Seeded mmap/munmap churn on a real kernel: between layout changes
    the workload touches its mappings and the monitor samples and
    aggregates, so the survivors carry non-trivial counters into every
    clip."""
    guest = GuestSpec(host=get_instance("i3.metal"), vcpus=4, dram_bytes=1 * GIB)
    kernel = SimKernel(guest, seed=seed)
    rng = np.random.default_rng(seed)
    vmas = [kernel.mmap(BASE, 64 * MIB, "anchor")]
    monitor = DataAccessMonitor(
        VirtualPrimitive(kernel), MonitorAttrs(track_writes=True), seed=seed
    )
    monitor.init_regions()
    now = 0
    digests = []
    for _ in range(steps):
        op = rng.integers(3)
        if op == 0 or len(vmas) == 1:
            start = BASE + int(rng.integers(1, 4096)) * 64 * 1024
            size = int(rng.integers(1, 512)) * 4096
            if not any(v.start < start + size and start < v.end for v in vmas):
                vmas.append(kernel.mmap(start, size))
        elif op == 1:
            kernel.munmap(vmas.pop(int(rng.integers(1, len(vmas)))))
        for _ in range(3):
            kernel.begin_epoch()
            for vma in vmas:
                if rng.random() < 0.6:
                    kernel.apply_access(
                        vma.start, vma.end, now, 100 * MSEC,
                        fraction=float(rng.random()),
                        write_fraction=float(rng.random()) * 0.5,
                    )
            for _ in range(20):
                now += 5 * MSEC
                monitor.sample_tick(now)
            monitor.aggregate_tick(now)
            kernel.end_epoch(now, 50 * MSEC)
        now += MSEC
        monitor.regions_update_tick(now)
        monitor.check_invariants()
        digests.append(digest_region_state(monitor) + ":" + _column_digest(monitor))
    return digests


class RaggedPrimitive(MonitoringPrimitive):
    """Byte-granular target ranges: a layout a page-aligned kernel never
    produces, reaching the clip's sub-page sliver and tiny-range cases."""

    name = "ragged"

    def __init__(self, ranges):
        self.ranges = list(ranges)
        self.generation = 0

    def target_ranges(self):
        return list(self.ranges)

    def layout_generation(self):
        return self.generation

    def access_probabilities(self, addrs, window_us):
        return ((addrs >> 12) % 7) / 7.0

    def write_probabilities(self, addrs, window_us):
        return ((addrs >> 12) % 5) / 10.0

    def charge_checks(self, n_checks, wakeups=1):
        pass


def ragged_storm(seed=13, steps=60):
    """Seeded edits of byte-granular ranges: edges move by sub-page
    amounts, tiny ranges come and go, ranges split and vanish."""
    rng = np.random.default_rng(seed)
    anchor = (0x10_0000, 0x10_0000 + 8 * MIB)
    prim = RaggedPrimitive([anchor, (0x200_0000, 0x200_0000 + 2 * MIB + 123)])
    monitor = DataAccessMonitor(prim, MonitorAttrs(track_writes=True), seed=seed)
    monitor.init_regions()
    now = 0
    digests = []
    for _ in range(steps):
        ranges = prim.ranges[1:]
        op = int(rng.integers(7))
        if op == 0 or not ranges:
            lo = 0x100_0000 + int(rng.integers(0, 1 << 26))
            ranges.append((lo, lo + int(rng.integers(1, 3 * MIB))))
        elif op == 1:
            ranges.pop(int(rng.integers(len(ranges))))
        elif op == 2:
            i = int(rng.integers(len(ranges)))
            lo, hi = ranges[i]
            ranges[i] = (lo + int(rng.integers(-6000, 6000)), hi + int(rng.integers(-6000, 6000)))
        elif op == 3:
            i = int(rng.integers(len(ranges)))
            lo, hi = ranges[i]
            cut = lo + int(rng.integers(0, max(1, hi - lo)))
            gap = int(rng.integers(1, 3 * 4096))
            ranges[i : i + 1] = [(lo, cut), (cut + gap, hi + gap)]
        elif op == 4:
            lo = 0x100_0000 + int(rng.integers(0, 1 << 26))
            ranges.append((lo, lo + int(rng.integers(1, 4096))))
        else:
            # Move one edge of a range to just short of (op 5) or just
            # past (op 6) a region boundary inside it: the region on the
            # far side survives as a sub-page sliver.
            ra = monitor._ra
            i = int(rng.integers(len(ranges)))
            lo, hi = ranges[i]
            inner = np.flatnonzero(
                (ra.start[1:] == ra.end[:-1]) & (ra.end[:-1] > lo) & (ra.end[:-1] < hi)
            )
            if inner.size:
                edge = int(ra.end[int(inner[int(rng.integers(inner.size))])])
                sliver = int(rng.integers(1, 4096))
                ranges[i] = (edge - sliver, hi) if op == 5 else (lo, edge + sliver)
        # Non-empty, non-overlapping, sorted: a valid target layout.
        merged = []
        for lo, hi in sorted(r for r in ranges if r[1] > r[0]):
            if merged and lo < merged[-1][1]:
                continue
            merged.append((lo, hi))
        prim.ranges = [anchor] + [r for r in merged if r[0] >= anchor[1]]
        prim.generation += 1
        for _ in range(2):
            for _ in range(20):
                now += 5 * MSEC
                monitor.sample_tick(now)
            monitor.aggregate_tick(now)
        now += MSEC
        monitor.regions_update_tick(now)
        # Ranges under a page are skipped, so the tiling check runs
        # against the monitorable ranges only.
        monitor._ra.check_invariants()
        assert monitor._ra.total_bytes() == sum(
            hi - lo for lo, hi in prim.ranges if hi - lo >= 4096
        )
        digests.append(digest_region_state(monitor) + ":" + _column_digest(monitor))
    return digests


STORMS = {"mmap_storm": mmap_storm, "ragged_storm": ragged_storm}


# ----------------------------------------------------------------------
# Fixture plumbing
# ----------------------------------------------------------------------
def _regen() -> bool:
    return os.environ.get("REPRO_REGEN_GOLDEN") == "1"  # daos-lint: disable=DT204


def _check(key, value):
    golden = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if _regen():
        golden[key] = value
        FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    assert key in golden, (
        f"no golden for {key!r} in {FIXTURE} — regenerate with REPRO_REGEN_GOLDEN=1"
    )
    assert value == golden[key]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_experiment_matches_golden(name):
    _check(name, run_scenario(name))


@pytest.mark.parametrize("name", sorted(STORMS))
def test_layout_storm_matches_golden(name):
    _check(name, STORMS[name]())
