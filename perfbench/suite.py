"""The four benchmark workloads as run matrices, and how to drive them.

A workload is a list of *units*, run back to back in one process and one
thread (a closed loop: the next run starts when the previous finishes).
A unit is one single-tenant experiment (:class:`RunUnit`, driven through
``ExperimentRun``) or one fleet (:class:`FleetUnit`, driven through
``FleetScheduler``).  Both are stepped with ``run_until`` at every epoch
or tick boundary, so each step can be timed, and both can be re-run
one-shot through ``run_experiment`` / ``run_fleet`` to confirm that the
stepping did not change the result.

Simulated memory starts empty in every run, so workload init phases
(cold-init sweeps, fleet boot ramps) are part of what is measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.fleet import FleetConfig, FleetScheduler, run_fleet
from repro.runner.configs import ExperimentConfig
from repro.runner.experiment import ExperimentRun, run_experiment
from repro.sim.machine import scaled_instance
from repro.sim.pagetable import PAGE_SIZE
from repro.sweep.serialize import fingerprint
from repro.units import GIB, MIB, SEC

#: Pages touched within this window of a run's end count as hot.
HOT_WINDOW_US = 4 * SEC

#: The managed tiering run's scheme pair: promote what the monitor sees
#: accessed, demote what stayed idle for two seconds.
TIERING_SCHEMES = """\
# size  frequency  age  action
4K max 1 max min max migrate_hot
4K max min min 2s max migrate_cold
"""
TIERING = ExperimentConfig(name="tiering", monitor="vaddr", schemes_text=TIERING_SCHEMES)

FLAT_WORKLOADS = ("parsec3/freqmine", "splash2x/ocean_ncp", "production/serverless")


def _guest(dram_mib: int):
    """An i3.metal scaled so its guest (a quarter of host DRAM) has
    ``dram_mib`` MiB."""
    return scaled_instance("i3.metal", dram_scale=dram_mib * MIB * 4 / (128 * GIB))


@dataclass
class Outcome:
    """What one unit produced, for checks, metrics and rows."""

    label: str
    digest: str
    tenant_sim_s: float
    runtime_s: float
    avg_rss_mib: float
    hot_in_fast: float
    stall_s: float
    peak_system_mib: float
    counts: Dict[str, float]
    problems: List[str] = field(default_factory=list)


class RunUnit:
    """One ``ExperimentRun`` of the matrix."""

    def __init__(self, workload: str, config, *, policy: str = "flat", time_scale: float,
                 seed: int, dram_mib: Optional[int] = None) -> None:
        self.workload = workload
        self.policy = policy
        self.kwargs = dict(config=config, seed=seed, time_scale=time_scale, sanitize=False,
                           machine=_guest(dram_mib) if dram_mib else "i3.metal")
        if policy != "flat":
            self.kwargs.update(tier="cxl-dram", tier_scale=1 / 256, tier_policy=policy)
        name = config if isinstance(config, str) else config.name
        self.config_name = name
        self.label = f"{workload}:{name}"
        if policy != "flat":
            self.label += f":{policy}@{dram_mib}MiB"
        self._regions: List[int] = []

    def construct(self) -> ExperimentRun:
        return ExperimentRun(self.workload, **self.kwargs)

    def start(self, run: ExperimentRun) -> List[int]:
        """Start the run (epoch 0) and return the step deadlines."""
        run.start()
        epoch, end = run.spec.epoch_us, run.spec.duration_us
        bounds = list(range(epoch, end + 1, epoch))
        if not bounds or bounds[-1] != end:
            bounds.append(end)
        return bounds

    def advance(self, run: ExperimentRun, deadline: int) -> None:
        run.run_until(deadline)

    def observe(self, run: ExperimentRun, problems: List[str]) -> None:
        """Untimed check after each step: region count within bounds."""
        mon = run.tenant.monitor
        if mon is None:
            return
        n = mon.nr_regions()
        self._regions.append(n)
        if not mon.attrs.min_nr_regions <= n <= mon.attrs.max_nr_regions and not problems:
            problems.append(
                f"{n} regions outside [{mon.attrs.min_nr_regions}, {mon.attrs.max_nr_regions}]"
            )

    def finish(self, run: ExperimentRun, problems: List[str]) -> Outcome:
        result = run.finish()
        kernel = run.tenant.kernel
        m = kernel.metrics
        flat = kernel.space.flat
        hot = flat.present & (flat.last_touch >= run.spec.duration_us - HOT_WINDOW_US)
        n_hot = int(np.count_nonzero(hot))
        in_fast = int(np.count_nonzero(hot & (flat.tier == 0)))
        tried = sum(s["sz_tried"] for s in result.scheme_stats.values())
        applied = sum(s["sz_applied"] for s in result.scheme_stats.values())
        regions, self._regions = self._regions, []
        return Outcome(
            label=self.label,
            digest=self.digest(result),
            tenant_sim_s=run.spec.duration_us / SEC,
            runtime_s=result.runtime_us / SEC,
            avg_rss_mib=result.avg_rss_bytes / MIB,
            hot_in_fast=in_fast / n_hot if n_hot else 1.0,
            stall_s=(m.runtime.minor_fault_us + m.runtime.major_fault_us) / SEC,
            peak_system_mib=m.memory.peak_system / MIB,
            counts={
                "monitor.checks": result.monitor_checks,
                "monitor.regions_sum": sum(regions),
                "monitor.regions_n": len(regions),
                "schemes.bytes_tried": tried,
                "schemes.bytes_applied": applied,
                "sim.major_faults": m.major_faults,
                "sim.pages_swapped_out": m.pages_swapped_out,
                "sim.reclaim_evictions": m.reclaim_evictions,
                "sim.pages_demoted": m.pages_demoted,
                "sim.pages_promoted": m.pages_promoted,
            },
            problems=problems,
        )

    def oneshot(self):
        return run_experiment(self.workload, **self.kwargs)

    @staticmethod
    def digest(result) -> str:
        return fingerprint(result)[:16]


class FleetUnit:
    """One batched ``FleetScheduler`` run."""

    policy = "fleet"

    def __init__(self, cfg: FleetConfig) -> None:
        self.cfg = cfg
        self.config_name = f"fleet-{cfg.n_tenants}"
        self.label = f"fleet:{cfg.n_tenants}x{cfg.duration_s:g}s"
        self._resident: List[int] = []

    def construct(self) -> FleetScheduler:
        return FleetScheduler(self.cfg, sanitize=False)

    def start(self, fleet: FleetScheduler) -> List[int]:
        fleet.start_loop()
        tick = self.cfg.tick_us
        return list(range(tick, self.cfg.duration_us + 1, tick))

    def advance(self, fleet: FleetScheduler, deadline: int) -> None:
        fleet.queue.run_until(deadline)

    def observe(self, fleet: FleetScheduler, problems: List[str]) -> None:
        """Untimed check after each tick: frames are conserved."""
        resident = int(fleet.resident.sum())
        self._resident.append(resident)
        if problems:
            return
        if resident != fleet.pool.allocated:
            problems.append(f"pool holds {fleet.pool.allocated} frames, regions {resident}")
        elif int(fleet.swapped.sum()) != fleet.swap_device.used_pages:
            problems.append("swap slots differ from swapped region pages")
        elif np.any(fleet.resident + fleet.swapped > fleet.table.size_pages):
            problems.append("a region holds more pages than its size")

    def finish(self, fleet: FleetScheduler, problems: List[str]) -> Outcome:
        r = fleet.finish()
        resident, self._resident = self._resident, []
        n = r.n_tenants
        return Outcome(
            label=self.label,
            digest=self.digest(r),
            tenant_sim_s=n * r.duration_us / SEC,
            runtime_s=(n * r.duration_us + r.stall_total_us) / SEC,
            avg_rss_mib=float(np.mean(resident)) * PAGE_SIZE / n / MIB,
            hot_in_fast=1.0,
            stall_s=r.stall_total_us / SEC,
            peak_system_mib=r.peak_system_bytes / MIB,
            counts={
                "monitor.batch_checks": r.monitor_checks,
                "fleet.evicted_pages": r.evicted_pages,
                "fleet.pageout_pages": r.pageout_pages,
                "sim.major_faults": r.major_faults,
            },
            problems=problems,
        )

    def oneshot(self):
        return run_fleet(self.cfg, sanitize=False)

    @staticmethod
    def digest(result) -> str:
        return hashlib.sha256(result.canonical_json().encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------
@dataclass
class Matrix:
    """One workload: its runs, in the order a pass runs them."""

    name: str
    units: List[object]
    #: Index of the unit whose stepped result is compared with a
    #: one-shot run.
    selfcheck: int
    #: CPU seconds one pass takes on a 2-core x86 host (2.0 GHz Xeon),
    #: which sets how many worker passes fill ``--seconds``.
    pass_seconds: float
    #: Extra units run only in the traced run and reported as rows:
    #: findings worth showing that no metric or check depends on.
    probes: List[object] = field(default_factory=list)


def build(name: str, seed: int) -> Matrix:
    if name == "monitored":
        units = [RunUnit(w, c, time_scale=0.125, seed=seed)
                 for w in FLAT_WORKLOADS for c in ("rec", "prcl", "ethp")]
        return Matrix(name, units, selfcheck=4, pass_seconds=8)
    if name == "unmonitored":
        units = [RunUnit(w, c, time_scale=1.0, seed=seed)
                 for w in FLAT_WORKLOADS for c in ("baseline", "thp")]
        return Matrix(name, units, selfcheck=3, pass_seconds=6)
    if name == "tiered":
        # fft on a 768 MiB guest: reclaim demotes, swaps and migrates
        # without thrashing.  freqmine on 256 MiB: placement decides
        # whether the hot set ends up in DRAM.
        units = []
        for w, ts, dram in (("splash2x/fft", 1.0, 768), ("parsec3/freqmine", 0.25, 256)):
            units.append(RunUnit(w, "baseline", policy="unmanaged", time_scale=ts,
                                 seed=seed, dram_mib=dram))
            units.append(RunUnit(w, TIERING, policy="managed", time_scale=ts,
                                 seed=seed, dram_mib=dram))
        # On a 512 MiB guest the managed pair thrashes (about twice the
        # unmanaged runtime, seven times the swap-outs) and its result
        # swings with the seed, so it is shown in the traced rows only.
        probes = [RunUnit("splash2x/fft", cfg, policy=policy, time_scale=1.0, seed=seed,
                          dram_mib=512)
                  for policy, cfg in (("unmanaged", "baseline"), ("managed", TIERING))]
        return Matrix(name, units, selfcheck=3, pass_seconds=6.5, probes=probes)
    if name == "fleet":
        # pool_ratio 0.4: the pool is overcommitted enough that the
        # shared-watermark eviction pass runs, without shedding.
        cfg = FleetConfig(n_tenants=10_000, duration_s=300.0, pool_ratio=0.4, seed=seed)
        return Matrix(name, [FleetUnit(cfg)], selfcheck=0, pass_seconds=5)
    raise ValueError(f"unknown workload {name!r}")


def shape_checks(name: str, outcomes: List[Outcome]) -> None:
    """Cross-run output checks against the paper's shapes (never exact
    digests).  A failed check is recorded on the run it indicts."""
    by = {o.label: o for o in outcomes}
    if name == "monitored":
        for w in FLAT_WORKLOADS:
            rec, prcl = by[f"{w}:rec"], by[f"{w}:prcl"]
            if not prcl.avg_rss_mib < rec.avg_rss_mib:
                prcl.problems.append(
                    f"prcl avg RSS {prcl.avg_rss_mib:.1f} MiB not below rec {rec.avg_rss_mib:.1f}"
                )
    elif name == "unmonitored":
        for w in FLAT_WORKLOADS:
            base, thp = by[f"{w}:baseline"], by[f"{w}:thp"]
            if thp.avg_rss_mib < base.avg_rss_mib:
                thp.problems.append("thp avg RSS below baseline (no huge-page bloat)")
    elif name == "tiered":
        for o in outcomes:
            if ":unmanaged@" in o.label and (
                o.counts["sim.pages_demoted"] or o.counts["sim.pages_promoted"]
            ):
                o.problems.append("unmanaged run moved pages between tiers")
        man = by["parsec3/freqmine:tiering:managed@256MiB"]
        unman = by["parsec3/freqmine:baseline:unmanaged@256MiB"]
        if not man.hot_in_fast > unman.hot_in_fast:
            man.problems.append(
                f"managed hot-in-fast {man.hot_in_fast:.3f} not above "
                f"unmanaged {unman.hot_in_fast:.3f}"
            )
