"""Fused sampling: a coalesced block of ticks equals one tick at a time.

The event queue hands the monitor's sampling periodic runs of ticks that
no other event separates, and ``sample_tick(now, n)`` runs them as one
pass.  These tests force the one-tick-at-a-time path without any switch
in the program: a no-op periodic at the sampling period, registered on
the run's queue after the monitor, is due at the same instant as every
sampling tick, so no block can extend past its first firing.  Everything
the run produces — result fingerprint, canonical JSONL trace, final
region table, lifetime checks and modelled monitor CPU — must be
identical either way, and also when the run is stepped through
irregular ``run_until`` deadlines.
"""

import hashlib
import io

import numpy as np
import pytest

from repro.errors import MonitorStateError
from repro.faults import FaultInjector, FaultPlan
from repro.monitor.attrs import MonitorAttrs
from repro.monitor.core import DataAccessMonitor
from repro.monitor.primitives import MonitoringPrimitive
from repro.recovery import checkpoint_run, restore_run
from repro.runner.experiment import ExperimentRun
from repro.sanitize.checkers import digest_region_state
from repro.sweep.serialize import fingerprint
from repro.trace import JsonlTraceSink, TraceBus
from repro.units import MIB, MSEC

from .test_monitor_golden import SCENARIOS, SEED, TIME_SCALE, WORKLOAD


class WindowPrimitive(MonitoringPrimitive):
    """Probabilities that depend on the address and the window, and a
    log of every charge, so a block's windows and charge order show."""

    name = "window"

    def __init__(self):
        self.charges = []

    def target_ranges(self):
        return [(0x100_0000, 0x100_0000 + 64 * MIB)]

    def layout_generation(self):
        return 0

    def access_probabilities(self, addrs, window_us):
        return 1.0 - np.exp(-((addrs >> 12) % 11) * window_us / 2e4)

    def write_probabilities(self, addrs, window_us):
        return ((addrs >> 12) % 3) / 4.0 + window_us / 1e5

    def charge_checks(self, n_checks, wakeups=1):
        self.charges.append((n_checks, wakeups))


def sampler_state(monitor):
    return (
        monitor._acc.tolist(),
        monitor._wacc.tolist(),
        monitor._addrs.tolist(),
        monitor._pending_since,
        monitor.total_checks,
        monitor.rng.bit_generator.state["state"],
        monitor.primitive.charges,
    )


@pytest.mark.parametrize("track_writes", [False, True])
@pytest.mark.parametrize("pending_window_us", [None, 0, 5 * MSEC, 3 * MSEC])
def test_block_equals_single_ticks(track_writes, pending_window_us):
    """Direct calls: one block of n ticks leaves the sampler exactly as
    n single ticks do — from no pending pages, and from pending pages
    whose window is 0 µs, one period, or neither."""
    attrs = MonitorAttrs(track_writes=track_writes)
    period = attrs.sampling_interval_us
    states = []
    for fused in (True, False):
        monitor = DataAccessMonitor(WindowPrimitive(), attrs, seed=9)
        monitor.init_regions()
        now = 100 * MSEC
        if pending_window_us is not None:
            monitor._reset_sampling_state(now - pending_window_us)
        if fused:
            monitor.sample_tick(now, 7)
        else:
            for i in range(7):
                monitor.sample_tick(now + i * period)
        states.append(sampler_state(monitor))
    assert states[0] == states[1]


def test_fault_hooks_refuse_a_block():
    plan = FaultPlan.build([dict(kind="drop_sample", probability=0.5)], seed=1)
    monitor = DataAccessMonitor(WindowPrimitive(), seed=9, faults=FaultInjector(plan))
    monitor.init_regions()
    with pytest.raises(MonitorStateError):
        monitor.sample_tick(5 * MSEC, 2)


@pytest.fixture
def block_sizes(monkeypatch):
    """Record the ``n`` of every ``sample_tick`` call made by runs built
    inside the test."""
    sizes = []
    original = DataAccessMonitor.sample_tick

    def recording(self, now, n=1):
        sizes.append(n)
        return original(self, now, n)

    monkeypatch.setattr(DataAccessMonitor, "sample_tick", recording)
    return sizes


def build(name, *, faults=None, sink=True):
    """A started run of golden scenario ``name``; with ``sink``, its
    trace is written to the returned JSONL buffer."""
    kwargs = dict(SCENARIOS[name])
    setup = kwargs.pop("setup", None)
    workload = kwargs.pop("workload", WORKLOAD)
    kwargs.setdefault("time_scale", TIME_SCALE)
    bus = TraceBus(ring_capacity=0)
    buffer = io.StringIO()
    if sink:
        bus.subscribe_all(JsonlTraceSink(buffer))
    run = ExperimentRun(
        workload, seed=SEED, trace=bus, sanitize=False, faults=faults, **kwargs
    )
    if setup is not None:
        setup(run)
    run.start()
    return run, buffer


def outcome(run, buffer):
    result = run.finish()
    monitor = run.tenant.monitor
    return {
        "result_fingerprint": fingerprint(result),
        "trace_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
        "region_digest": digest_region_state(monitor),
        "total_checks": monitor.total_checks,
        "monitor_cpu_us": run.tenant.kernel.metrics.monitor_cpu_us,
    }


def interpose(run):
    """Force one tick at a time: a foreign event due with every tick."""
    period = run.tenant.monitor.attrs.sampling_interval_us
    run.queue.schedule_periodic(period, lambda now: None, name="interpose")


def run_scenario(name, *, per_tick=False, step_us=None, faults=None):
    run, buffer = build(name, faults=faults)
    if per_tick:
        interpose(run)
    end = run.spec.duration_us
    if step_us is not None:
        for deadline in range(step_us, end, step_us):
            run.run_until(deadline)
    run.run_until(end)
    return outcome(run, buffer)


@pytest.mark.parametrize(
    "name", ["rec", "prec", "prcl", "ethp", "write_aware", "tiering"]
)
def test_fused_equals_per_tick(name, block_sizes):
    fused = run_scenario(name)
    assert max(block_sizes) > 1, "the run never coalesced a block"
    block_sizes.clear()
    per_tick = run_scenario(name, per_tick=True)
    assert set(block_sizes) == {1}
    assert fused == per_tick


@pytest.mark.parametrize("step_ms", [7, 333])
def test_fused_equals_per_tick_when_stepped(step_ms, block_sizes):
    stepped = run_scenario("prcl", step_us=step_ms * MSEC)
    assert max(block_sizes) > 1
    assert stepped == run_scenario("prcl", per_tick=True)


def test_counted_trace_summary_matches_per_tick(block_sizes):
    """With no subscriber the bus counts a block in one call; at every
    pause point its summary matches per-tick dispatch."""

    def summaries(per_tick):
        run, _ = build("prcl", sink=False)
        if per_tick:
            interpose(run)
        end = run.spec.duration_us
        out = []
        for deadline in list(range(33 * MSEC, end, 33 * MSEC)) + [end]:
            run.run_until(deadline)
            out.append(run.trace.summary())
        return out

    coalesced = summaries(per_tick=False)
    assert max(block_sizes) > 1
    assert coalesced == summaries(per_tick=True)


def test_fault_hooks_sample_one_tick_at_a_time(block_sizes):
    """drop_sample and flaky_bits draw and stamp per tick, so a faulted
    monitor never coalesces: its run is exactly per-tick dispatch."""
    plan = FaultPlan.build(
        [
            dict(kind="drop_sample", probability=0.3),
            dict(kind="flaky_bits", probability=0.2),
        ],
        seed=3,
    )
    faulted = run_scenario("prcl", faults=plan)
    assert set(block_sizes) == {1}
    assert faulted == run_scenario("prcl", faults=plan, per_tick=True)
    assert faulted["trace_sha256"] != run_scenario("prcl")["trace_sha256"]


def test_checkpoint_resume_keeps_coalescing(tmp_path, block_sizes):
    """A run checkpointed at an epoch boundary resumes byte-identically,
    its restored sampling ticks still coalesce, and the dispatch counts
    of its run_until steps sum to the uninterrupted run's."""
    plain, plain_buffer = build("prcl")
    plain_dispatched = plain.run_until(plain.spec.duration_us)
    expected = outcome(plain, plain_buffer)

    run, buffer = build("prcl")
    path = str(tmp_path / "ck.bin")
    dispatched = run.run_until(3 * run.spec.epoch_us)
    checkpoint_run(run, path)
    head = buffer.getvalue().splitlines(keepends=True)[:-1]  # CheckpointWritten

    block_sizes.clear()
    bus = TraceBus(ring_capacity=0)
    tail = io.StringIO()
    bus.subscribe_all(JsonlTraceSink(tail))
    resumed = restore_run(path, trace=bus, announce=False)
    (sample,) = [e for e in resumed.tenant.monitor._events if e.name == "sample"]
    assert sample.coalesce
    dispatched += resumed.run_until(resumed.spec.duration_us)
    assert max(block_sizes) > 1

    got = outcome(resumed, io.StringIO("".join(head) + tail.getvalue()))
    assert got == expected
    assert dispatched == plain_dispatched
