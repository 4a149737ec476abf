"""Span tracing at the layer seams, from outside the program.

:class:`SpanTracer` replaces a fixed set of public functions and methods
of the ``repro`` package with timing wrappers for the life of one traced
pass, then restores the originals.  Nothing in ``src/`` changes: the
wrappers sit on the class (or module) attribute, so every instance built
while they are installed calls through them.

Each call records one span — layer name, start, end (``perf_counter_ns``),
the index of the enclosing span and the run it belongs to — into flat
in-memory arrays.  Spans are summarised, and optionally written out,
only after the pass ends.  A layer's self time is its span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Loop roots: everything the run loop spends happens under one of these.
LOOP_ROOTS = ("sim.clock.run_until", "runner.start", "fleet.start_loop")

#: Kernel back-ends the schemes engine's actions call.
ACTION_METHODS = (
    "pageout",
    "pageout_phys",
    "madvise_willneed",
    "madvise_cold",
    "madvise_hugepage",
    "madvise_nohugepage",
    "migrate_hot",
    "migrate_cold",
    "lru_prioritize",
    "lru_deprioritize",
    "lru_prioritize_phys",
    "lru_deprioritize_phys",
)


def seams() -> List[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every traced seam."""
    from repro.fleet.scheduler import FleetScheduler
    from repro.monitor.batch import BatchMonitorPass
    from repro.monitor.core import DataAccessMonitor
    from repro.runner import experiment
    from repro.schemes.engine import SchemesEngine
    from repro.sim.clock import EventQueue
    from repro.sim.kernel import SimKernel
    from repro.workloads.base import Workload

    out: List[Tuple[object, str, str]] = [
        (EventQueue, "run_until", "sim.clock.run_until"),
        (experiment.ExperimentRun, "start", "runner.start"),
        (experiment.ExperimentRun, "run_one_epoch", "runner.run_one_epoch"),
        (experiment, "build_tenant", "runner.build_tenant"),
        (experiment.SnapshotRecorder, "__call__", "runner.snapshot_recorder"),
        (experiment.RawSnapshotRecorder, "__call__", "runner.snapshot_recorder"),
        (Workload, "run_epoch", "workloads.run_epoch"),
        (SimKernel, "apply_access", "sim.apply_access"),
        (SimKernel, "end_epoch", "sim.end_epoch"),
        (SimKernel, "khugepaged_scan", "sim.khugepaged_scan"),
        (SimKernel, "access_probabilities", "sim.access_probabilities"),
        (DataAccessMonitor, "sample_tick", "monitor.sample_tick"),
        (DataAccessMonitor, "aggregate_tick", "monitor.aggregate_tick"),
        (DataAccessMonitor, "regions_update_tick", "monitor.regions_update_tick"),
        (SchemesEngine, "apply", "schemes.apply"),
        (FleetScheduler, "__init__", "fleet.build"),
        (FleetScheduler, "start_loop", "fleet.start_loop"),
        (FleetScheduler, "_tick", "fleet.tick"),
        (BatchMonitorPass, "tick", "monitor.batch_tick"),
    ]
    out += [(SimKernel, m, "sim.actions") for m in ACTION_METHODS]
    return out


class SpanTracer:
    """Records one span per call into the seams while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("h")
        self.parent = array("i")
        self.run = array("h")
        #: The run (matrix entry) new spans belong to; spans of one run
        #: share this identifier.
        self.run_id = -1
        self._stack = [-1]
        self._saved: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        start, end, names, parent, run = self.start, self.end, self.name, self.parent, self.run
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, attr, name in seams():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "run": np.frombuffer(self.run, dtype=np.int16).astype(np.int64),
        }

    def self_times(self) -> Dict[str, np.ndarray]:
        """Per-span duration, self time and loop membership.

        ``in_loop`` marks spans that descend from a run-loop root
        (``run_until`` or a run's ``start``); set-up spans (tenant and
        fleet construction) are outside it.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        parent = a["parent"]
        child = np.zeros(len(dur), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        # Pointer jumping: root[i] is the outermost ancestor of span i.
        root = np.where(has_parent, parent, np.arange(len(dur)))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        loop_ids = [self._ids[n] for n in LOOP_ROOTS if n in self._ids]
        in_loop = np.isin(a["name"][root], loop_ids) if len(dur) else np.zeros(0, bool)
        a.update(dur_ns=dur, self_ns=dur - child, in_loop=in_loop, is_root=~has_parent)
        return a


#: Per-layer self-time metrics and the spans each one sums.
SELF_METRICS = {
    "monitor.sample_tick.self_ms": ("monitor.sample_tick",),
    "monitor.aggregate_tick.self_ms": ("monitor.aggregate_tick",),
    "monitor.regions_update_tick.self_ms": ("monitor.regions_update_tick",),
    "monitor.batch_tick.self_ms": ("monitor.batch_tick",),
    "sim.access_probabilities.self_ms": ("sim.access_probabilities",),
    "sim.apply_access.self_ms": ("sim.apply_access",),
    "sim.end_epoch.self_ms": ("sim.end_epoch",),
    "sim.khugepaged_scan.self_ms": ("sim.khugepaged_scan",),
    "sim.actions.self_ms": ("sim.actions",),
    "sim.clock.dispatch_self_ms": ("sim.clock.run_until",),
    "schemes.apply.self_ms": ("schemes.apply",),
    "workloads.run_epoch.self_ms": ("workloads.run_epoch",),
    "runner.run_one_epoch.self_ms": ("runner.run_one_epoch",),
    "runner.start.self_ms": ("runner.start", "fleet.start_loop"),
    "runner.snapshot_recorder.self_ms": ("runner.snapshot_recorder",),
    "fleet.tick.self_ms": ("fleet.tick",),
}
#: The per-tenant monitoring path (the fleet's batched pass excluded).
MONITOR_GROUP = (
    "monitor.sample_tick.self_ms",
    "monitor.aggregate_tick.self_ms",
    "monitor.regions_update_tick.self_ms",
    "sim.access_probabilities.self_ms",
)
COUNT_METRICS = (
    "monitor.checks", "monitor.batch_checks", "schemes.bytes_tried", "schemes.bytes_applied",
    "sim.major_faults", "sim.pages_swapped_out", "sim.reclaim_evictions",
    "sim.pages_demoted", "sim.pages_promoted", "fleet.evicted_pages", "fleet.pageout_pages",
)


def layer_self_ms(st, names, mask):
    """Self time (ms) per SELF_METRICS entry over the spans in ``mask``."""
    ids = {n: i for i, n in enumerate(names)}
    out = {}
    for metric, spans in SELF_METRICS.items():
        sel = np.isin(st["name"], [ids[s] for s in spans if s in ids]) & mask
        out[metric] = float(st["self_ns"][sel].sum()) / 1e6
    return out


def per_layer(matrix, tracer, outcomes, untraced_wall, seed, out_dir: Path):
    """The per-layer metrics of one traced pass of ``matrix``.

    Prints each layer's share of the loop next to the share recorded in
    ``layer_map.json`` and the end-to-end metric it should move, and
    writes the per-run rows and the raw spans to ``out_dir``.
    """
    st = tracer.self_times()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}
    # Metrics cover the matrix; probe runs only get rows.
    loop = st["in_loop"] & (st["run"] < len(matrix.units))
    loop_ms = float(st["dur_ns"][loop & st["is_root"]].sum()) / 1e6
    layers = layer_self_ms(st, names, loop)
    accounted = sum(layers.values())
    print(f"trace      loop {loop_ms:.1f} ms traced vs {untraced_wall / 1e6:.1f} ms untraced; "
          f"layer self times + dispatch = {accounted:.1f} ms")
    if abs(accounted - loop_ms) > 1e-6 * max(loop_ms, 1.0):
        print("trace      WARNING: layer self times do not sum to the loop time")

    def total_ms(span):
        sel = (st["name"] == ids.get(span, -1)) & (st["run"] < len(matrix.units))
        return float(st["dur_ns"][sel].sum()) / 1e6

    done = [o for o in outcomes[:len(matrix.units)] if o is not None]

    def count(key):
        return float(sum(o.counts.get(key, 0) for o in done))

    tried, applied = count("schemes.bytes_tried"), count("schemes.bytes_applied")
    regions_n = count("monitor.regions_n")
    metrics = dict(layers)
    metrics.update({
        "sim.access_probabilities.calls": float(np.count_nonzero(
            loop & (st["name"] == ids.get("sim.access_probabilities", -1)))),
        "monitor.nr_regions_mean": count("monitor.regions_sum") / regions_n if regions_n else 0.0,
        "schemes.applied_ratio": applied / tried if tried else 0.0,
        "runner.build_tenant_ms": total_ms("runner.build_tenant"),
        "fleet.build_ms": total_ms("fleet.build"),
        "trace.loop_ms": loop_ms,
        "trace.span_overhead_pct": (loop_ms * 1e6 / untraced_wall - 1.0) * 100.0,
        "trace.spans": float(len(st["dur_ns"])),
    })
    metrics.update({k: count(k) for k in COUNT_METRICS})

    group = sum(layers[k] for k in MONITOR_GROUP)
    print(f"share      per-tenant monitor path (monitor.* ticks + sim.access_probabilities): "
          f"{100 * group / loop_ms:.1f}% of the loop")
    layer_map = json.loads(Path(__file__).with_name("layer_map.json").read_text())
    print(f"share      {'layer':40s}    now  recorded  should move")
    for metric, ms in sorted(layers.items(), key=lambda kv: -kv[1]):
        entry = layer_map.get(metric, {})
        recorded = entry.get("share_pct", {}).get(matrix.name)
        recorded = "" if recorded is None else f"{recorded:.1f}%"
        print(f"share      {metric:40s} {100 * ms / loop_ms:5.1f}%  {recorded:>8s}  "
              f"{entry.get('moves', '')}")

    rows = []
    for i, (unit, o) in enumerate(zip(matrix.units + matrix.probes, outcomes)):
        if o is None:
            continue
        row = {
            "run": o.label, "config": unit.config_name, "policy": unit.policy, "seed": seed,
            "sim_runtime_s": o.runtime_s, "sim_avg_rss_mib": o.avg_rss_mib,
            "sim_hot_in_fast_ratio": o.hot_in_fast,
            "self_ms": layer_self_ms(st, names, st["in_loop"] & (st["run"] == i)),
            "counts": o.counts,
        }
        rows.append(row)
        print("row        " + json.dumps(row, sort_keys=True))
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{matrix.name}-seed{seed}"
    Path(f"{stem}-rows.jsonl").write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                                   for r in rows))
    np.savez_compressed(f"{stem}-spans.npz", names=np.array(names), **tracer.arrays())
    print(f"trace      rows and {len(st['dur_ns'])} spans written to {stem}-*")
    units = {"trace.span_overhead_pct": "%", "schemes.applied_ratio": "ratio",
             "schemes.bytes_tried": "bytes", "schemes.bytes_applied": "bytes"}
    return {k: {"value": v, "unit": units.get(k, "ms" if k.endswith("_ms") else "count")}
            for k, v in metrics.items()}
