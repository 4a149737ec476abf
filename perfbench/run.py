"""The repository benchmark: simulated seconds per CPU second, per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload monitored --seed 0 --seconds 20 --trace 0

Workloads (see ``suite.py``): ``monitored``, ``unmonitored``, ``tiered``
and ``fleet``.  Each is a fixed matrix of runs executed as a closed
loop: one process, one thread, runs back to back, each run stepped with
``run_until`` at every epoch (single runs) or tick (fleet) boundary.

With ``--trace 0`` the benchmark runs one pass of the matrix in each of
several fresh worker processes, one after the other, and prints the
end-to-end metrics.  Host timings are per-run medians over the workers.

Host timings are CPU times (``process_time``) expressed in reference
CPU seconds.  A shared host runs the same code up to half again slower
for tens of seconds at a time, so each worker also times a fixed
calibration kernel (:class:`HostSpeed`, interpreter and numpy work) every
quarter second of stepping and scales its CPU times by the kernel's
reference time over its median time.  A change to the program moves
its CPU time but not the kernel's; a slow phase of the host moves both.
The unscaled figures and each worker's scale are printed as well.

Each matrix records how many CPU seconds one pass takes on a 2-core x86
host (2.0 GHz Xeon); ``--seconds`` sets how many workers fill that time,
at least three.  The amount of work is thus
fixed for a given ``--seconds``, so two commits always measure the same
work.  Every worker must reproduce the first worker's results exactly.
The modelled (simulated) results are exact for a given seed and code;
the model has no hardware reference in this repository and is
unvalidated.

With ``--trace 1`` it runs each run of the matrix three times in a row
in this process: untraced, with span wrappers around the layers' public
functions (``tracer.py``), and untraced again.  It prints per-layer self
times and counts, the tracing overhead against the untraced runs, and
each layer's share next to the end-to-end metric it should move
(``layer_map.json``).  Per-run rows and the raw spans are written to
``.perfbench_out/`` at the end; the rows also cover the matrix's probe
runs, which no metric or check depends on.

Host-memory protocol: every measured pass runs in a fresh process,
modules are imported before anything is timed, ``peak_host_rss_mib`` is
``ru_maxrss`` right after the pass, and no ``gc.collect()`` is inserted
between runs, so memory that finished runs keep stays visible.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("monitored", "unmonitored", "tiered", "fleet")
#: Host timings are medians over at least this many worker processes.
MIN_WORKERS = 3
WORKER_TIMEOUT_S = 40
TAIL_MIN_BEYOND = 10


class HostSpeed:
    """Measures how fast the host runs right now, between steps.

    :meth:`kernel` times a fixed mix of interpreter work and a numpy
    pass over 32 MiB, which competes for the shared last-level cache
    the way the simulator's page tables do; :meth:`factor` is ``REF_NS``
    over the median of the times taken during a pass, so multiplying a
    CPU time by it gives the time the same work would take when the
    kernel takes ``REF_NS`` (about its time on a quiet 2.0 GHz Xeon).
    The kernel's arrays (32 MiB of the worker's RSS) are allocated
    here, before anything is timed.
    """

    REF_NS = 7_000_000
    EVERY_NS = 250_000_000

    def __init__(self) -> None:
        import numpy as np

        self._a = np.ones(2 << 20)
        self._b = np.ones(2 << 20)
        self.samples = []
        self._since = 0
        self.kernel()
        self.samples.append(self.kernel())

    def kernel(self) -> int:
        import numpy as np

        c0 = time.process_time_ns()
        x = 0
        for j in range(60_000):
            x += j & 7
        np.add(self._a, self._b, out=self._a)
        return time.process_time_ns() - c0

    def after_step(self, step_ns: int) -> None:
        self._since += step_ns
        if self._since >= self.EVERY_NS:
            self._since = 0
            self.samples.append(self.kernel())

    def factor(self) -> float:
        return self.REF_NS / statistics.median(self.samples)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one measured pass and report it as JSON.
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# One pass (worker processes and the traced run)
# ----------------------------------------------------------------------
def run_pass(units, speed=None):
    """Run the units once, back to back.  Returns the outcomes (None
    for a unit that raised), each unit's step CPU times, the per-unit
    construction CPU times and the loop's wall time.  ``speed``, a
    :class:`HostSpeed`, is sampled between steps."""
    outcomes, steps, setup = [], [], []
    loop_wall = 0
    cpu, wall = time.process_time_ns, time.perf_counter_ns
    for unit in units:
        problems = []
        steps.append([])
        try:
            c0 = cpu()
            obj = unit.construct()
            setup.append(cpu() - c0)
            w0, c0 = wall(), cpu()
            bounds = unit.start(obj)
            steps[-1].append(cpu() - c0)
            loop_wall += wall() - w0
            unit.observe(obj, problems)
            for deadline in bounds:
                w0, c0 = wall(), cpu()
                unit.advance(obj, deadline)
                steps[-1].append(cpu() - c0)
                loop_wall += wall() - w0
                unit.observe(obj, problems)
                if speed is not None:
                    speed.after_step(steps[-1][-1])
            outcomes.append(unit.finish(obj, problems))
        except Exception:  # a failed run is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outcomes.append(None)
        finally:
            obj = None
    return outcomes, steps, setup, loop_wall


def selfcheck(matrix, outcomes):
    """Compare one stepped run with a one-shot run of the same seed."""
    i = matrix.selfcheck
    unit, stepped = matrix.units[i], outcomes[i]
    if stepped is None:
        return
    oneshot = unit.digest(unit.oneshot())
    ok = oneshot == stepped.digest
    print(f"selfcheck  {unit.label}: stepped {stepped.digest} one-shot {oneshot} "
          f"{'identical' if ok else 'DIFFERENT'}")
    if not ok:
        stepped.problems.append("stepped result differs from the one-shot run")


def check(matrix, outcomes, verbose=True):
    """Apply the shape checks, print each run's checks and the workload
    digest, and return each run's problems (empty when it passed)."""
    import hashlib

    from suite import shape_checks

    done = [o for o in outcomes if o is not None]
    if len(done) == len(outcomes):
        shape_checks(matrix.name, done)
    problems = []
    for unit, o in zip(matrix.units, outcomes):
        problems.append(["raised"] if o is None else o.problems)
        if problems[-1]:
            print(f"check      {unit.label}: FAILED ({'; '.join(problems[-1])})")
        elif verbose:
            print(f"check      {o.label}: ok  digest {o.digest}")
    if verbose:
        digest = hashlib.sha256("".join(o.digest for o in done).encode()).hexdigest()[:16]
        print(f"digest     {matrix.name}: {digest} over {len(done)} runs")
    return problems


def tail(values):
    """The highest percentile up to p99 with at least ten samples beyond
    it: ``(value, percentile, sample count)``."""
    import numpy as np

    n = len(values)
    q = max(0.0, min(99.0, 100.0 * (1.0 - TAIL_MIN_BEYOND / n)))
    return float(np.percentile(values, q)), q, n


def worker(matrix, index):
    """One measured pass in this (fresh) process, reported as JSON."""
    import numpy as np

    speed = HostSpeed()
    outcomes, steps, setup, _ = run_pass(matrix.units, speed=speed)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = speed.factor()
    if index == 0:
        selfcheck(matrix, outcomes)
    problems = check(matrix, outcomes, verbose=index == 0)
    step_tail, q, n = tail([t for run in steps for t in run])
    runs = []
    for unit, o, st, pr in zip(matrix.units, outcomes, steps, problems):
        run = {"label": unit.label, "problems": pr, "cpu_ns": sum(st),
               "p50_ns": float(np.median(st)) if st else 0.0}
        if o is not None:
            run.update(digest=o.digest, tenant_sim_s=o.tenant_sim_s, runtime_s=o.runtime_s,
                       avg_rss_mib=o.avg_rss_mib, hot_in_fast=o.hot_in_fast,
                       stall_s=o.stall_s, peak_system_mib=o.peak_system_mib)
        runs.append(run)
    print(json.dumps({"runs": runs, "setup_ns": sum(setup), "rss_kib": rss_kib,
                      "tail_ns": step_tail, "tail_q": q, "steps": n, "scale": scale,
                      "calibrations": len(speed.samples)}))


# ----------------------------------------------------------------------
# End-to-end metrics over the workers
# ----------------------------------------------------------------------
def spawn_workers(args, count):
    """Run ``count`` workers one after the other; None for one that failed."""
    reports = []
    for k in range(count):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--worker", str(k)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"worker     {k}: timed out after {WORKER_TIMEOUT_S} s")
            reports.append(None)
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            print(f"worker     {k}: exited with code {proc.returncode}")
            reports.append(None)
            continue
        if lines[:-1]:
            print("\n".join(lines[:-1]))
        reports.append(json.loads(lines[-1]))
    return reports


def end_to_end(reports, n_runs):
    """Aggregate worker reports into the end-to-end metrics.

    ``sim_s_per_cpu_s`` divides the matrix's simulated tenant-seconds by
    the sum over runs of each run's median CPU time.  ``step_p50_ms`` is
    the geometric mean over runs of each run's median step (median over
    workers): the matrices mix cheap and costly runs in about equal step
    counts, so the median of the pooled steps would sit in the gap
    between the two and jump.  The modelled results come from the first
    worker; the others must repeat them exactly.
    """
    good = [r for r in reports if r is not None]
    first = good[0]["runs"]
    failed = n_runs * (len(reports) - len(good))
    for r in good:
        for run, ref in zip(r["runs"], first):
            if run["problems"]:
                failed += 1
            elif run.get("digest") != ref.get("digest"):
                print(f"check      {run['label']}: FAILED (differs from the first worker)")
                failed += 1
    attempted = n_runs * len(reports)
    done = [run for run in first if "digest" in run]

    sim_s = cpu_ns = 0.0
    p50s = []
    for i, run in enumerate(first):
        same = [dict(r["runs"][i], scale=r["scale"]) for r in good if "digest" in r["runs"][i]]
        if "digest" not in run or not same:
            continue
        sim_s += run["tenant_sim_s"]
        cpu_ns += statistics.median(s["cpu_ns"] * s["scale"] for s in same)
        p50s.append(statistics.median(s["p50_ns"] * s["scale"] for s in same))
    n_steps, q = good[0]["steps"], good[0]["tail_q"]
    print(f"steps      {n_steps} per pass; tail is p{q:.2f} "
          f"({round(n_steps * (1 - q / 100))} samples beyond)")
    for k, r in enumerate(good):
        raw_cpu = sum(run["cpu_ns"] for run in r["runs"]) / 1e9
        print(f"worker     {k}: scale {r['scale']:.3f} from {r['calibrations']} calibrations; "
              f"unscaled: loop {raw_cpu:.3f} s, {sim_s / raw_cpu:.4g} sim_s/cpu_s, "
              f"setup {r['setup_ns'] / 1e9:.3f} s, step tail {r['tail_ns'] / 1e6:.3f} ms; "
              f"peak RSS {r['rss_kib'] / 1024:.0f} MiB")
    vals = {
        "sim_s_per_cpu_s": (sim_s / (cpu_ns / 1e9), "sim_s/cpu_s"),
        "setup_s": (statistics.median(r["setup_ns"] * r["scale"] for r in good) / 1e9, "s"),
        "step_p50_ms": (statistics.geometric_mean(p50s) / 1e6, "ms"),
        "step_tail_ms": (statistics.median(r["tail_ns"] * r["scale"] for r in good) / 1e6, "ms"),
        "peak_host_rss_mib": (statistics.median(r["rss_kib"] for r in good) / 1024, "MiB"),
        "ok_run_share": ((attempted - failed) / attempted, "ratio"),
        "sim_runtime_s": (sum(run["runtime_s"] for run in done), "sim_s"),
        "sim_avg_rss_mib": (statistics.fmean(run["avg_rss_mib"] for run in done), "MiB"),
        "sim_hot_in_fast_ratio": (statistics.fmean(run["hot_in_fast"] for run in done), "ratio"),
        "sim_stall_s": (sum(run["stall_s"] for run in done), "sim_s"),
        "sim_peak_system_mib": (statistics.fmean(run["peak_system_mib"] for run in done), "MiB"),
    }
    for name, (value, unit) in vals.items():
        print(f"metric     {name:24s} {value:.6g} {unit}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in vals.items()}
    return attempted, failed, metrics


# ----------------------------------------------------------------------
# Per-layer metrics: one traced pass in this process
# ----------------------------------------------------------------------
def traced(matrix, seed):
    """Per-layer metrics.  Each run goes untraced, traced and untraced
    again, back to back; the overhead compares the traced run with the
    mean of the two untraced ones, so neither host drift nor run order
    (later runs find memory that earlier ones left) counts as overhead."""
    from tracer import SpanTracer, per_layer

    n = len(matrix.units)
    tracer = SpanTracer()
    first, second, third, untraced_wall = [], [], [], 0
    for i, unit in enumerate(matrix.units + matrix.probes):
        if i < n:
            outcomes, _, _, wall = run_pass([unit])
            first += outcomes
            untraced_wall += wall / 2
        tracer.run_id = i
        tracer.install()
        try:
            outcomes, *_ = run_pass([unit])
        finally:
            tracer.uninstall()
        second += outcomes
        if i < n:
            outcomes, _, _, wall = run_pass([unit])
            third += outcomes
            untraced_wall += wall / 2
    for a, b, c in zip(first, second, third):
        if a is not None and b is not None and a.digest != b.digest:
            b.problems.append("traced result differs from the untraced run")
        if a is not None and c is not None and a.digest != c.digest:
            a.problems.append("repeated run differs from the first")
    selfcheck(matrix, first)
    problems = check(matrix, first) + check(matrix, second[:n], verbose=False)
    metrics = per_layer(matrix, tracer, second, untraced_wall, seed, OUT_DIR)
    return 2 * n, sum(1 for p in problems if p), metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources (src/repro) are missing under {ROOT}",
              file=sys.stderr)
        return 2
    # One process, one thread: keep numpy's BLAS from starting a pool.
    # Workers inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # The benchmark reads the program's tree and leaves it as it was.
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.path[:0] = [str(HERE), str(ROOT / "src")]

    import suite

    matrix = suite.build(args.workload, args.seed)
    if args.worker is not None:
        worker(matrix, args.worker)
        return 0
    n = len(matrix.units)
    if args.trace:
        print(f"workload   {matrix.name}: {n} runs, seed {args.seed}; "
              f"each untraced, traced, untraced")
        attempted, failed, metrics = traced(matrix, args.seed)
    else:
        workers = max(MIN_WORKERS, round(args.seconds / matrix.pass_seconds))
        print(f"workload   {matrix.name}: {n} runs x {workers} worker processes, seed "
              f"{args.seed}; each a closed loop, one thread, runs back to back")
        reports = spawn_workers(args, workers)
        if not any(reports):
            print("error: every worker failed", file=sys.stderr)
            return 1
        attempted, failed, metrics = end_to_end(reports, n)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
