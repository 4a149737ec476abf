"""Checkpoint-codec overhead gate.

The recovery subsystem's promise (DESIGN.md §16) is that periodic
crash-consistent checkpoints are cheap enough to leave on for any run
long enough to be worth resuming.  Two properties make that plausible:
the payload is proportional to the workload's footprint, not the
machine's capacity (``FrameTable`` pickles only its live prefixes), and
a checkpoint only *pauses* the event loop at an epoch boundary it was
stopping at anyway.  This benchmark measures the end-to-end cost of
both checkpoint modes the CLI exposes — a single midpoint snapshot
(``--checkpoint FILE``) and a periodic cadence (``--checkpoint-every
N``) — against the identical un-checkpointed run, and gates the
periodic cadence at <10% wall clock.

A snapshot's cost is fixed by the state size, so overhead is simply
``snapshot_cost / (N × epoch_cost)`` — the per-snapshot CPU figure in
the report is what lets you budget other cadences.

Protocol: modes are interleaved round-robin and timed with CPU time
(``time.process_time``); the minimum over rounds is compared (the same
protocol as ``bench_trace_overhead.py`` — wall-clock ratios on a
contended host swing by more than the effect being measured).

Writes ``benchmarks/out/BENCH_checkpoint_overhead.json`` with the raw
minima and the ratio ``speedup = plain / periodic`` (≤ 1.0; the
regression checker guards it against drift via
``benchmarks/baselines/BENCH_checkpoint_overhead.json``).
"""

import json
import os
import tempfile

from conftest import OUT_DIR, interleaved_min_cpu

from repro.runner.experiment import run_experiment

WORKLOAD = "splash2x/volrend"
CONFIG = "rec"
SEED = 5
TIME_SCALE = 0.05
#: Epochs between periodic checkpoints: one snapshot per simulated
#: second of the workload (the 40-epoch run writes 3).  Still an
#: aggressive cadence — a real resumable run snapshots far less often —
#: chosen so the benchmark exercises several write cycles per run.
EVERY = 10
N_EPOCHS = 40
ROUNDS = 15
GATE = 0.10  # <10% wall clock for the periodic cadence


def make_modes(ckpt_path):
    kw = dict(config=CONFIG, seed=SEED, time_scale=TIME_SCALE)

    def run_plain():
        return run_experiment(WORKLOAD, **kw)

    def run_midpoint_ckpt():
        return run_experiment(WORKLOAD, **kw, checkpoint=ckpt_path)

    def run_periodic_ckpt():
        return run_experiment(
            WORKLOAD, **kw, checkpoint=ckpt_path, checkpoint_every=EVERY
        )

    return {
        "plain": run_plain,
        "midpoint": run_midpoint_ckpt,
        "periodic": run_periodic_ckpt,
    }


def measure(modes, rounds=ROUNDS):
    """Min CPU time per mode over interleaved rounds, in microseconds."""
    best = interleaved_min_cpu(modes, rounds)
    return {name: value * 1e6 for name, value in best.items()}


def test_checkpoint_overhead_under_gate(benchmark, report):
    with tempfile.TemporaryDirectory() as tmp:
        ckpt_path = os.path.join(tmp, "bench.ckpt")
        modes = make_modes(ckpt_path)
        times = {}

        def run_all():
            times.update(measure(modes))
            return times

        benchmark.pedantic(run_all, rounds=1, iterations=1)
        payload_bytes = os.path.getsize(ckpt_path)

    n_snapshots = len(range(EVERY, N_EPOCHS, EVERY))
    overhead = {
        mode: times[mode] / times["plain"] - 1.0 for mode in ("midpoint", "periodic")
    }
    per_snapshot_us = (times["periodic"] - times["plain"]) / n_snapshots
    report.add(
        f"Checkpoint overhead ({WORKLOAD}/{CONFIG}, min CPU time of "
        f"{ROUNDS} interleaved rounds)"
    )
    report.add(f"  plain run         : {times['plain'] / 1e3:9.1f} ms  (baseline)")
    report.add(
        f"  midpoint snapshot : {times['midpoint'] / 1e3:9.1f} ms  "
        f"({overhead['midpoint'] * 100:+5.1f}%)"
    )
    report.add(
        f"  every {EVERY} epochs   : {times['periodic'] / 1e3:9.1f} ms  "
        f"({overhead['periodic'] * 100:+5.1f}%, {n_snapshots} snapshots)"
    )
    report.add(
        f"  per snapshot      : {per_snapshot_us / 1e3:9.2f} ms CPU, "
        f"{payload_bytes / 1e6:.2f} MB payload"
    )

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_checkpoint_overhead.json").write_text(
        json.dumps(
            {
                "workload": WORKLOAD,
                "config": CONFIG,
                "seed": SEED,
                "time_scale": TIME_SCALE,
                "checkpoint_every": EVERY,
                "n_snapshots": n_snapshots,
                "rounds": ROUNDS,
                "gate": GATE,
                "times_us": {k: round(v, 1) for k, v in times.items()},
                "overhead": {k: round(v, 4) for k, v in overhead.items()},
                "per_snapshot_us": round(per_snapshot_us, 1),
                "payload_bytes": payload_bytes,
                # The regression checker's common currency: plain time
                # over periodic-checkpoint time (≤ 1.0 by construction;
                # drifting toward 0 means checkpoints got expensive).
                "speedup": round(times["plain"] / times["periodic"], 4),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    # The gate: a snapshot per simulated second must stay inside the 10%
    # budget that makes --checkpoint-every defensible.
    assert overhead["periodic"] < GATE, (
        f"periodic checkpoint overhead {overhead['periodic']:.1%} "
        f"exceeds the {GATE:.0%} budget"
    )
