"""Fleet-scale throughput gate: batched scheduler vs the naive loop.

The fleet layer replaces "one :func:`run_experiment` per tenant" — a
full kernel, monitor and scheme engine each, simulated page by page in
Python — with one vectorized :class:`~repro.fleet.FleetScheduler`
sweeping every tenant's regions in one table per tick.  This benchmark
measures both on the same host in the same process and commits the
*throughput ratio*, which is what ``check_bench_regression.py`` gates
across commits.

Throughput is tenant·sim-seconds per CPU-second — work simulated per
unit of simulation cost — because the two paths are deliberately run at
different scales: the naive loop at a handful of tenants (it costs
seconds per tenant), the batched scheduler at four-digit fleet sizes
(where its fixed per-tick costs amortize and the measurement rises out
of the noise floor).  The modes differ in granularity (pages vs
regions), so this is a fidelity-for-scale trade measured honestly, not
a same-work speedup; DESIGN.md §15 records what the region model keeps
and drops.

Protocol: interleaved rounds timed with CPU time
(``time.process_time``), minima compared — same as the kernel and
monitor hot-path gates.  Two correctness gates ride along: same-seed
digest determinism of the batched scheduler (sanitizer enabled), and
byte-identity of its canonical summary JSON across runs.

Writes ``benchmarks/out/BENCH_fleet_scale.json``.
"""

import json

from conftest import FULL, OUT_DIR, interleaved_min_cpu

from repro.fleet import FleetConfig, run_fleet, run_fleet_naive

SEED = 11
ROUNDS = 2
GATE = 5.0  # batched throughput must be >= 5x the naive loop's

#: Naive side: small and slow — every tenant is a full experiment.
NAIVE_TENANTS = 12 if FULL else 8
NAIVE_DURATION_S = 60.0

#: Batched side: big enough that per-tick fixed costs amortize and the
#: CPU-time measurement is stable (hundreds of ms, not single-digit).
BATCH_TENANTS = 2000 if FULL else 1000
BATCH_DURATION_S = 300.0


def fleet_config(n_tenants: int, duration_s: float) -> FleetConfig:
    return FleetConfig(
        n_tenants=n_tenants,
        duration_s=duration_s,
        footprint_mib=48,
        arrival_window_s=20.0,
        seed=SEED,
    )


def measure(rounds=ROUNDS):
    """Min CPU seconds per mode over interleaved rounds."""
    naive_cfg = fleet_config(NAIVE_TENANTS, NAIVE_DURATION_S)
    batch_cfg = fleet_config(BATCH_TENANTS, BATCH_DURATION_S)
    modes = {
        "naive": lambda: run_fleet_naive(naive_cfg),
        "batched": lambda: run_fleet(batch_cfg),
    }
    return interleaved_min_cpu(modes, rounds, warmup=False)


def test_fleet_scale_throughput(benchmark, report):
    times = {}
    benchmark.pedantic(lambda: times.update(measure()), rounds=1, iterations=1)

    naive_tput = NAIVE_TENANTS * NAIVE_DURATION_S / times["naive"]
    batch_tput = BATCH_TENANTS * BATCH_DURATION_S / times["batched"]
    speedup = batch_tput / naive_tput

    # Determinism gate: same seed, same digest, byte-identical canonical
    # JSON — with the fleet sanitizer checking invariants every tick.
    check_cfg = fleet_config(200, 120.0)
    first = run_fleet(check_cfg, sanitize=True)
    second = run_fleet(check_cfg, sanitize=True)
    assert first.digest() == second.digest(), "same-seed fleet runs diverged"
    assert first.canonical_json() == second.canonical_json(), (
        "fleet canonical summaries differ byte for byte"
    )

    report.add(
        "Fleet scale: batched scheduler vs naive per-tenant run_experiment "
        f"(min CPU of {ROUNDS} interleaved rounds)"
    )
    report.add(
        f"  naive       : {NAIVE_TENANTS} tenants x {NAIVE_DURATION_S:.0f}s "
        f"in {times['naive']:.2f}s CPU = {naive_tput:10.0f} tenant-sim-s/cpu-s"
    )
    report.add(
        f"  batched     : {BATCH_TENANTS} tenants x {BATCH_DURATION_S:.0f}s "
        f"in {times['batched']:.2f}s CPU = {batch_tput:10.0f} tenant-sim-s/cpu-s"
    )
    report.add(f"  speedup     : {speedup:9.1f}x  (gate: >= {GATE}x)")
    report.add(f"  determinism : digest {first.digest()} twice, sanitizer clean")

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_fleet_scale.json").write_text(
        json.dumps(
            {
                "scenario": {
                    "naive_tenants": NAIVE_TENANTS,
                    "naive_duration_s": NAIVE_DURATION_S,
                    "batch_tenants": BATCH_TENANTS,
                    "batch_duration_s": BATCH_DURATION_S,
                    "footprint_mib": 48,
                },
                "rounds": ROUNDS,
                "seed": SEED,
                "gate": GATE,
                "times_s": {k: round(v, 4) for k, v in times.items()},
                "throughput": {
                    "naive": round(naive_tput, 1),
                    "batched": round(batch_tput, 1),
                },
                "speedup": round(speedup, 1),
                "deterministic": True,
                "digest": first.digest(),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    assert speedup >= GATE, (
        f"fleet throughput speedup {speedup:.1f}x below the {GATE}x gate"
    )
