"""Trace-bus overhead gate.

The bus promises three cost tiers (DESIGN.md §10): tracing disabled is
one ``is None`` check per emission site; an attached bus with nothing
listening takes the no-materialisation fast path (``TraceBus.count``) —
a dict increment per event, ~0%% overhead; a full JSONL sink pays event
construction plus the precompiled canonical encoder.  This benchmark
measures all three tiers on seeded monitored runs and gates the
always-on tier (bus attached, no subscribers — what every ``daos run``
now pays) at <5% end-to-end — the budget that keeps tracing on by
default defensible.  The JSONL sink is the explicit ``--trace``
diagnostic: its cost is reported and bounded against regression
(construction + canonical encoding per event put its floor near ~8%
at this event rate), not held to the always-on budget.

The SimSanitizer runtime (DESIGN.md §14) makes the same shape of
promise, so it is gated here too: an *attached but disabled* sanitizer
costs one attribute read and one ``if`` per epoch/aggregation
checkpoint and must stay under 2% vs the default run; the enabled
sanitizer (full invariant sweep per epoch boundary) is reported and
bounded against regression, not held to the always-on budget.

Protocol: the modes are interleaved round-robin and timed with CPU time
(``time.process_time``), and the minimum over rounds is compared —
wall-clock ratios on a contended host swing by more than the effect
being measured.

Writes ``benchmarks/out/BENCH_trace_overhead.json`` with the raw
minima so regressions are diffable across commits.
"""

import io
import json

from conftest import OUT_DIR, interleaved_min_cpu

from repro.runner.experiment import run_experiment
from repro.sanitize import SimSanitizer
from repro.trace import JsonlTraceSink, TraceBus

#: Seeded monitored runs: "prcl" exercises the counters-only fast path
#: end to end; "rec" additionally routes snapshots through a typed
#: subscriber, so RegionsAggregated events materialise.
CASES = [("parsec3/swaptions", "prcl"), ("parsec3/swaptions", "rec")]
SEED = 5
TIME_SCALE = 0.05
ROUNDS = 15
GATE = 0.05  # <5% end-to-end for the always-on tier
SINK_CEILING = 0.15  # regression bound for the opt-in JSONL diagnostic
SAN_GATE = 0.02  # <2% for an attached-but-disabled SimSanitizer
SAN_CEILING = 0.35  # regression bound for the full invariant sweep


def make_modes(workload, config):
    kw = dict(config=config, seed=SEED, time_scale=TIME_SCALE)

    def run_off():
        return run_experiment(workload, **kw, collect_trace=False)

    def run_bus():
        return run_experiment(workload, **kw)

    def run_sink():
        bus = TraceBus(ring_capacity=0)
        bus.subscribe_all(JsonlTraceSink(io.StringIO()))
        return run_experiment(workload, **kw, trace=bus)

    return {"off": run_off, "bus": run_bus, "sink": run_sink}


def make_sanitizer_modes(workload, config):
    """Sanitizer tiers, interleaved separately from the trace tiers so
    each comparison keeps the original three-way round cadence (longer
    rounds dilute the minima the protocol depends on).  The "bus"
    default run is re-timed here as the sanitizer baseline: it is the
    configuration ``--sanitize`` adds its checkpoints to."""
    kw = dict(config=config, seed=SEED, time_scale=TIME_SCALE)

    def run_bus():
        return run_experiment(workload, **kw)

    def run_san_off():
        # Attached but disabled: the cost every checkpoint site pays
        # when sanitizing is off but the object exists.
        return run_experiment(workload, **kw, sanitize=SimSanitizer(enabled=False))

    def run_san_on():
        return run_experiment(workload, **kw, sanitize=True)

    return {"bus": run_bus, "san_off": run_san_off, "san_on": run_san_on}


def measure(modes, rounds=ROUNDS):
    """Min CPU time per mode over interleaved rounds, in microseconds."""
    best = interleaved_min_cpu(modes, rounds)
    return {name: value * 1e6 for name, value in best.items()}


def test_trace_overhead_under_gate(benchmark, report):
    results = {}
    san_results = {}

    def run_all():
        for workload, config in CASES:
            results[config] = measure(make_modes(workload, config))
            san_results[config] = measure(make_sanitizer_modes(workload, config))
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.add(
        "Trace-bus overhead (min CPU time of %d interleaved rounds, %s)"
        % (ROUNDS, ", ".join(f"{w}/{c}" for w, c in CASES))
    )
    payload = {
        "cases": [{"workload": w, "config": c} for w, c in CASES],
        "seed": SEED,
        "time_scale": TIME_SCALE,
        "rounds": ROUNDS,
        "gate": GATE,
        "sink_ceiling": SINK_CEILING,
        "san_gate": SAN_GATE,
        "san_ceiling": SAN_CEILING,
        "modes": {},
    }
    worst = {"bus": 0.0, "sink": 0.0, "san_off": 0.0, "san_on": 0.0}
    for (workload, config), times in zip(CASES, results.values()):
        n_events = make_modes(workload, config)["bus"]().trace_summary["n_events"]
        report.add(f"  {workload}/{config}  ({n_events} events per run)")
        report.add(f"    tracing off : {times['off'] / 1e3:9.1f} ms  (baseline)")
        overhead = {}
        for mode, label in (("bus", "bus, no subs"), ("sink", "bus + JSONL")):
            overhead[mode] = times[mode] / times["off"] - 1.0
            worst[mode] = max(worst[mode], overhead[mode])
            report.add(
                f"    {label:12s}: {times[mode] / 1e3:9.1f} ms  "
                f"({overhead[mode] * 100:+5.1f}%)"
            )
        # Sanitizer modes come from their own interleave and compare
        # against its re-timed default-run baseline.
        san_times = san_results[config]
        for mode, label in (("san_off", "san disabled"), ("san_on", "san enabled")):
            overhead[mode] = san_times[mode] / san_times["bus"] - 1.0
            worst[mode] = max(worst[mode], overhead[mode])
            report.add(
                f"    {label:12s}: {san_times[mode] / 1e3:9.1f} ms  "
                f"({overhead[mode] * 100:+5.1f}% vs bus)"
            )
        payload["modes"][config] = {
            "times_us": {k: round(v, 1) for k, v in times.items()},
            "sanitizer_times_us": {k: round(v, 1) for k, v in san_times.items()},
            "overhead": {k: round(v, 4) for k, v in overhead.items()},
            "n_events": n_events,
        }

    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "BENCH_trace_overhead.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    # The gate: the tier every run pays is nominally ~0 (count() fast
    # path skips event construction) and must stay under the 5% budget.
    assert worst["bus"] < GATE, f"bus-without-subscribers overhead {worst['bus']:.1%}"
    # The opt-in JSONL diagnostic must not regress past its ceiling
    # (the original dict-based json.dumps encoder sat at ~27%).
    assert worst["sink"] < SINK_CEILING, f"JSONL sink overhead {worst['sink']:.1%}"
    # An attached-but-disabled sanitizer is the cost every checkpoint
    # site pays unconditionally; it must stay in the noise.
    assert worst["san_off"] < SAN_GATE, f"disabled sanitizer overhead {worst['san_off']:.1%}"
    # The enabled sweep is the opt-in diagnostic tier; bound it against
    # regression so a checker can't quietly go quadratic.
    assert worst["san_on"] < SAN_CEILING, f"enabled sanitizer overhead {worst['san_on']:.1%}"
