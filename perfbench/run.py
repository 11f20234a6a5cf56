"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload replay-update --seed 7 \\
        --seconds 12 --trace 0

A pass runs every part of the workload once (see ``workloads.py``).
``--trace 0`` repeats passes with tracing off until ``--seconds`` have
passed, and at least twice so that every part is checked for drift, and
reports the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead, and whether every span named
for the workload fired.  The last line of standard output is one JSON
object; the lines before it are for people.  The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2


def load_program() -> None:
    """Import the program from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src / 'repro'}; run "
                         f"from the root of a full checkout")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}")


def median(values) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(spec, seed: int, recorder=None) -> list:
    """Every part of the workload once."""
    cells = []
    for part in spec.parts(seed):
        gc.collect()
        cells.append(spec.run_part(part, recorder))
    return cells


def drifted(first: list, others: list) -> int:
    """Cells whose fingerprint differs from the same part of ``first``."""
    return sum(c.fingerprint != first[i % len(first)].fingerprint
               for i, c in enumerate(others))


def host_rate(cells: list) -> float:
    return sum(c.attempted for c in cells) / sum(c.host_s for c in cells)


# ---------------------------------------------------------------------------
# End-to-end (untraced) run
# ---------------------------------------------------------------------------

def measured_run(spec, seed: int, seconds: float):
    from workloads import digest

    t_start = perf_counter()
    # Repeated passes of one seed: every repeat is checked for drift.
    # host_ops_per_s is the median over passes, setup_s and verify_s the
    # median over every part of every pass: a serve campaign's check
    # time has a long tail from campaign to campaign, which a sum over
    # one seed's campaigns would carry into the metric.
    passes = []
    while len(passes) < MIN_PASSES or perf_counter() - t_start < seconds:
        passes.append(run_pass(spec, seed))
    first = passes[0]
    cells = [c for p in passes for c in p]
    drift = drifted(first, cells[len(first):])
    problems = [p for c in cells for p in c.problems]
    if drift:
        problems.append(f"{drift} repeated part(s) of seed {seed} differ "
                        f"from the first: deterministic metrics drifted")
    attempted = sum(c.attempted for c in cells)
    failed = sum(c.failed for c in cells) + drift
    values = {
        "setup_s": median(c.setup_s for c in cells),
        "host_ops_per_s": median(host_rate(p) for p in passes),
        "verify_s": median(c.verify_s for c in cells),
        "modeled_mops": (sum(c.model_work for c in first)
                         / sum(c.model_us for c in first)),
        "goodput_frac": (sum(c.good for c in first)
                         / sum(c.attempted for c in first)),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {k: median(c.wall[k] for c in cells)
            for k in ("setup_s", "host_s", "verify_s")}
    notes = [
        f"passes: {len(passes)} x {len(first)} part(s) of seed {seed}, "
        f"{len(cells)} parts run in {perf_counter() - t_start:.1f} s",
        f"unscaled wall time per part (median): setup {wall['setup_s']:.4f} "
        f"s, program {wall['host_s']:.4f} s, checks {wall['verify_s']:.4f} s",
        f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted})",
        f"fingerprint: {digest([c.fingerprint for c in first])}",
    ]
    counts = spec.layer_counts(first)
    if "serve.p50_us" in counts:
        notes.append(
            f"latency from planned arrival, completed point requests "
            f"(virtual clock): p50 {counts['serve.p50_us']:.0f} us, "
            f"p99 {counts['serve.p99_us']:.0f} us, "
            f"{counts['serve.latency_samples']} samples")
    return values, attempted, failed, problems, notes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

#: per-layer metric -> (span name, field) read from the span summary.
SPAN_METRICS = {
    "engine.replay.self_s": ("engine.replay", "self_s"),
    "engine.plan_waves_s": ("engine.plan_waves", "s"),
    "engine.wave_generators_s": ("engine.wave_generators", "s"),
    "core.update_wave_s": ("core.update_wave", "s"),
    "core.update_wave_calls": ("core.update_wave", "calls"),
    "core.contains_multi_s": ("core.contains_multi", "s"),
    "core.bulk_build_s": ("core.bulk_build", "s"),
    "core.warm_s": ("core.warm", "s"),
    "core.validate_s": ("core.validate", "s"),
    "gpu.access_words_batch_s": ("gpu.access_words_batch", "s"),
    "gpu.l2_access_many_s": ("gpu.l2_access_many", "s"),
    "gpu.scheduler_run.self_s": ("gpu.scheduler_run", "self_s"),
    "gpu.execute_event_s": ("gpu.execute_event", "s"),
    "gpu.execute_event_calls": ("gpu.execute_event", "calls"),
    "gpu.access_words_s": ("gpu.access_words", "s"),
    "shard.plan_waves.self_s": ("shard.plan_waves", "self_s"),
    "shard.route_s": ("shard.route", "s"),
    "shard.route_scalar_calls": ("shard.route.scalar", "calls"),
    "shard.route_array_calls": ("shard.route.array", "calls"),
    "serve.loop.self_s": ("serve.loop", "self_s"),
    "serve.execute_batch_s": ("serve.execute_batch", "s"),
    "serve.controller_tick_s": ("serve.controller_tick", "s"),
    "chaos.check_history_s": ("chaos.check_history", "s"),
}


def traced_run(spec, seed: int, seconds: float, per_layer: list):
    from hooks import SpanRecorder

    recorder = SpanRecorder()
    untraced, traced, summaries, update_rows = [], [], [], []
    t_start = perf_counter()
    while not traced or perf_counter() - t_start < seconds:
        untraced.append(run_pass(spec, seed))
        recorder.run_id = len(traced)
        recorder.update_rows = recorder.update_handled = 0
        traced.append(run_pass(spec, seed, recorder))
        update_rows.append((recorder.update_rows, recorder.update_handled))
        summaries.append(recorder.summary(recorder.run_id))

    first = untraced[0]
    others = [c for p in untraced[1:] + traced for c in p]
    drift = drifted(first, others)
    checks = []                 # run-level self-checks that failed
    if len(set(update_rows)) != 1:
        checks.append("update_wave row counts drifted between traces")
    silent = sorted({name for s in summaries for name in spec.spans
                     if s[name]["calls"] == 0})
    if silent:
        checks.append(f"span(s) never fired: {', '.join(silent)}")
    if hasattr(spec, "run_bare"):
        gc.collect()
        if spec.run_bare(spec.parts(seed)[0]) != first[0].fingerprint["stats"]:
            checks.append("ServeStats differ from a run without the "
                          "benchmark's wrappers")
    problems = [p for c in first + others for p in c.problems] + checks
    if drift:
        problems.append(f"{drift} part(s) differ from the first untraced "
                        f"pass: tracing or repetition moved a result")

    counts = spec.layer_counts(traced[0])
    rows, handled = update_rows[0]
    counts["core.update_handled_frac"] = handled / rows if rows else 0.0
    counts["trace_overhead_frac"] = (
        median(sum(c.host_s for c in p) for p in traced)
        / median(sum(c.host_s for c in p) for p in untraced) - 1.0)
    values = {}
    for m in per_layer:
        name = m["name"]
        if name in SPAN_METRICS:
            span, fld = SPAN_METRICS[name]
            values[name] = median(s[span][fld] for s in summaries)
        else:
            values[name] = counts.get(name, 0)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{spec.name}-{seed}.npz"
    recorder.write(span_file)
    attempted = sum(c.attempted for c in first + others)
    failed = sum(c.failed for c in first + others) + drift + len(checks)
    notes = [
        f"passes: {len(untraced)} untraced + {len(traced)} traced of seed "
        f"{seed} in {perf_counter() - t_start:.1f} s",
        f"spans: {len(recorder.name)} written to "
        f"{span_file.relative_to(ROOT)}",
    ]
    return values, attempted, failed, problems, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_program()
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    from workloads import DEFAULT_SEED, WORKLOADS, unpinned_flags

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(choose from {', '.join(WORKLOADS)})")
    missing = unpinned_flags()
    if missing:
        print(f"perfbench: flags not pinned: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    spec = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    if args.trace:
        listed = bench["per_layer"]
        values, attempted, failed, problems, notes = traced_run(
            spec, seed, seconds, listed)
    else:
        listed = bench["end_to_end"]
        values, attempted, failed, problems, notes = measured_run(
            spec, seed, seconds)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}

    print(f"workload {spec.name}, seed {seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
