"""Run one proxdeconv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli_gcv_64 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` and nowhere else. Repetitions run one at a time in this process (a
closed loop with one client) until ``--seconds`` have passed. Repetitions
of one seed must match byte for byte, within a run and, through a record of
output digests, across runs of the same sources.

``--trace 0``: every repetition is untraced and the last line of standard
output is a JSON object with the end-to-end metrics named in BENCHMARK.json.
``--trace 1``: the first repetition runs untraced, the others (at least one)
traced, and the JSON holds the per-layer metrics. The lines before the JSON
list every metric with its unit and sample count. Inputs, outputs, spans and
a per-run record go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SECONDS = 0.25  # per sampling window
MIN_SETUPS = 11

UNITS = {
    "wall_s": "s", "wall_s.tail": "s", "iter_ms": "ms", "outer_iters": "count",
    "rel_mae": "ratio", "rel_mae.returned": "ratio", "objective": "a.u.",
    "setup_s": "s",
    "peak_rss_mb": "MiB", "failed_frac": "ratio", "wall_s.raw": "s",
    "setup_s.raw": "s", "reference.tick_s": "s",
    "operators.blur_calls": "count", "operators.blur_s": "s",
    "operators.fft2": "count",
    "dictionary.calls": "count", "dictionary.busy_s": "s",
    "dictionary.fft2": "count",
    "prox_core.poisson_calls": "count", "prox_core.poisson_s": "s",
    "prox_core.threshold_s": "s", "prox_core.eval_s": "s",
    "prox_compose.fb_calls": "count", "prox_compose.fb_self_s": "s",
    "prox_compose.inner_steps": "count", "prox_compose.last_residual": "a.u.",
    "splitting.outer_iters": "count", "splitting.self_s": "s",
    "deconv.solves": "count", "deconv.useful_solve_ratio": "ratio",
    "deconv.gcv_s": "s",
    "rasters.read_s": "s", "rasters.write_s": "s", "rasters.bytes": "B",
    "cli.self_s": "s",
    "fft2_per_outer_iter": "fft2/iter", "inner_steps_per_outer_iter": "steps/iter",
    "trace.overhead_frac": "ratio",
}
# Metrics that vary from run to run; every other one must repeat exactly
# for a given seed and program.
TIMED = {name for name, unit in UNITS.items() if unit == "s"} | {
    "iter_ms", "peak_rss_mb", "failed_frac", "trace.overhead_frac"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_digest() -> str:
    """Digest of the package and benchmark sources: the program measured."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(ROOT.joinpath("perfbench").glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_repeats(key: str, values: dict) -> list[str]:
    """Compare deterministic values with earlier runs of the same program and seed."""
    path = OUT / "deterministic.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    earlier = record.setdefault(key, {})
    problems = [f"{name} is {value!r}, an earlier run gave {earlier[name]!r}"
                for name, value in values.items()
                if name in earlier and earlier[name] != value]
    earlier.update(values)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proxdeconv" / "__init__.py").is_file():
        print(f"perfbench: no proxdeconv sources under {SRC}", file=sys.stderr)
        return 2
    # numpy's FFT is single-threaded; OpenBLAS threads (used by the vector
    # norms) spin-wait and slow a run several-fold whenever anything else
    # holds a core, so the benchmark pins them to one before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import proxdeconv
    if Path(proxdeconv.__file__).resolve().parent != SRC / "proxdeconv":
        print(f"perfbench: imported proxdeconv from {proxdeconv.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from clock import Reference
    from tracing import TICK, Tracer, recording_solves
    from workloads import (WORKLOADS, build_problem, check, make_inputs,
                           relative_error, run_repetition)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    w = WORKLOADS[args.workload]
    run_name = f"{w.name}-seed{args.seed}"
    inputs = make_inputs(w, args.seed, OUT / run_name)

    reference = Reference(w.size)
    setup_windows, setup_times = [], []

    def time_setups():
        # Sampled before the first repetition and after each one, so set-up
        # sees the same spread of machine load as the repetitions; a
        # reference tick precedes every build.
        lo, builds = len(reference.samples), []
        start = time.perf_counter()
        while len(builds) < MIN_SETUPS or time.perf_counter() - start < SETUP_SECONDS:
            reference.tick()
            t0 = time.perf_counter()
            build_problem(w, inputs)
            builds.append(time.perf_counter() - t0)
        hi = len(reference.samples)
        setup_times.extend(builds)
        setup_windows.append(statistics.median(builds) * (hi - lo)
                             * reference.nominal / reference.spent(lo, hi))

    time_setups()

    attempted = failed = 0
    first = None
    problems: list[str] = []
    reps = []  # (outcome, solves, tracer or None, first tick, last tick)
    solve_ticks = []  # (result, first tick, last tick) of untraced solves
    start = time.perf_counter()
    while attempted < 1 + args.trace or time.perf_counter() - start < args.seconds:
        tracer = Tracer() if args.trace and attempted > 0 else None
        solves = []
        lo = len(reference.samples)
        try:
            with recording_solves(solves, lambda: len(reference.samples)):
                if tracer is None:
                    with reference.ticking():
                        outcome = run_repetition(w, inputs, attempted, None)
                else:
                    # The tick is a span of its own, so no library span
                    # holds its time.
                    with tracer.installed(), reference.ticking(
                            tracer.wrap(TICK, reference.tick)):
                        outcome = run_repetition(w, inputs, attempted, tracer)
            found = check(inputs, outcome, first)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            found = ["repetition raised"]
        hi = len(reference.samples)
        attempted += 1
        if attempted == 1:
            # Later repetitions reuse a heap grown by the first, by an amount
            # that varies, and how many fit in --seconds varies too.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        time_setups()
        if found:
            failed += 1
            problems += [f"repetition {attempted - 1}: {p}" for p in found]
            continue
        first = first or outcome
        reps.append((outcome, [r for r, _, _ in solves], tracer, lo, hi))
        if tracer is None:
            solve_ticks.extend(solves)
    untraced = [r for r in reps if r[2] is None]
    if not untraced:
        print("perfbench: no untraced repetition succeeded:\n  "
              + "\n  ".join(problems), file=sys.stderr)
        return 1
    iters = [sum(s.state.iterations for s in solves) for _, solves, *_ in reps]
    if len(set(iters)) > 1:
        problems.append(f"outer iterations differ between repetitions: {iters}")
    outcome = first
    # Quality per gamma solved, averaged over the grid: which grid point GCV
    # selects changes from seed to seed, the quality at each point does not.
    last_solve = {s.gamma_used: s for s in reps[0][1]}
    per_gamma = [last_solve[g] for g in sorted(last_solve)]
    walls = [reference.scaled(o.wall_s, lo, hi) for o, _, _, lo, hi in untraced]
    raw_walls = [o.wall_s - reference.spent(lo, hi) for o, _, _, lo, hi in untraced]
    iter_ms = [1e3 * reference.scaled(r.wall_time_s, a, b) / r.state.iterations
               for r, a, b in solve_ticks]
    values = {
        "wall_s": statistics.median(walls),
        "iter_ms": statistics.median(iter_ms),
        "outer_iters": iters[0],
        "rel_mae": statistics.fmean(
            relative_error(s.restored.data, inputs.reference) for s in per_gamma),
        "objective": statistics.fmean(
            s.state.objectives[-1] - inputs.saturated for s in per_gamma),
        "setup_s": statistics.median(setup_windows),
        "peak_rss_mb": peak_rss,
        "failed_frac": failed / attempted,
        "rel_mae.returned": relative_error(outcome.restored, inputs.reference),
        "wall_s.raw": statistics.median(raw_walls),
        "setup_s.raw": statistics.median(setup_times),
        "reference.tick_s": statistics.median(reference.samples),
    }
    samples = {name: len(untraced) for name in values}
    samples.update(iter_ms=len(iter_ms), setup_s=len(setup_windows),
                   failed_frac=attempted, outer_iters=len(reps),
                   **{"setup_s.raw": len(setup_times),
                      "reference.tick_s": len(reference.samples)})
    tail_at = len(walls) - 11
    if tail_at >= 0:
        values["wall_s.tail"] = sorted(walls)[tail_at]
        samples["wall_s.tail"] = len(walls)

    traced = [r for r in reps if r[2] is not None]
    if traced:
        layers = [r[2].layer_metrics(len(w.grid)) for r in traced]
        for name in layers[0]:
            column = [layer[name] for layer in layers]
            if name not in TIMED and len(set(column)) > 1:
                problems.append(f"{name} differs between traced repetitions: {column}")
            values[name] = statistics.median(column)
            samples[name] = len(column)
        if values["splitting.outer_iters"] != iters[0]:
            problems.append("traced and untraced outer iterations differ")
        values["trace.overhead_frac"] = statistics.median(
            reference.scaled(o.wall_s, lo, hi) for o, _, _, lo, hi in traced
        ) / values["wall_s"] - 1.0
        samples["trace.overhead_frac"] = len(reps)
        traced[-1][2].save(OUT / f"{run_name}-spans.npz")

    repeated = {name: value for name, value in values.items() if name not in TIMED}
    repeated["raster_sha256"] = hashlib.sha256(outcome.raster).hexdigest()
    repeated["metrics_sha256"] = hashlib.sha256(outcome.metrics_text.encode()).hexdigest()
    problems += check_repeats(f"{source_digest()}/{run_name}", repeated)

    section = "per_layer" if args.trace else "end_to_end"
    print(f"perfbench {w.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} repetitions, {failed} failed")
    for name, value in values.items():
        print(f"  {name:30s} {value:<14.6g} {UNITS[name]:10s} n={samples[name]}")
    if "wall_s.tail" not in values:
        print(f"  {'wall_s.tail':30s} needs 11 untraced repetitions, had {len(walls)}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")
    if outcome.log:
        print("  " + outcome.log.strip().replace("\n", "\n  "))
    document = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench[section]},
    }
    result_dir = OUT / "results"
    result_dir.mkdir(parents=True, exist_ok=True)
    (result_dir / f"{run_name}-trace{args.trace}.json").write_text(json.dumps(
        {"values": values, "samples": samples, "walls": walls,
         "problems": problems, **document}, indent=1, sort_keys=True))
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
