"""Self-test of the benchmark's instruments, kept out of the pytest suite.

    python3 perfbench/selftest.py

Checks, on small cases that run in seconds:

* traced repetitions reproduce untraced ones bit for bit (library solves of
  both priors, and the CLI pipeline's raster and metrics), so the wrappers
  do not change results;
* the FFT counts computed through the wrapped operators match a hand count
  of the solver's calls on a 16x16 ``starlet:levels=2`` problem;
* the reference kernel ticks once per outer iteration and leaves results
  bit-identical, and in a traced repetition each tick is a span of its own
  directly under ``solve``, so no library span holds its time;
* the benchmark's scene equals ``tests/oracles.scene64`` at 64x64;
* the metrics named in BENCHMARK.json are the ones the runner computes,
  with the same units.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from proxdeconv.dictionary import make_starlet  # noqa: E402
from proxdeconv.operators import make_circular_convolution  # noqa: E402

from clock import Reference  # noqa: E402
from run import OUT, UNITS  # noqa: E402
from tracing import SOLVE, TICK, Tracer, recording_solves  # noqa: E402
from workloads import Workload, make_inputs, run_repetition, scene  # noqa: E402

LEVELS = 2
OUTER = 5
INNER = 10  # ComposeProxConfig default
# 2-D FFTs per call: blur apply/adjoint 2; starlet synthesis/analysis one per
# band (LEVELS + 1) plus one on the image side.
BLUR_FFT = 2
DICT_FFT = LEVELS + 2
# One truncated dual FB prox through the blur: one adjoint to start, then an
# apply and an adjoint per inner step.
FB_BLUR = BLUR_FFT * (1 + 2 * INNER)
# Synthesis outer iteration: fidelity peel (synthesis, FB through H,
# analysis), positivity peel (synthesis, analysis), objective (synthesis,
# blur apply); soft-thresholding computes none.
SYNTHESIS_PER_ITER = 5 * DICT_FFT + FB_BLUR + BLUR_FFT
# Analysis outer iteration: FB through H, FB through the analysis operator
# (one synthesis to start, then analysis + synthesis per inner step),
# objective (blur apply, analysis); projection computes none.
ANALYSIS_PER_ITER = FB_BLUR + DICT_FFT * (1 + 2 * INNER) + BLUR_FFT + DICT_FFT

failures = []


def expect(label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    if not ok:
        failures.append(label)


def per_call_counts(inputs) -> None:
    tracer = Tracer()
    blur = tracer.blur(make_circular_convolution(inputs.psf, 16, 16))
    dictionary = tracer.dictionary(make_starlet(16, 16, LEVELS))
    x = inputs.counts.data
    blur.adjoint(blur.apply(x))
    dictionary.synthesis(dictionary.analysis(x))
    expect("blur apply + adjoint count 4 FFTs",
           tracer.fft2["operators"] == 2 * BLUR_FFT, str(tracer.fft2))
    expect(f"starlet:{LEVELS} analysis + synthesis count {2 * DICT_FFT} FFTs",
           tracer.fft2["dictionary"] == 2 * DICT_FFT, str(tracer.fft2))


def solver_counts(prior: str, per_iter: int) -> None:
    w = Workload(f"{prior}_16", 16, prior, OUTER, (0.2,), False, LEVELS)
    inputs = make_inputs(w, 0, OUT / "selftest" / w.name)
    plain = run_repetition(w, inputs, 0, None)
    tracer = Tracer()
    with tracer.installed():
        traced = run_repetition(w, inputs, 1, tracer)
    layers = tracer.layer_metrics(1)
    expect(f"{prior}: outer iterations counted", layers["splitting.outer_iters"] == OUTER)
    expect(f"{prior}: {per_iter} FFTs per outer iteration by hand count",
           layers["fft2_per_outer_iter"] == per_iter,
           f"computed {layers['fft2_per_outer_iter']}")
    steps = INNER if prior == "synthesis" else 2 * INNER
    expect(f"{prior}: {steps} inner FB steps per outer iteration",
           layers["inner_steps_per_outer_iter"] == steps,
           f"computed {layers['inner_steps_per_outer_iter']}")
    expect(f"{prior}: traced restoration is bit-identical to untraced",
           plain.raster == traced.raster and plain.metrics_text == traced.metrics_text)


def cli_reruns() -> None:
    w = Workload("cli_16", 16, "synthesis", OUTER, (5.0, 10.0), True, LEVELS)
    inputs = make_inputs(w, 0, OUT / "selftest" / w.name)
    solves = []
    with recording_solves(solves):
        plain = run_repetition(w, inputs, 0, None)
    tracer = Tracer()
    with tracer.installed():
        traced = run_repetition(w, inputs, 1, tracer)
    same = plain.raster == traced.raster and plain.metrics_text == traced.metrics_text
    expect("CLI: traced raster and metrics are byte-identical to untraced", same)
    layers = tracer.layer_metrics(len(w.grid))
    expect("CLI: solves recorded untraced and traced", len(solves) == 3
           and layers["deconv.solves"] == 3, f"{len(solves)}, {layers['deconv.solves']}")
    expect("CLI: useful solve ratio is grid points / solves",
           layers["deconv.useful_solve_ratio"] == 2 / 3)
    expect("CLI: raster I/O traced", layers["rasters.bytes"] > 0
           and layers["rasters.read_s"] > 0 and layers["rasters.write_s"] > 0)


def reference_ticks(prior: str) -> None:
    w = Workload(f"{prior}_64", 64, prior, OUTER, (0.2,), False)
    inputs = make_inputs(w, 0, OUT / "selftest" / w.name)
    plain = run_repetition(w, inputs, 0, None)
    reference = Reference(w.size)
    with reference.ticking():
        ticked = run_repetition(w, inputs, 1, None)
    expect(f"{prior}: one reference tick per outer iteration",
           len(reference.samples) == OUTER, f"{len(reference.samples)} ticks")
    expect(f"{prior}: ticking leaves the restoration bit-identical",
           plain.raster == ticked.raster and plain.metrics_text == ticked.metrics_text)
    tracer = Tracer()
    with tracer.installed(), reference.ticking(tracer.wrap(TICK, reference.tick)):
        both = run_repetition(w, inputs, 2, tracer)
    expect(f"{prior}: traced and ticking leaves the restoration bit-identical",
           plain.raster == both.raster and plain.metrics_text == both.metrics_text)
    names = np.frombuffer(tracer.name_id, dtype=np.int32)
    parents = np.frombuffer(tracer.parent, dtype=np.int32)[names == tracer._ids[TICK]]
    expect(f"{prior}: traced ticks are spans directly under solve",
           len(parents) == OUTER and bool(np.all(names[parents] == tracer._ids[SOLVE])),
           f"{len(parents)} tick spans")


def scene_and_manifest() -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from oracles import scene64
    except ImportError:
        expect("scene matches tests/oracles.scene64", False, "tests/oracles.py not found")
    else:
        expect("scene matches tests/oracles.scene64",
               np.array_equal(scene(64), scene64()))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    named = bench["end_to_end"] + bench["per_layer"]
    wrong = [m["name"] for m in named if UNITS.get(m["name"]) != m["unit"]]
    expect("BENCHMARK.json metrics match the runner's names and units", not wrong,
           ", ".join(wrong))


def main() -> int:
    inputs = make_inputs(Workload("ops_16", 16, "synthesis", OUTER, (0.2,), False, LEVELS),
                         0, OUT / "selftest" / "ops_16")
    per_call_counts(inputs)
    solver_counts("synthesis", SYNTHESIS_PER_ITER)
    solver_counts("analysis", ANALYSIS_PER_ITER)
    reference_ticks("synthesis")
    reference_ticks("analysis")
    cli_reruns()
    scene_and_manifest()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
