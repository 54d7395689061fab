"""The benchmark's workloads: generated inputs, set-up, one repetition, checks.

Every input comes from the workload seed: the scene is fixed (the formula of
``tests/oracles.scene64`` at any size), the PSF is a 7x7 box, and the
counts are drawn by ``simulate`` at peak 30 with the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from proxdeconv import cli, deconv
from proxdeconv.deconv import DeconvProblem, mae, result_metrics, scale_to_peak
from proxdeconv.dictionary import parse_dictionary_spec
from proxdeconv.operators import Image, make_circular_convolution
from proxdeconv.rasters import read_raster, write_raster
from proxdeconv.splitting import SplittingConfig

from tracing import MAIN, Tracer

PEAK = 30.0
PSF_SIZE = 7
MU = 30.0
TOL = 1e-5


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    prior: str
    max_outer: int
    grid: tuple[float, ...]  # one entry: fixed gamma; several: GCV over the grid
    via_cli: bool
    levels: int = 3          # starlet scales

    @property
    def dict_spec(self) -> str:
        return f"starlet:levels={self.levels}"


WORKLOADS = {w.name: w for w in (
    Workload("cli_gcv_64", 64, "synthesis", 1000, (0.15, 0.2, 0.3, 0.5), True),
    Workload("synth_starlet_256", 256, "synthesis", 100, (0.2,), False),
    Workload("analysis_starlet_64", 64, "analysis", 500, (0.2,), False),
)}


def scene(size: int) -> np.ndarray:
    """Piecewise-smooth scene: background, shaded disk, block, bright spot."""
    h = w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w), 0.08)
    cy, cx, r = 0.62 * h, 0.36 * w, 0.23 * min(h, w)
    d2 = ((yy - cy) ** 2 + (xx - cx) ** 2) / r ** 2
    disk = d2 <= 1.0
    img[disk] += 0.55 * (1.0 - 0.5 * d2[disk])
    img[int(0.15 * h):int(0.38 * h), int(0.52 * w):int(0.90 * w)] += 0.40
    img += 0.9 * np.exp(-(((yy - 0.8 * h) ** 2 + (xx - 0.78 * w) ** 2)
                          / (0.035 * min(h, w)) ** 2))
    return img


@dataclass(frozen=True)
class Inputs:
    seed: int
    reference: Image        # peak-scaled truth, what MAE is measured against
    psf: Image
    counts: Image
    noisy_rel_mae: float    # relative MAE of the counts themselves
    saturated: float        # minimum of the Poisson fidelity, sum(y - y log y)
    workdir: Path


def make_inputs(w: Workload, seed: int, workdir: Path) -> Inputs:
    truth = Image.from_2d(scene(w.size))
    psf = Image.from_2d(np.full((PSF_SIZE, PSF_SIZE), 1.0 / PSF_SIZE ** 2))
    blur = make_circular_convolution(psf, w.size, w.size)
    counts = deconv.simulate(truth, blur, PEAK, seed)
    reference = scale_to_peak(truth, PEAK)
    y = counts.data[counts.data > 0]
    workdir.mkdir(parents=True, exist_ok=True)
    if w.via_cli:
        write_raster(str(workdir / "truth.f64"), truth)
        write_raster(str(workdir / "psf.f64"), psf)
    return Inputs(seed=seed, reference=reference, psf=psf, counts=counts,
                  noisy_rel_mae=relative_error(counts.data, reference),
                  saturated=float(np.sum(y - y * np.log(y))), workdir=workdir)


def relative_error(restored: np.ndarray, reference: Image) -> float:
    return mae(restored, reference) / float(np.mean(reference.data))


def build_problem(w: Workload, inputs: Inputs,
                  tracer: Tracer | None = None) -> DeconvProblem:
    """Blur operator, dictionary and problem from the generated inputs."""
    blur = make_circular_convolution(inputs.psf, w.size, w.size)
    dictionary = parse_dictionary_spec(w.dict_spec, w.size, w.size)
    if tracer is not None:
        blur, dictionary = tracer.blur(blur), tracer.dictionary(dictionary)
    return DeconvProblem(counts=inputs.counts, blur=blur, dictionary=dictionary,
                         gamma=w.grid[0], prior=w.prior,
                         splitting=SplittingConfig(mu=MU, max_outer=w.max_outer,
                                                   tol=TOL))


@dataclass
class Outcome:
    """What one repetition produced."""

    wall_s: float
    restored: np.ndarray
    raster: bytes          # the restored raster's bytes
    metrics_text: str      # the metrics JSON document as written
    log: str = ""


class RepetitionFailed(Exception):
    pass


def run_repetition(w: Workload, inputs: Inputs, index: int,
                   tracer: Tracer | None) -> Outcome:
    """One repetition; the wall time covers only the library or CLI calls."""
    if w.via_cli:
        return _run_cli(w, inputs, index, tracer)
    problem = build_problem(w, inputs, tracer)
    start = time.perf_counter()
    result = deconv.deconvolve(problem)
    wall = time.perf_counter() - start
    # --no-timing form, as the CLI writes it, so reruns compare byte for byte.
    text = json.dumps(result_metrics(result, include_timing=False),
                      sort_keys=True, indent=2) + "\n"
    restored = result.restored.data
    return Outcome(wall, restored, restored.astype("<f8").tobytes(), text)


def _run_cli(w: Workload, inputs: Inputs, index: int,
             tracer: Tracer | None) -> Outcome:
    outdir = inputs.workdir / f"rep{index}"
    outdir.mkdir(exist_ok=True)
    counts_path = str(outdir / "counts.pgm")
    out_path = str(outdir / "restored.f64")
    simulate_argv = ["simulate", "--input", str(inputs.workdir / "truth.f64"),
                     "--psf", str(inputs.workdir / "psf.f64"),
                     "--peak", f"{PEAK:g}", "--seed", str(inputs.seed),
                     "--out", counts_path]
    deconvolve_argv = ["deconvolve", "--counts", counts_path,
                       "--psf", str(inputs.workdir / "psf.f64"),
                       "--dict", w.dict_spec, "--prior", w.prior,
                       "--gamma-grid", ",".join(f"{g:g}" for g in w.grid),
                       "--mu", f"{MU:g}", "--iters", str(w.max_outer),
                       "--tol", f"{TOL:g}", "--no-timing", "--out", out_path]
    main = tracer.wrap(MAIN, cli.main) if tracer is not None else cli.main
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        start = time.perf_counter()
        code = main(simulate_argv)
        if code == 0:
            code = main(deconvolve_argv)
        wall = time.perf_counter() - start
    if code not in (0, 2):
        raise RepetitionFailed(f"proxdeconv exited with code {code}")
    if not np.array_equal(read_raster(counts_path).data, inputs.counts.data):
        raise RepetitionFailed("CLI counts differ from simulate() at the same seed")
    with open(out_path, "rb") as fh:
        raster = fh.read()
    with open(out_path + ".metrics.json", encoding="ascii") as fh:
        text = fh.read()
    return Outcome(wall, read_raster(out_path).data, raster, text, log.getvalue())


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def check(inputs: Inputs, outcome: Outcome, first: Outcome | None) -> list[str]:
    """Reasons the repetition's output is wrong; empty when it is correct.

    ``first`` is the run's first correct repetition: same seed, so the
    raster and the metrics must match it byte for byte.
    """
    problems = []
    x = outcome.restored
    if not np.all(np.isfinite(x)):
        problems.append("restoration has non-finite samples")
    elif float(np.min(x)) < 0.0:
        problems.append("restoration has negative samples")
    else:
        rel = relative_error(x, inputs.reference)
        if not rel < inputs.noisy_rel_mae:
            problems.append(f"relative MAE {rel:.4f} not below the counts' "
                            f"{inputs.noisy_rel_mae:.4f}")
    try:
        json.loads(outcome.metrics_text, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"metrics JSON is not strict: {exc}")
    if first is not None and (outcome.raster != first.raster
                              or outcome.metrics_text != first.metrics_text):
        problems.append("raster or metrics differ from the first repetition")
    return problems
