"""Acceptance gate: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Criteria 7 and 10 reuse one pipeline fixture (two 4-point GCV restores, one
solve per grid point, 37 s on a 2-core machine); with criterion 8 (88 s)
they carry the ``slow`` mark.
"""

import json
import math
import time

import numpy as np
import pytest

from proxdeconv import (DeconvProblem, Image, SplittingConfig, deconvolve,
                        diagonal_operator, eval_poisson, frame_bounds,
                        grad_poisson, mae, make_circular_convolution,
                        make_dirac, make_haar_dwt, make_starlet, make_union,
                        prox_affine_fb, prox_affine_tight, prox_poisson,
                        ProxTerm, richardson_lucy, scale_to_peak, simulate,
                        soft_threshold, solve)
from proxdeconv.cli import main
from proxdeconv.rasters import read_raster, write_raster

from oracles import fd_gradient, golden_section, grid_minimize, scene64

PEAKS = (5.0, 30.0, 100.0, 255.0)


def _report(num, title, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d}: {title}{suffix}")
    assert ok, f"criterion {num}: {title}{suffix}"


def _ma_psf(size):
    return Image.from_2d(np.full((size, size), 1.0 / size ** 2))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Simulate + restore the 64x64 scene twice with identical flags."""
    root = tmp_path_factory.mktemp("accept")
    truth_path = str(root / "truth.f64")
    psf_path = str(root / "psf.f64")
    counts_path = str(root / "counts.pgm")
    truth = Image.from_2d(scene64())
    write_raster(truth_path, truth)
    write_raster(psf_path, _ma_psf(7))
    code = main(["simulate", "--input", truth_path, "--psf", psf_path,
                 "--peak", "30", "--seed", "0", "--out", counts_path])
    assert code == 0

    def restore(out_name):
        out = str(root / out_name)
        start = time.perf_counter()
        code = main(["deconvolve", "--counts", counts_path,
                     "--psf", psf_path, "--dict", "starlet:levels=3",
                     "--prior", "synthesis",
                     "--gamma-grid", "0.15,0.2,0.3,0.5",
                     "--mu", "30", "--iters", "1000", "--tol", "1e-5",
                     "--no-timing", "--out", out])
        return out, code, time.perf_counter() - start

    out_a, code_a, dt_a = restore("restored_a.f64")
    out_b, code_b, dt_b = restore("restored_b.f64")
    return {
        "truth": truth, "psf_path": psf_path, "counts_path": counts_path,
        "out_a": out_a, "out_b": out_b, "codes": (code_a, code_b),
        "dt_a": dt_a, "dt_b": dt_b,
    }


def test_criterion_01_poisson_prox_oracle():
    rng = np.random.default_rng(0)
    worst = 0.0
    start = time.perf_counter()
    for _ in range(1000):
        x = float(rng.uniform(-10.0, 10.0))
        beta = float(rng.uniform(1e-9, 5.0))
        y = float(rng.integers(0, 21))

        def objective(t):
            if y > 0.0:
                if t <= 0.0:
                    return math.inf
                fit = t - y * math.log(t)
            else:
                fit = t
            return beta * fit + 0.5 * (t - x) ** 2

        p = float(prox_poisson(np.array([x]), beta, np.array([y]))[0])
        hi = abs(x) + 5.0 * beta + beta * y + 10.0
        t_ref = golden_section(objective, 1e-12 if y > 0.0 else 0.0, hi)
        worst = max(worst, objective(p) - objective(t_ref))
    elapsed = time.perf_counter() - start
    _report(1, "Poisson prox matches 1-D golden-section minimization",
            worst <= 1e-8 and elapsed < 5.0,
            f"max objective gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_poisson_gradient_check():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.5, 10.0, size=100)
    y = rng.integers(0, 21, size=100).astype(np.float64)
    grad = grad_poisson(x, y)
    fd = fd_gradient(lambda v: eval_poisson(v, y), x, step=1e-6)
    rel = np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd)))
    _report(2, "Poisson gradient matches central finite differences",
            rel <= 1e-6, f"max relative error {rel:.2e}")


def test_criterion_03_frame_certification():
    rng = np.random.default_rng(2)
    worst_adj, worst_rec, worst_bound = 0.0, 0.0, 0.0
    for side in (16, 32):
        dicts = [make_dirac(side, side), make_haar_dwt(side, side, 2),
                 make_starlet(side, side, 3),
                 make_union([make_dirac(side, side),
                             make_starlet(side, side, 3)])]
        for d in dicts:
            for _ in range(5):
                x = rng.standard_normal(d.n)
                alpha = rng.standard_normal(d.coeff_dim)
                lhs = float(np.dot(d.analysis(x), alpha))
                rhs = float(np.dot(x, d.synthesis(alpha)))
                scale = max(1.0, abs(lhs), abs(rhs))
                worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
                rec = d.synthesis(d.analysis(x)) - d.c1 * x
                worst_rec = max(worst_rec,
                                float(np.max(np.abs(rec)))
                                / max(1.0, float(np.max(np.abs(x)))))
            lo, hi = frame_bounds(d)
            worst_bound = max(worst_bound, abs(lo - d.c1) / d.c1,
                              abs(hi - d.c2) / d.c2)
    ok = worst_adj <= 1e-10 and worst_rec <= 1e-10 and worst_bound <= 0.01
    _report(3, "dictionaries certify adjoint, tightness, and frame bounds",
            ok, f"adjoint {worst_adj:.1e}, reconstruction {worst_rec:.1e}, "
                f"bounds {worst_bound:.2%}")


def test_criterion_04_composed_prox_cross_check():
    rng = np.random.default_rng(3)
    # Parseval starlet: synthesis o analysis = I on images, so composing f
    # with the synthesis map (the dictionary itself) peels in closed form.
    frame = make_starlet(16, 16, 2)
    y = rng.integers(0, 9, size=frame.out_dim).astype(np.float64)
    prox_family = lambda v, s: prox_poisson(v, s, y)
    x = rng.uniform(0.5, 6.0, size=frame.in_dim)
    direct = prox_affine_tight(prox_family, frame, 1.0, x, scale=0.7)
    iterative, _ = prox_affine_fb(prox_family, frame, 1.0, x, inner_iters=60,
                                  scale=0.7, c1=1.0)
    agreement = float(np.max(np.abs(direct - iterative)))

    # General frame diag(1, 2): f = ||. - b||^2 / 2 composed with F. The
    # fixed point solves (I + F^T F) p = x + F^T b; iterate error ratios at
    # tau = 2/(c1+c2) must stay within the predicted contraction factor.
    fop = diagonal_operator([1.0, 2.0])
    b = np.array([1.5, -2.0])
    quad = lambda v, s: (v + s * b) / (1.0 + s)
    x2 = np.array([3.0, -1.0])
    target = np.linalg.solve(np.diag([2.0, 5.0]),
                             x2 + np.array([1.0, 2.0]) * b)
    errors = []
    for iters in range(1, 14):
        p, _ = prox_affine_fb(quad, fop, 4.0, x2, inner_iters=iters, c1=1.0)
        errors.append(float(np.linalg.norm(p - target)))
    ratios = [b_ / a_ for a_, b_ in zip(errors, errors[1:]) if a_ > 1e-14]
    rate = max(ratios[2:])
    bound = (4.0 - 1.0) / (4.0 + 1.0) + 0.05
    _report(4, "tight-frame prox equals dual FB; contraction within bound",
            agreement <= 1e-6 and rate <= bound,
            f"agreement {agreement:.1e}, rate {rate:.3f} <= {bound:.2f}")


def test_criterion_05_splitting_vs_oracles():
    start = time.perf_counter()
    gaps = []

    a = np.array([2.0, -1.0, 3.0])
    terms = [ProxTerm(prox=lambda v, s: (v + s * a) / (1.0 + s), weight=1.0,
                      label="quad")]
    x, _ = solve(terms, SplittingConfig(max_outer=2000, tol=1e-12), np.zeros(3))
    gaps.append(0.5 * float(np.sum((x - a) ** 2)))

    positive = lambda v, s: np.maximum(v, 0.0)
    terms = [ProxTerm(prox=lambda v, s: (v - 3.0 * s) / (1.0 + s), weight=0.5,
                      label="quad"),
             ProxTerm(prox=positive, weight=0.5, label="cone")]
    x, _ = solve(terms, SplittingConfig(max_outer=2000, tol=1e-13),
                 np.array([5.0]))
    x = np.maximum(x, 0.0)
    gaps.append(0.5 * float((x[0] + 3.0) ** 2) - 4.5)

    b = np.array([2.0, -1.0])
    terms = [ProxTerm(prox=lambda v, s: (v + s * b) / (1.0 + s),
                      weight=1.0 / 3.0, label="quad"),
             ProxTerm(prox=lambda v, s: soft_threshold(v, s), weight=1.0 / 3.0,
                      label="l1"),
             ProxTerm(prox=positive, weight=1.0 / 3.0, label="cone")]
    x, _ = solve(terms, SplittingConfig(max_outer=2000, tol=1e-13), np.zeros(2))
    x = np.maximum(x, 0.0)
    value = (0.5 * float(np.sum((x - b) ** 2)) + float(np.sum(np.abs(x))))
    gaps.append(value - 2.0)
    analytic_gap = max(gaps)

    counts = Image.from_2d([[4.0, 4.0, 0.0, 0.0]])
    blur = make_circular_convolution(Image.from_2d([[0.5, 0.5]]), 4, 1,
                                     origin=(0, 0))

    def ring_batch(pts):
        eta = 0.5 * pts + 0.5 * np.roll(pts, 1, axis=1)
        yv = np.array([4.0, 4.0, 0.0, 0.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = np.where(yv > 0.0,
                           np.where(eta > 0.0, eta - yv * np.log(eta), np.inf),
                           eta)
        return np.sum(fit, axis=1) + 0.1 * np.sum(np.abs(pts), axis=1)

    _, oracle_value = grid_minimize(ring_batch, [0.0] * 4, [8.0] * 4)
    ring_gap = 0.0
    for prior in ("synthesis", "analysis"):
        prob = DeconvProblem(
            counts=counts, blur=blur, dictionary=make_dirac(4, 1), gamma=0.1,
            prior=prior,
            splitting=SplittingConfig(mu=1.0, max_outer=2000, tol=1e-13))
        res = deconvolve(prob)
        value = float(ring_batch(res.restored.data[None, :])[0])
        ring_gap = max(ring_gap, value - oracle_value)
    elapsed = time.perf_counter() - start
    _report(5, "splitting solver reaches analytic and grid-search optima",
            analytic_gap <= 1e-6 and ring_gap <= 1e-4 and elapsed < 30.0,
            f"analytic gap {analytic_gap:.1e}, four-pixel gap {ring_gap:.1e},"
            f" {elapsed:.1f}s")


def test_criterion_06_orthobasis_prior_equivalence():
    truth = np.full((32, 32), 0.35)
    yy, xx = np.mgrid[0:32, 0:32]
    d2 = ((yy - 19.0) ** 2 + (xx - 11.0) ** 2) / 49.0
    truth = truth + np.where(d2 <= 1.0, 0.5 * (1.0 - 0.5 * d2), 0.0)
    truth[6:11, 18:28] += 0.35
    truth += 0.8 * np.exp(-((yy - 26.0) ** 2 + (xx - 25.0) ** 2) / 2.6 ** 2)
    counts = simulate(Image.from_2d(truth),
                      make_circular_convolution(_ma_psf(3), 32, 32), 100.0, 11)
    results = {}
    for prior in ("synthesis", "analysis"):
        prob = DeconvProblem(
            counts=counts,
            blur=make_circular_convolution(_ma_psf(3), 32, 32),
            dictionary=make_haar_dwt(32, 32, 2), gamma=1.0, prior=prior,
            splitting=SplittingConfig(mu=100.0, max_outer=3000, tol=1e-9))
        results[prior] = deconvolve(prob)
    gap = mae(results["synthesis"].restored, results["analysis"].restored)
    ok = gap <= 1e-5 and results["synthesis"].converged \
        and results["analysis"].converged
    _report(6, "analysis and synthesis priors agree on an orthobasis",
            ok, f"MAE gap {gap:.2e}")


@pytest.mark.slow
def test_criterion_07_end_to_end_restoration(pipeline):
    truth = pipeline["truth"]
    scaled = scale_to_peak(truth, 30.0)
    counts = read_raster(pipeline["counts_path"])
    blur = make_circular_convolution(_ma_psf(7), 64, 64)
    restored = read_raster(pipeline["out_a"])
    mae_star = mae(restored, scaled)
    mae_noisy = mae(counts, scaled)
    mae_rl = mae(richardson_lucy(counts, blur, 50), scaled)
    ok = (mae_star < mae_noisy and mae_star < mae_rl
          and pipeline["dt_a"] < 60.0
          and pipeline["codes"][0] in (0, 2))
    _report(7, "GCV-tuned restoration beats counts and Richardson-Lucy",
            ok, f"MAE {mae_star:.4f} vs counts {mae_noisy:.4f} "
                f"vs RL50 {mae_rl:.4f}, {pipeline['dt_a']:.1f}s")


@pytest.mark.slow
def test_criterion_08_intensity_level_trend():
    truth = Image.from_2d(scene64())
    blur = make_circular_convolution(_ma_psf(7), 64, 64)
    dictionary = make_starlet(64, 64, 3)
    rows = []
    worst_improvement = math.inf
    for peak in PEAKS:
        gamma = 0.2 * math.sqrt(30.0 / peak)
        scaled = scale_to_peak(truth, peak)
        rel_maes, improvements = [], []
        for seed in range(100, 105):
            counts = simulate(truth, blur, peak, seed)
            prob = DeconvProblem(
                counts=counts, blur=blur, dictionary=dictionary, gamma=gamma,
                prior="synthesis",
                splitting=SplittingConfig(mu=peak, max_outer=1000, tol=1e-7))
            res = deconvolve(prob)
            err = mae(res.restored, scaled)
            rel_maes.append(err / float(np.mean(scaled.data)))
            improvements.append(mae(counts, scaled) - err)
        worst_improvement = min(worst_improvement, min(improvements))
        rows.append((peak, gamma, float(np.mean(rel_maes)),
                     float(np.mean(improvements))))
    print("    peak  gamma   rel-MAE  improvement")
    for peak, gamma, rel, imp in rows:
        print(f"    {peak:5g}  {gamma:.4f}  {rel:.4f}   {imp:+.4f}")
    finite = all(math.isfinite(r[2]) for r in rows)
    _report(8, "restoration helps at every intensity level",
            finite and worst_improvement >= 0.0,
            f"min per-replicate improvement {worst_improvement:+.4f}")


def test_criterion_09_stopping_contract(tmp_path):
    y = np.zeros((6, 6))
    y[1:4, 2:5] = [[3, 0, 7], [0, 5, 0], [9, 0, 4]]
    counts_path = str(tmp_path / "counts.pgm")
    psf_path = str(tmp_path / "psf.f64")
    write_raster(counts_path, Image.from_2d(y))
    write_raster(psf_path, Image.from_2d([[1.0]]))
    base = ["deconvolve", "--counts", counts_path, "--psf", psf_path,
            "--dict", "dirac", "--gamma", "0.5"]

    out_ok = str(tmp_path / "converged.f64")
    code_ok = main(base + ["--tol", "1e-5", "--iters", "3000",
                           "--out", out_ok])
    with open(out_ok + ".metrics.json") as fh:
        metrics_ok = json.load(fh)

    out_cap = str(tmp_path / "capped.f64")
    code_cap = main(base + ["--tol", "1e-14", "--iters", "2",
                            "--out", out_cap])
    with open(out_cap + ".metrics.json") as fh:
        metrics_cap = json.load(fh)

    ok = (code_ok == 0 and metrics_ok["converged"]
          and metrics_ok["relative_change_trace"][-1] <= 1e-5
          and code_cap == 2 and not metrics_cap["converged"]
          and metrics_cap["relative_change_trace"][-1] > 1e-14)
    _report(9, "exit codes and final trace respect the stopping rule",
            ok, f"converged run exit {code_ok}, capped run exit {code_cap}")


@pytest.mark.slow
def test_criterion_10_bit_identical_reruns(pipeline):
    with open(pipeline["out_a"], "rb") as fh:
        raster_a = fh.read()
    with open(pipeline["out_b"], "rb") as fh:
        raster_b = fh.read()
    with open(pipeline["out_a"] + ".metrics.json", "rb") as fh:
        metrics_a = fh.read()
    with open(pipeline["out_b"] + ".metrics.json", "rb") as fh:
        metrics_b = fh.read()
    ok = raster_a == raster_b and metrics_a == metrics_b
    _report(10, "identical flags reproduce rasters and metrics bit for bit",
            ok, f"raster {len(raster_a)} bytes, metrics {len(metrics_a)} bytes")
