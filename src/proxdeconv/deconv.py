"""Poisson deconvolution: solver assembly, baselines, and diagnostics.

Restores x >= 0 from counts y ~ Poisson(H x) with H a known blur, by
splitting the objective into three proximable terms and running the
product-space solver:

* synthesis prior (solve over coefficients alpha, x = Phi alpha):
      fidelity o H o Phi  +  gamma ||alpha||_1  +  positivity o Phi
* analysis prior (solve over pixels x):
      fidelity o H  +  gamma ||Phi^T x||_1  +  positivity

Compositions through tight dictionaries use the closed-form peel; every
other composition runs the truncated dual forward-backward prox
(``DeconvProblem.inner_iters`` steps per call) with its dual warm-started
across outer iterations. Also here: the Richardson-Lucy
baseline, a GCV score for picking gamma, Poisson count simulation, and MAE
metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dictionary import FrameDictionary, analysis_operator, synthesis_operator
from .errors import DimensionMismatchError
from .operators import Image, LinearOperator, compose
from .prox_compose import ProxFamily, WarmStartedProx, prox_affine_tight
from .prox_core import eval_poisson, project_positive, prox_poisson, soft_threshold
from .splitting import ProxTerm, SplittingConfig, SplittingState, solve

Array = np.ndarray

PRIORS = ("synthesis", "analysis")


@dataclass(frozen=True)
class DeconvProblem:
    """One restoration instance.

    ``splitting.mu`` is the user-facing step scale: the three equal-weight
    terms are proxed at scale mu/3 each (so the sparsity step thresholds at
    mu * gamma / 3). ``splitting.init`` is ignored; the solver starts at the
    analysis coefficients of y (synthesis prior) or at y itself (analysis
    prior). ``inner_iters`` is the number of dual forward-backward steps per
    call of every composed prox that has no closed form.
    ``trace_objective`` records fidelity + penalty per iteration at the cost
    of one extra objective evaluation.
    """

    counts: Image
    blur: LinearOperator
    dictionary: FrameDictionary
    gamma: float
    prior: str = "synthesis"
    splitting: SplittingConfig = field(default_factory=SplittingConfig)
    inner_iters: int = 10
    trace_objective: bool = True

    def __post_init__(self):
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}, got {self.prior!r}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.inner_iters < 1:
            raise ValueError(f"inner_iters must be >= 1, got {self.inner_iters}")
        if not self.counts.is_counts():
            raise ValueError("counts image must hold finite non-negative integers")
        n = self.counts.n
        if self.blur.in_dim != n or self.blur.out_dim != n:
            raise DimensionMismatchError(expected=n, actual=self.blur.in_dim,
                                         context="DeconvProblem blur")
        if self.dictionary.n != n:
            raise DimensionMismatchError(expected=n, actual=self.dictionary.n,
                                         context="DeconvProblem dictionary")


@dataclass(frozen=True)
class DeconvResult:
    restored: Image
    coefficients: Array | None
    state: SplittingState
    gamma_used: float
    wall_time_s: float
    clip_mass: float

    @property
    def converged(self) -> bool:
        return self.state.converged


def _peel(prox_f: ProxFamily, phi: LinearOperator, c: float) -> ProxFamily:
    """prox of f o phi in closed form, for a tight phi phi^T = c I."""
    return lambda v, s: prox_affine_tight(prox_f, phi, c, v, scale=s,
                                          check=False)


def _fb(prox_f: ProxFamily, op: LinearOperator, p: DeconvProblem,
        c1: float | None = None, c2: float | None = None) -> ProxFamily:
    """prox of f o op by warm-started dual FB; c2 defaults to ||op||^2."""
    if c2 is None:
        c2 = op.spectral_bound ** 2
    return WarmStartedProx(prox_f, op, c2, p.inner_iters, c1=c1)


def _terms(p: DeconvProblem) -> list[ProxTerm]:
    """Data fidelity, sparsity and positivity, each proxed at its scale.

    A term composed with the tight synthesis operator peels off in closed
    form; every other composed term runs a dual FB solve. The prox families
    look the elementwise proxes up by name on each call.
    """
    y, gamma, h, d = p.counts.data, p.gamma, p.blur, p.dictionary
    poisson = lambda v, s: prox_poisson(v, s, y)
    sparsity = lambda v, s: soft_threshold(v, s * gamma)
    positive = lambda v, s: project_positive(v)
    if p.prior == "analysis":
        proxes = (_fb(poisson, h, p),
                  _fb(sparsity, analysis_operator(d), p, d.c1, d.c2), positive)
    elif d.tight:
        phi = synthesis_operator(d)
        proxes = (_peel(_fb(poisson, h, p), phi, d.c1), sparsity,
                  _peel(positive, phi, d.c1))
    else:
        phi = synthesis_operator(d)
        proxes = (_fb(poisson, compose(h, phi), p), sparsity,
                  _fb(positive, phi, p, d.c1, d.c2))
    labels = ("data-fidelity", "sparsity", "positivity")
    return [ProxTerm(prox=f, weight=1.0 / 3.0, label=label)
            for f, label in zip(proxes, labels)]


def fidelity_penalty_synthesis(p: DeconvProblem, alpha) -> float:
    """Fidelity plus penalty at coefficients alpha (no positivity indicator)."""
    x = p.dictionary.synthesis(alpha)
    return eval_poisson(p.blur.apply(x), p.counts.data) + p.gamma * float(
        np.sum(np.abs(alpha)))


def fidelity_penalty_analysis(p: DeconvProblem, x) -> float:
    eta = p.blur.apply(x)
    coeffs = p.dictionary.analysis(x)
    return eval_poisson(eta, p.counts.data) + p.gamma * float(np.sum(np.abs(coeffs)))


def objective_synthesis(p: DeconvProblem, alpha, feasibility_tol: float = 0.0) -> float:
    """Full objective including the positivity indicator on Phi alpha."""
    x = p.dictionary.synthesis(alpha)
    if float(np.min(x)) < -feasibility_tol:
        return float("inf")
    return fidelity_penalty_synthesis(p, alpha)


def objective_analysis(p: DeconvProblem, x, feasibility_tol: float = 0.0) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    if x.size and float(np.min(x)) < -feasibility_tol:
        return float("inf")
    return fidelity_penalty_analysis(p, x)


def deconvolve(problem: DeconvProblem) -> DeconvResult:
    """Solve one instance with the prior selected in the problem."""
    start = time.perf_counter()
    # Per-term prox scale mu/omega with the user mu mapped so each of the
    # three equal-weight terms is proxed at scale mu/3 (DR converges for any
    # uniform rescaling of the terms' prox scale).
    k = 3
    cfg = replace(problem.splitting, mu=problem.splitting.mu / (k * k))
    terms = _terms(problem)
    if problem.prior == "synthesis":
        init = problem.dictionary.analysis(problem.counts.data)
        objective = (lambda a: fidelity_penalty_synthesis(problem, a)) \
            if problem.trace_objective else None
        alpha, state = solve(terms, replace(cfg, init=init), objective)
        raw = problem.dictionary.synthesis(alpha)
        coefficients = alpha
    else:
        init = problem.counts.data
        objective = (lambda x: fidelity_penalty_analysis(problem, x)) \
            if problem.trace_objective else None
        raw, state = solve(terms, replace(cfg, init=init), objective)
        coefficients = None
    clip_mass = float(np.sum(np.maximum(-raw, 0.0)))
    restored = Image(problem.counts.width, problem.counts.height,
                     np.maximum(raw, 0.0))
    wall = time.perf_counter() - start
    return DeconvResult(restored=restored, coefficients=coefficients,
                        state=state, gamma_used=problem.gamma,
                        wall_time_s=wall, clip_mass=clip_mass)


def richardson_lucy(counts: Image, blur: LinearOperator, iters: int,
                    x0: Image | None = None) -> Image:
    """Multiplicative Richardson-Lucy iterate, flux-preserving baseline.

    x <- x * H^T(y / (H x)) / H^T(1), with the blurred estimate and the
    normalizer floored at 1e-12 before division. The default start is the
    flat image at the mean count level (floored at 1).
    """
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if not counts.is_counts():
        raise ValueError("Richardson-Lucy expects a count image")
    y = counts.data
    if x0 is None:
        x = np.full_like(y, max(float(np.mean(y)), 1.0))
    else:
        x = np.asarray(x0.data, dtype=np.float64).copy()
        if x.size != y.size:
            raise DimensionMismatchError(expected=y.size, actual=x.size,
                                         context="richardson_lucy x0")
        if np.any(x <= 0.0):
            raise ValueError("richardson_lucy start must be strictly positive")
    floor = 1e-12
    normalizer = np.maximum(blur.adjoint(np.ones_like(y)), floor)
    for _ in range(iters):
        blurred = np.maximum(blur.apply(x), floor)
        x = x * blur.adjoint(y / blurred) / normalizer
    return Image(counts.width, counts.height, x)


def mae(a, b) -> float:
    """Mean absolute error between two rasters (or flat arrays)."""
    av = a.data if isinstance(a, Image) else np.asarray(a, dtype=np.float64).ravel()
    bv = b.data if isinstance(b, Image) else np.asarray(b, dtype=np.float64).ravel()
    if av.size != bv.size:
        raise DimensionMismatchError(expected=av.size, actual=bv.size, context="mae")
    return float(np.mean(np.abs(av - bv)))


def relative_mae(estimate, truth) -> float:
    """MAE normalized by the mean of the reference image."""
    tv = truth.data if isinstance(truth, Image) else np.asarray(truth, np.float64).ravel()
    denom = float(np.mean(tv))
    if denom <= 0.0:
        raise ValueError("relative MAE needs a reference with positive mean")
    return mae(estimate, truth) / denom


def gcv_score(gamma: float, counts: Image, blur: LinearOperator,
              restored: Image, coefficients) -> float:
    """Generalized cross-validation score on variance-stabilized residuals.

    score = || 2 sqrt(y + 3/8) - 2 sqrt(H x + 3/8) ||^2 / (n - df)^2 with
    df = #{ |coeff_i| >= gamma } as the active-coefficient proxy for the
    degrees of freedom. Requires df < n. Scans break ties toward larger
    gamma; in practice the score is biased toward over-smoothing, which is
    the safe direction for count data.
    """
    if not gamma > 0.0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    y = counts.data
    n = y.size
    coeffs = np.asarray(coefficients, dtype=np.float64).ravel()
    df = int(np.count_nonzero(np.abs(coeffs) >= gamma))
    if df >= n:
        raise ValueError(f"degrees of freedom {df} >= pixel count {n}; "
                         "GCV denominator vanishes")
    eta = blur.apply(restored.data)
    resid = 2.0 * np.sqrt(y + 0.375) - 2.0 * np.sqrt(np.maximum(eta, 0.0) + 0.375)
    return float(np.sum(resid * resid)) / float(n - df) ** 2


def _score_coefficients(problem: DeconvProblem, result: DeconvResult) -> Array:
    if problem.prior == "synthesis":
        return result.coefficients
    return problem.dictionary.analysis(result.restored.data)


def select_gamma_gcv(grid, problem: DeconvProblem, truth: Image | None = None
                     ) -> tuple[float, list[tuple[float, float, float | None]]]:
    """Solve the problem across a gamma grid and pick the GCV minimizer.

    Returns (gamma_star, rows) with one (gamma, gcv, mae-or-None) row per
    grid point; ties go to the larger gamma. The grid must be strictly
    increasing.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("gamma grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"gamma grid must be strictly increasing, got {grid}")
    rows: list[tuple[float, float, float | None]] = []
    best_gamma, best_score = None, None
    for gamma in grid:
        inst = replace(problem, gamma=gamma)
        result = deconvolve(inst)
        score = gcv_score(gamma, problem.counts, problem.blur,
                          result.restored, _score_coefficients(inst, result))
        err = mae(result.restored, truth) if truth is not None else None
        rows.append((gamma, score, err))
        if best_score is None or score <= best_score:
            best_gamma, best_score = gamma, score
    return best_gamma, rows


def simulate(truth: Image, blur: LinearOperator, peak: float, seed: int) -> Image:
    """Blur the peak-rescaled truth and draw Poisson counts.

    The truth is scaled so its maximum equals ``peak`` (an all-zero truth is
    left as is), blurred, and sampled with the counter-based Philox
    generator so runs are reproducible for a given seed. Blurred intensities
    below the round-off band -1e-9 * peak raise; tiny negatives from FFT
    round-off are clamped to zero.
    """
    if not peak > 0.0:
        raise ValueError(f"peak must be > 0, got {peak}")
    x = truth.data
    if np.any(x < 0.0):
        raise ValueError("truth image must be non-negative")
    top = float(np.max(x)) if x.size else 0.0
    scaled = x * (peak / top) if top > 0.0 else x.copy()
    lam = blur.apply(scaled)
    low = float(np.min(lam)) if lam.size else 0.0
    if low < -1e-9 * peak:
        raise ValueError(f"blurred intensity has negative values (min {low}); "
                         "is the kernel non-negative?")
    lam = np.maximum(lam, 0.0)
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.poisson(lam).astype(np.float64)
    return Image(truth.width, truth.height, counts)


def scale_to_peak(truth: Image, peak: float) -> Image:
    """The rescaled ground truth that ``simulate`` blurs, for error metrics."""
    if not peak > 0.0:
        raise ValueError(f"peak must be > 0, got {peak}")
    top = float(np.max(truth.data)) if truth.data.size else 0.0
    if top <= 0.0:
        return truth
    return Image(truth.width, truth.height, truth.data * (peak / top))


def result_metrics(result: DeconvResult, truth: Image | None = None,
                   include_timing: bool = True) -> dict:
    """JSON-ready metrics document for one deconvolution result.

    The objective is +inf at iterates outside the Poisson domain (a pixel
    slightly below zero is enough); strict JSON has no infinity, so those
    trace entries are null.
    """
    metrics = {
        "gamma": float(result.gamma_used),
        "iterations": int(result.state.iterations),
        "converged": bool(result.state.converged),
        "relative_change_trace": [float(r) for r in result.state.relative_changes],
        "objective_trace": [float(v) if np.isfinite(v) else None
                            for v in (result.state.objectives or [])],
        "wall_time_s": float(result.wall_time_s) if include_timing else 0.0,
        "clip_mass": float(result.clip_mass),
    }
    if truth is not None:
        metrics["mae"] = mae(result.restored, truth)
        metrics["relative_mae"] = relative_mae(result.restored, truth)
    return metrics
