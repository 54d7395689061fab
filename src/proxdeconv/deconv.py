"""Poisson deconvolution: solver assembly, baselines, and diagnostics.

Restores x >= 0 from counts y ~ Poisson(H x) with H a known blur, by
splitting the objective into three proximable terms and running the
product-space solver:

* synthesis prior (solve over coefficients alpha, x = Phi alpha):
      fidelity o H o Phi  +  gamma ||alpha||_1  +  positivity o Phi
* analysis prior (solve over pixels x):
      fidelity o H  +  gamma ||Phi^T x||_1  +  positivity

The dictionary Phi is a ``LinearOperator`` whose adjoint is the analysis
Phi^T; the two priors differ only in where it sits. Each solve first
probes H, and H o Phi or Phi^T, for their Fourier form (``fourier_form``):
the circular blur, Dirac, the starlet, their unions and products are
diagonal in the 2-D DFT and run as ``FourierMultiplier`` objects, while
Haar and other operators that are not shift-invariant run through their
own transforms. A composition through a tight dictionary peels off in
closed form; every other one runs the truncated dual forward-backward prox
(``DeconvProblem.inner_iters`` steps per call) with its dual warm-started
across outer iterations. The one exception: the synthesis fidelity runs
FB through H o Phi (in the spectrum when it has a Fourier form), except
that a tight Phi without one (Haar) peels off around FB through H, which
keeps its transforms out of the inner loop. Also here: the Richardson-Lucy
baseline, a GCV score for picking gamma, Poisson count simulation, and MAE
metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .dictionary import FrameDictionary
from .errors import DimensionMismatchError
from .operators import (FourierMultiplier, Image, LinearOperator,
                        _check_count, compose, fourier_form, identity_operator)
from . import prox_compose
from .prox_compose import ProxFamily, prox_affine_tight
from .prox_core import eval_poisson, project_positive, prox_poisson, soft_threshold
from .splitting import ProxTerm, SplittingConfig, SplittingState, solve

Array = np.ndarray

PRIORS = ("synthesis", "analysis")


@dataclass(frozen=True)
class DeconvProblem:
    """One restoration instance.

    ``splitting.mu`` is the user-facing step scale: the three equal-weight
    terms are proxed at scale mu/3 each (so the sparsity step thresholds at
    mu * gamma / 3). The solver starts at the analysis coefficients of y
    (synthesis prior) or at y itself (analysis prior). The dictionary must
    lie on the counts' grid, and so must a ``FourierMultiplier`` blur; any
    other blur only needs the counts' pixel count. ``inner_iters`` is the
    number of dual forward-backward steps per call of every composed prox
    that has no closed form. Every solve traces the objective per iteration.
    """

    counts: Image
    blur: LinearOperator
    dictionary: FrameDictionary
    gamma: float
    prior: str = "synthesis"
    splitting: SplittingConfig = field(default_factory=SplittingConfig)
    inner_iters: int = 10

    def __post_init__(self):
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}, got {self.prior!r}")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        _check_count(self.inner_iters, "inner_iters")
        if not self.counts.is_counts():
            raise ValueError("counts image must hold finite non-negative integers")
        n = self.counts.n
        for dim in (self.blur.in_dim, self.blur.out_dim):
            if dim != n:
                raise DimensionMismatchError(expected=n, actual=dim,
                                             context="DeconvProblem blur")
        if self.blur.spectral_bound == 0.0:
            raise ValueError("DeconvProblem blur has spectral bound 0 (an "
                             "all-zero kernel?); it must be > 0")
        grid = (self.counts.height, self.counts.width)
        for name, op in (("blur", self.blur), ("dictionary", self.dictionary)):
            if isinstance(op, (FourierMultiplier, FrameDictionary)) \
                    and (op.height, op.width) != grid:
                raise DimensionMismatchError(expected=grid, actual=(op.height, op.width),
                                             context=f"DeconvProblem {name} grid")


@dataclass(frozen=True)
class DeconvResult:
    restored: Image
    coefficients: Array
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
    """prox of f o op by dual FB, each call warm-started from the last one's
    diagnostics and looked up in prox_compose; c2 defaults to ||op||^2."""
    if c2 is None:
        c2 = op.spectral_bound ** 2
    warm = None

    def prox(v: Array, s: float) -> Array:
        nonlocal warm
        x, warm = prox_compose.prox_affine_fb(prox_f, op, c2, v, p.inner_iters,
                                              scale=s, c1=c1, warm=warm)
        return x
    return prox


def _terms(p: DeconvProblem) -> tuple[list[ProxTerm], Callable, LinearOperator, Callable]:
    """The problem as the solver sees it; the only code that reads the prior.

    Returns the three prox terms, fidelity plus penalty at the solver's
    variable v, the map from v to the image (the dictionary, or the identity
    under the analysis prior; its adjoint takes the counts to the start
    point), and the coefficients from v and the clipped image. The blur, and
    blur o dictionary or the analysis, are probed for their Fourier form (the
    module docstring gives the rule for peel versus FB), so wrapped or
    user-built operators take the same path as shipped ones. The positivity
    peel runs the dictionary itself: a Fourier form costs the same FFTs. The
    prox families look the elementwise proxes up by name on each call.
    """
    def fourier(op: LinearOperator) -> LinearOperator:
        form = fourier_form(op, p.counts.height, p.counts.width)
        return op if form is None else form

    y, gamma, d = p.counts.data, p.gamma, p.dictionary
    # DeconvProblem validated the counts once.
    poisson = lambda v, s: prox_poisson(v, s, y, check=False)
    sparsity = lambda v, s: soft_threshold(v, s * gamma)
    positive = lambda v, s: project_positive(v)
    h = fourier(p.blur)
    if p.prior == "analysis":
        w = fourier(d.T)
        proxes = (_fb(poisson, h, p), _fb(sparsity, w, p, d.c1, d.c2), positive)
        intensity, penalized = h, w.apply
        image, coefficients = identity_operator(y.size), lambda v, x: d.analysis(x)
    else:
        h_phi = fourier(compose(h, d))
        if d.tight and not isinstance(h_phi, FourierMultiplier):
            fidelity = _peel(_fb(poisson, h, p), d, d.c1)
        else:
            fidelity = _fb(poisson, h_phi, p)
        positivity = _peel(positive, d, d.c1) if d.tight \
            else _fb(positive, d, p, d.c1, d.c2)
        proxes = (fidelity, sparsity, positivity)
        intensity, penalized = h_phi, lambda alpha: alpha
        image, coefficients = d, lambda v, x: v
    value = lambda v: eval_poisson(intensity.apply(v), y, check=False) \
        + gamma * float(np.sum(np.abs(penalized(v))))
    labels = ("data-fidelity", "sparsity", "positivity")
    return [ProxTerm(prox=f, weight=1.0 / 3.0, label=label)
            for f, label in zip(proxes, labels)], value, image, coefficients


def objective(p: DeconvProblem, v, feasibility_tol: float = 0.0) -> float:
    """Fidelity plus penalty at the solver's variable v (the coefficients for
    the synthesis prior, the pixels for the analysis prior), as the solver
    traces it; +inf when the image has a pixel below -feasibility_tol."""
    _, value, image, _ = _terms(p)
    v = np.asarray(v, dtype=np.float64).ravel()
    x = image.apply(v)
    if x.size and float(np.min(x)) < -feasibility_tol:
        return float("inf")
    return value(v)


def deconvolve(problem: DeconvProblem) -> DeconvResult:
    """Solve one instance with the prior selected in the problem."""
    start = time.perf_counter()
    # The solver proxes each term at mu/omega = 3 mu with omega = 1/3; the
    # user's mu is divided by 9 so that each term is proxed at mu/3 (DR
    # converges for any uniform rescaling of the terms' prox scale).
    cfg = replace(problem.splitting, mu=problem.splitting.mu / 9)
    terms, value, image, coefficients_of = _terms(problem)
    v, state = solve(terms, cfg, image.adjoint(problem.counts.data), value)
    raw = image.apply(v)
    clip_mass = float(np.sum(np.maximum(-raw, 0.0)))
    restored = Image(problem.counts.width, problem.counts.height,
                     np.maximum(raw, 0.0))
    coefficients = coefficients_of(v, restored.data)
    wall = time.perf_counter() - start
    return DeconvResult(restored=restored, coefficients=coefficients,
                        state=state, gamma_used=problem.gamma,
                        wall_time_s=wall, clip_mass=clip_mass)


def richardson_lucy(counts: Image, blur: LinearOperator, iters: int) -> Image:
    """Multiplicative Richardson-Lucy iterate, flux-preserving baseline.

    x <- x * H^T(y / (H x)) / H^T(1), with the blurred estimate and the
    normalizer floored at 1e-12 before division, starting from the flat
    image at the mean count level (floored at 1).
    """
    _check_count(iters, "iters", least=0)
    if not counts.is_counts():
        raise ValueError("Richardson-Lucy expects a count image")
    y = counts.data
    x = np.full_like(y, max(float(np.mean(y)), 1.0))
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


def select_gamma_gcv(grid, problem: DeconvProblem, truth: Image | None = None
                     ) -> tuple[DeconvResult, list[tuple[float, float, float | None]]]:
    """Solve the problem across a gamma grid and keep the GCV minimizer.

    Returns (best, rows): the winning solve, whose ``gamma_used`` is the
    selected gamma (ties go to the larger gamma), and one
    (gamma, gcv, mae-or-None) row per grid point. The grid must be finite
    and strictly increasing. Under the analysis prior the dictionary must
    have no more coefficients than pixels: the active count of a redundant
    analysis is no estimate of the degrees of freedom.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("gamma grid must be non-empty")
    if not all(np.isfinite(grid)):
        raise ValueError(f"gamma grid must be finite, got {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"gamma grid must be strictly increasing, got {grid}")
    d, n = problem.dictionary, problem.counts.n
    if problem.prior == "analysis" and d.coeff_dim > n:
        raise ValueError(f"analysis-prior GCV needs a dictionary with at most "
                         f"as many coefficients as pixels, got {d.coeff_dim} "
                         f"coefficients for {n} pixels")
    if truth is not None and truth.n != n:
        raise DimensionMismatchError(expected=n, actual=truth.n,
                                     context="select_gamma_gcv truth")
    rows: list[tuple[float, float, float | None]] = []
    best, best_score = None, None
    for gamma in grid:
        result = deconvolve(replace(problem, gamma=gamma))
        score = gcv_score(gamma, problem.counts, problem.blur,
                          result.restored, result.coefficients)
        err = mae(result.restored, truth) if truth is not None else None
        rows.append((gamma, score, err))
        if best_score is None or score <= best_score:
            best, best_score = result, score
    return best, rows


def simulate(truth: Image, blur: LinearOperator, peak: float, seed: int) -> Image:
    """Blur the peak-rescaled truth and draw Poisson counts.

    The truth is scaled so its maximum equals ``peak`` (an all-zero truth is
    left as is), blurred, and sampled with the counter-based Philox
    generator so runs are reproducible for a given seed. Blurred intensities
    below the round-off band -1e-9 * peak raise; tiny negatives from FFT
    round-off are clamped to zero.
    """
    if not np.all((truth.data >= 0.0) & (truth.data < np.inf)):
        raise ValueError("truth image must be finite and non-negative")
    scaled = scale_to_peak(truth, peak)
    lam = blur.apply(scaled.data)
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
    if not 0.0 < peak < np.inf:
        raise ValueError(f"peak must be finite and > 0, got {peak}")
    top = float(np.max(truth.data)) if truth.data.size else 0.0
    if top <= 0.0:
        return truth
    return Image(truth.width, truth.height, truth.data * (peak / top))


def result_metrics(result: DeconvResult, include_timing: bool = True) -> dict:
    """JSON-ready metrics document for one deconvolution result.

    ``wall_time_s`` is 0.0 unless ``include_timing``. The objective is +inf
    at iterates outside the Poisson domain (a pixel slightly below zero is
    enough); strict JSON has no infinity, so those trace entries are null.
    """
    return {
        "gamma": float(result.gamma_used),
        "iterations": int(result.state.iterations),
        "converged": bool(result.state.converged),
        "relative_change_trace": [float(r) for r in result.state.relative_changes],
        "objective_trace": [float(v) if np.isfinite(v) else None
                            for v in (result.state.objectives or [])],
        "wall_time_s": float(result.wall_time_s) if include_timing else 0.0,
        "clip_mass": float(result.clip_mass),
    }
