"""Poisson deconvolution: solver assembly, baselines, and diagnostics.

Restores x >= 0 from counts y ~ Poisson(H x) with H a known blur, by
splitting the objective into three proximable terms:

* synthesis prior (solve over coefficients alpha, x = Phi alpha):
      fidelity o H o Phi  +  gamma ||alpha||_1  +  positivity o Phi
* analysis prior (solve over pixels x):
      fidelity o H  +  gamma ||Phi^T x||_1  +  positivity

The dictionary Phi is a ``LinearOperator`` whose adjoint is the analysis
Phi^T; the two priors differ only in where it sits. Each solve first
probes its maps, H o Phi and Phi or H and Phi^T, for their Fourier form
(``fourier_form``): the circular blur, Dirac, the starlet, their unions and
products are diagonal in the 2-D DFT and run as ``FourierMultiplier``
objects, while Haar and other operators that are not shift-invariant run
through their own transforms.

Both priors run the primal-dual iteration: the l1 term (synthesis) or the
positivity (analysis) is the primal prox, the other two terms carry their
maps (H o Phi and Phi, or H and Phi^T), and every prox is elementwise, so
an iteration has no inner loop. The solver traces the objective from the
terms' values, as ``objective`` evaluates it. The primal step grows with
the counts: tau = 2 mean(y) for the synthesis prior and mean(y) / 2 for
the analysis prior, rules measured on the benchmark problems. Also here:
the Richardson-Lucy baseline, a GCV score for picking gamma, Poisson count
simulation, and MAE metrics.
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
from .prox_core import eval_poisson, project_positive, prox_poisson, soft_threshold
from .splitting import (ProxTerm, SplittingConfig, SplittingState,
                        objective_value, solve)

Array = np.ndarray

PRIORS = ("synthesis", "analysis")


@dataclass(frozen=True)
class DeconvProblem:
    """One restoration instance.

    The solver starts at the analysis coefficients of y (synthesis prior)
    or at y itself (analysis prior). ``splitting.theta``, ``max_outer`` and
    ``tol`` hold for both priors; ``splitting.mu`` is read by neither, whose
    primal step comes from the counts. The dictionary must lie on the
    counts' grid, and so must a ``FourierMultiplier`` blur; any other blur
    only needs the counts' pixel count. Every solve traces the objective
    per iteration.
    """

    counts: Image
    blur: LinearOperator
    dictionary: FrameDictionary
    gamma: float
    prior: str = "synthesis"
    splitting: SplittingConfig = field(default_factory=SplittingConfig)

    def __post_init__(self):
        if self.prior not in PRIORS:
            raise ValueError(f"prior must be one of {PRIORS}, got {self.prior!r}")
        if not 0.0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
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


def _terms(p: DeconvProblem) -> tuple[list[ProxTerm], SplittingConfig,
                                     LinearOperator, Callable]:
    """The problem as the solver sees it; the only code that reads the prior.

    Returns the three prox terms with their values (the positivity counts
    0), the solver's settings, the map from the solver's variable v to the
    image (the dictionary, or the identity under the analysis prior; its
    adjoint takes the counts to the start point), and the coefficients from
    v and the clipped image. The maps are probed for their Fourier form, so
    wrapped or user-built operators take the same path as shipped ones. The
    prox families look the elementwise proxes up by name on each call.
    """
    def fourier(op: LinearOperator) -> LinearOperator:
        form = fourier_form(op, p.counts.height, p.counts.width)
        return op if form is None else form

    def fit(eta: Array) -> float:
        if eta.min() < 0.0:
            # FFT round-off leaves about -1e-16 of the peak where the image
            # is 0: the round-off band that simulate clamps reads as 0.
            eta = np.where((eta < 0.0) & (eta >= -1e-9 * np.max(np.abs(eta))),
                           0.0, eta)
        return eval_poisson(eta, y, check=False)

    y, gamma, d = p.counts.data, p.gamma, p.dictionary
    # DeconvProblem validated the counts once.
    poisson = lambda v, s: prox_poisson(v, s, y, check=False)
    sparsity = lambda v, s: soft_threshold(v, s * gamma)
    positive = lambda v, s: project_positive(v)
    l1 = lambda c: gamma * float(np.sum(np.abs(c)))
    h = fourier(p.blur)
    if p.prior == "analysis":
        maps, factor = (h, fourier(d.T), None), 0.5
        image, coefficients = identity_operator(y.size), lambda v, x: d.analysis(x)
    else:
        maps, factor = (fourier(compose(h, d)), None, fourier(d)), 2.0
        image, coefficients = d, lambda v, x: v
    terms = [ProxTerm(poisson, "data-fidelity", maps[0], fit),
             ProxTerm(sparsity, "sparsity", maps[1], l1),
             ProxTerm(positive, "positivity", maps[2])]
    # The primal step grows with the counts, or is 1 when every count is 0
    # (the minimizer is then 0 at any step).
    mean = float(np.mean(y))
    cfg = replace(p.splitting, mu=factor * mean if mean > 0.0 else 1.0)
    return terms, cfg, image, coefficients


def objective(p: DeconvProblem, v, feasibility_tol: float = 0.0) -> float:
    """Fidelity plus penalty at the solver's variable v (the coefficients for
    the synthesis prior, the pixels for the analysis prior), as the solver
    traces it; +inf when the image has a pixel below -feasibility_tol."""
    terms, _, image, _ = _terms(p)
    v = np.asarray(v, dtype=np.float64).ravel()
    x = image.apply(v)
    if x.size and float(np.min(x)) < -feasibility_tol:
        return float("inf")
    return objective_value(terms, v)


def deconvolve(problem: DeconvProblem) -> DeconvResult:
    """Solve one instance with the prior selected in the problem."""
    start = time.perf_counter()
    terms, cfg, image, coefficients_of = _terms(problem)
    v, state = solve(terms, cfg, image.adjoint(problem.counts.data))
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
    """Mean absolute error between two rasters on one grid (or flat arrays
    of one size)."""
    if isinstance(a, Image) and isinstance(b, Image) \
            and (a.height, a.width) != (b.height, b.width):
        raise DimensionMismatchError(expected=(a.height, a.width),
                                     actual=(b.height, b.width), context="mae")
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


def _active_count(gamma: float, coefficients) -> int:
    """#{ |coeff_i| >= gamma }, GCV's proxy for the degrees of freedom."""
    coeffs = np.asarray(coefficients, dtype=np.float64).ravel()
    return int(np.count_nonzero(np.abs(coeffs) >= gamma))


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
    df = _active_count(gamma, coefficients)
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
    (gamma, gcv, mae-or-None) row per grid point. A point whose active
    count reaches the pixel count scores +inf, the limit of the GCV score as
    df -> n, and is never selected; a grid where every point does raises.
    The grid must be finite and strictly increasing, and a truth must lie on
    the counts' grid. Under the analysis prior the dictionary must have no
    more coefficients than pixels: the active count of a redundant analysis
    is no estimate of the degrees of freedom.
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
    shape = (problem.counts.height, problem.counts.width)
    if truth is not None and (truth.height, truth.width) != shape:
        raise DimensionMismatchError(expected=shape,
                                     actual=(truth.height, truth.width),
                                     context="select_gamma_gcv truth")
    rows: list[tuple[float, float, float | None]] = []
    best, best_score = None, None
    for gamma in grid:
        result = deconvolve(replace(problem, gamma=gamma))
        if _active_count(gamma, result.coefficients) >= n:
            score = float("inf")
        else:
            score = gcv_score(gamma, problem.counts, problem.blur,
                              result.restored, result.coefficients)
        err = mae(result.restored, truth) if truth is not None else None
        rows.append((gamma, score, err))
        if best_score is None or score <= best_score:
            best, best_score = result, score
    if best_score == float("inf"):
        raise ValueError(f"no gamma in {grid} can be scored: every solve has "
                         f"at least {n} active coefficients, the pixel count")
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
    enough), and the relative change is +inf for a step away from a zero
    iterate; strict JSON has no infinity, so those trace entries are null.
    """
    strict = lambda trace: [float(v) if np.isfinite(v) else None for v in trace]
    return {
        "gamma": float(result.gamma_used),
        "iterations": int(result.state.iterations),
        "converged": bool(result.state.converged),
        "relative_change_trace": strict(result.state.relative_changes),
        "objective_trace": strict(result.state.objectives),
        "wall_time_s": float(result.wall_time_s) if include_timing else 0.0,
        "clip_mass": float(result.clip_mass),
    }
