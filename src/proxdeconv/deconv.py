"""Poisson deconvolution: solver assembly, baselines, and diagnostics.

Restores x >= 0 from counts y ~ Poisson(H x) with H a known blur, by
splitting the objective into three proximable terms:

* synthesis prior (solve over coefficients alpha, x = Phi alpha):
      fidelity o H o Phi  +  gamma ||alpha||_1  +  positivity o Phi
* analysis prior (solve over pixels x):
      fidelity o H  +  gamma ||Phi^T x||_1  +  positivity

The dictionary Phi is a ``LinearOperator`` whose adjoint is the analysis
Phi^T; the two priors differ only in where it sits. A solve, or an
``objective`` call, reads H and Phi only through ``fourier_form``: the
circular blur, Dirac, the starlet and their unions run as
``FourierMultiplier`` objects with complex gains, H o Phi as one holding
both factors and Phi^T as Phi's transpose, other operators (Haar) as they
are. The shipped blur and starlet are multipliers by construction and are
read without random probes.

Both priors run the primal-dual iteration: the l1 term (synthesis) or the
positivity (analysis) is the primal prox, the other two terms carry their
maps (H o Phi and Phi, or H and Phi^T) and take their dual steps through
their conjugates' proxes in closed form, and every prox is elementwise, so
an iteration has no inner loop. The solver traces the objective from the
terms' values, as ``objective`` evaluates it. The primal step grows with
the counts: tau = 2 mean(y) for the synthesis prior and mean(y) / 2 for
the analysis prior, rules measured on the benchmark problems. Also here:
the Richardson-Lucy baseline, a GCV score for picking gamma, Poisson count
simulation, and MAE metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dictionary import FrameDictionary
from .errors import DimensionMismatchError
from .operators import (FourierMultiplier, Image, LinearOperator, _check_count,
                        _check_counts, _check_grid, _check_positive, _flat64,
                        compose, fourier_form)
from .prox_core import (_conj_poisson, eval_poisson, project_positive,
                        prox_poisson, soft_threshold)
from .splitting import (ProxTerm, SplittingConfig, SplittingState, _images,
                        objective_value, solve)

Array = np.ndarray

PRIORS = ("synthesis", "analysis")
_ROUNDOFF = 1e-9  # FFT round-off band, relative to the peak, that reads as 0
_GRIDDED = (FourierMultiplier, FrameDictionary)  # operators that know their grid


def _check_blur(image: Image, blur: LinearOperator, context: str) -> None:
    """Reject a blur whose dimensions are not ``image``'s pixel count, or
    whose grid, if it has one (``_GRIDDED``), is not ``image``'s."""
    for dim in (blur.in_dim, blur.out_dim):
        if dim != image.n:
            raise DimensionMismatchError(expected=image.n, actual=dim, context=context)
    if isinstance(blur, _GRIDDED):
        _check_grid(image, blur, f"{context} grid")


@dataclass(frozen=True)
class DeconvProblem:
    """One restoration instance.

    The solver starts at the analysis coefficients of y (synthesis prior)
    or at y itself (analysis prior). ``splitting.theta``, ``max_outer`` and
    ``tol`` hold for both priors; ``splitting.mu`` is read by neither, whose
    primal step comes from the counts. The dictionary's images must hold
    the counts' pixels, and a ``FrameDictionary`` or ``FourierMultiplier``
    must lie on the counts' grid; any other blur only needs the counts'
    pixel count. Every solve traces the objective per iteration.
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
        _check_positive(self.gamma, "gamma")
        _check_counts(self.counts.data, "DeconvProblem")
        _check_blur(self.counts, self.blur, "DeconvProblem blur")
        _check_positive(self.blur.spectral_bound, "DeconvProblem blur spectral bound")
        if self.dictionary.out_dim != self.counts.n:
            raise DimensionMismatchError(expected=self.counts.n,
                                         actual=self.dictionary.out_dim,
                                         context="DeconvProblem dictionary")
        if isinstance(self.dictionary, _GRIDDED):
            _check_grid(self.counts, self.dictionary, "DeconvProblem dictionary grid")


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


def _terms(p: DeconvProblem) -> tuple[list[ProxTerm], SplittingConfig]:
    """The problem as the solver sees it, under the problem's prior.

    Returns the three prox terms with their values (the positivity counts
    0) and the solver's settings; the positivity's map takes the solver's
    variable v to the image (Phi, or none where v is the image). H and Phi
    are read only through ``fourier_form``, so wrapped or user-built
    operators give the same bits as shipped ones. Every term carries its
    conjugate step in closed form, in place. The proxes and steps look the
    elementwise proxes up by name on each call. The l1 term and the
    positivity are separable, so the solve calls the primal prox (the l1
    term's or, under the analysis prior, the positivity's) once per block,
    and every value once per iteration on the whole point; the analysis
    prior's variable is one block, so ``project_positive(x)`` runs once
    per iteration under either prior. The l1 prox writes its output over
    the point it is given (a caller that needs the point keeps a copy) and
    clips into the head of one coefficient array kept for the solve, which
    the l1 value reuses for |c|; neither allocates.
    """
    def fit(eta: Array) -> float:
        total = eval_poisson(eta, y, check=False)
        if total == math.inf and eta.min() < 0.0:
            # FFT round-off leaves about -1e-16 of the peak where the image
            # is 0: the round-off band that simulate clamps reads as 0.
            eta = np.where((eta < 0.0)
                           & (eta >= -_ROUNDOFF * np.abs(eta).max()), 0.0, eta)
            total = eval_poisson(eta, y, check=False)
        return total

    def positive_conj(v: Array, sigma: float) -> None:
        # prox_{sigma f*} of the positivity is min(v, 0).
        v -= project_positive(v)

    y, gamma = p.counts.data, p.gamma
    h, phi = (fourier_form(op, p.counts.height, p.counts.width) or op
              for op in (p.blur, p.dictionary))
    poisson = lambda v, s: prox_poisson(v, s, y)
    kept = np.empty(phi.in_dim)  # the l1 prox's clip and |c|, per solve
    sparsity = lambda v, s: soft_threshold(v, s * gamma, out=v,
                                           scratch=kept[:v.size])
    positive = lambda v, s: project_positive(v)
    l1 = lambda c: gamma * float(np.abs(c, out=kept[:c.size]).sum())
    # prox_{sigma f*} of gamma ||.||_1 is the clip to [-gamma, gamma].
    sparsity_conj = lambda v, s: v.clip(-gamma, gamma, out=v)
    maps, factor = (((h, phi.T, None), 0.5) if p.prior == "analysis"
                    else ((compose(h, phi), None, phi), 2.0))
    terms = [ProxTerm(poisson, "data-fidelity", maps[0], fit, _conj_poisson(y)),
             ProxTerm(sparsity, "sparsity", maps[1], l1, sparsity_conj,
                      separable=True),
             ProxTerm(positive, "positivity", maps[2], conj=positive_conj,
                      separable=True)]
    # The primal step grows with the counts, or is 1 when every count is 0
    # (the minimizer is then 0 at any step).
    mean = float(np.mean(y))
    cfg = replace(p.splitting, mu=factor * mean if mean > 0.0 else 1.0)
    return terms, cfg


def objective(p: DeconvProblem, v, feasibility_tol: float = 0.0) -> float:
    """Fidelity plus penalty at the solver's variable v (the coefficients for
    the synthesis prior, the pixels for the analysis prior), as the solver
    traces it; +inf when the image has a pixel below -feasibility_tol (>= 0)."""
    if not feasibility_tol >= 0.0:
        raise ValueError(f"feasibility_tol must be >= 0, got {feasibility_tol}")
    terms, _ = _terms(p)
    v = np.asarray(v, dtype=np.float64).ravel()
    images = _images([term.op for term in terms if term.op is not None], v)
    image = v if terms[-1].op is None else images[-1]
    if float(image.min()) < -feasibility_tol:  # images are never empty
        return math.inf
    return objective_value(terms, v, images)


def deconvolve(problem: DeconvProblem) -> DeconvResult:
    """Solve one instance with the prior selected in the problem."""
    start = time.perf_counter()
    terms, cfg = _terms(problem)
    y, image_map, sparsity_map = problem.counts.data, terms[-1].op, terms[1].op
    v, state = solve(terms, cfg, y if image_map is None else image_map.adjoint(y))
    raw = v if image_map is None else state.images[-1]
    clip_mass = float(np.sum(np.maximum(-raw, 0.0)))
    restored = Image(problem.counts.width, problem.counts.height,
                     np.maximum(raw, 0.0))
    # The analysis coefficients are those of the restored image, not of v.
    coefficients = v if sparsity_map is None else sparsity_map.apply(restored.data)
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
    _check_counts(counts.data, "richardson_lucy")
    _check_blur(counts, blur, "richardson_lucy blur")
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
    if isinstance(a, Image) and isinstance(b, Image):
        _check_grid(a, b, "mae")
    av = a.data if isinstance(a, Image) else np.asarray(a, dtype=np.float64).ravel()
    bv = _flat64(b.data if isinstance(b, Image) else b, av.size, "mae")
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
    degrees of freedom; +inf when df >= n, the limit of the score as df -> n.
    gamma must be finite and > 0, and the restored raster on the counts'
    grid. Scans break ties toward larger gamma; the score is biased toward
    over-smoothing, the safe direction for count data.
    """
    _check_positive(gamma, "gamma")
    _check_blur(counts, blur, "gcv_score blur")
    _check_grid(counts, restored, "gcv_score restored")
    y = counts.data
    n = y.size
    coeffs = np.asarray(coefficients, dtype=np.float64).ravel()
    df = int(np.count_nonzero(np.abs(coeffs) >= gamma))
    if df >= n:
        return float("inf")
    eta = blur.apply(restored.data)
    resid = 2.0 * np.sqrt(y + 0.375) - 2.0 * np.sqrt(np.maximum(eta, 0.0) + 0.375)
    return float(np.sum(resid * resid)) / float(n - df) ** 2


def _check_gamma_grid(grid) -> list[float]:
    """The grid as floats, if it is non-empty, finite, > 0 and strictly increasing."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("gamma grid must be non-empty")
    for point in grid:
        _check_positive(point, "gamma grid point")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"gamma grid must be strictly increasing, got {grid}")
    return grid


def select_gamma_gcv(grid, problem: DeconvProblem, truth: Image | None = None
                     ) -> tuple[DeconvResult, list[tuple[float, float, float | None]]]:
    """Solve the problem across a gamma grid and keep the GCV minimizer.

    Returns (best, rows): the winning solve, whose ``gamma_used`` is the
    selected gamma (ties go to the larger gamma), and one
    (gamma, gcv, mae-or-None) row per grid point. A point whose active
    count reaches the pixel count scores +inf (``gcv_score``) and is never
    selected; a grid where every point does raises.
    The grid must be non-empty, finite, > 0 and strictly increasing, and a truth
    must lie on the counts' grid. Under the analysis prior the dictionary
    must have no more coefficients than pixels: the active count of a
    redundant analysis is no estimate of the degrees of freedom.
    """
    grid = _check_gamma_grid(grid)
    d, n = problem.dictionary, problem.counts.n
    if problem.prior == "analysis" and d.in_dim > n:
        raise ValueError(f"analysis-prior GCV needs a dictionary with at most "
                         f"as many coefficients as pixels, got {d.in_dim} "
                         f"coefficients for {n} pixels")
    if truth is not None:
        _check_grid(problem.counts, truth, "select_gamma_gcv truth")
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
    if best_score == float("inf"):
        raise ValueError(f"no gamma in {grid} can be scored: every solve has "
                         f"at least {n} active coefficients, the pixel count")
    return best, rows


def simulate(truth: Image, blur: LinearOperator, peak: float, seed: int) -> Image:
    """Blur the peak-rescaled truth and draw Poisson counts.

    The truth is scaled so its maximum equals ``peak`` (an all-zero truth is
    left as is), blurred, and sampled with the counter-based Philox
    generator so runs are reproducible for a given seed, an integer >= 0.
    Blurred intensities below the round-off band ``-_ROUNDOFF * peak``
    raise; the tiny negatives of FFT round-off within it are clamped to zero.
    """
    _check_count(seed, "seed", least=0)
    if not np.all((truth.data >= 0.0) & (truth.data < np.inf)):
        raise ValueError("truth image must be finite and non-negative")
    _check_blur(truth, blur, "simulate blur")
    scaled = scale_to_peak(truth, peak)
    lam = blur.apply(scaled.data)
    low = float(np.min(lam)) if lam.size else 0.0
    if low < -_ROUNDOFF * peak:
        raise ValueError(f"blurred intensity has negative values (min {low}); "
                         "is the kernel non-negative?")
    lam = np.maximum(lam, 0.0)
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.poisson(lam).astype(np.float64)
    return Image(truth.width, truth.height, counts)


def scale_to_peak(truth: Image, peak: float) -> Image:
    """The rescaled ground truth that ``simulate`` blurs, for error metrics."""
    _check_positive(peak, "peak")
    top = float(np.max(truth.data)) if truth.data.size else 0.0
    if top <= 0.0:
        return truth
    return Image(truth.width, truth.height, truth.data * (peak / top))


def result_metrics(result: DeconvResult, include_timing: bool = True) -> dict:
    """JSON-ready metrics document for one deconvolution result.

    ``wall_time_s`` is 0.0 unless ``include_timing``. The relative change
    is the larger of the primal and the duals' change, each traced too. The
    objective is +inf at iterates outside the Poisson domain (a pixel
    slightly below zero is enough), and a change is +inf for a step away
    from a zero iterate; strict JSON has no infinity, so those trace
    entries are null.
    """
    strict = lambda trace: [float(v) if np.isfinite(v) else None for v in trace]
    return {
        "gamma": float(result.gamma_used),
        "iterations": int(result.state.iterations),
        "converged": bool(result.state.converged),
        "relative_change_trace": strict(result.state.relative_changes),
        "primal_change_trace": strict(result.state.primal_changes),
        "dual_change_trace": strict(result.state.dual_changes),
        "objective_trace": strict(result.state.objectives),
        "wall_time_s": float(result.wall_time_s) if include_timing else 0.0,
        "clip_mass": float(result.clip_mass),
    }
