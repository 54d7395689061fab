"""Product-space averaging solver for sums of proximable terms.

Minimizes f_1(x) + ... + f_K(x) given only the prox of each term, by
Douglas-Rachford splitting on the weighted product space: every term keeps
its own copy p_i of the variable, proxes are taken at scale mu / omega_i,
and the copies are averaged and reflected,

    xi_{t,i} = prox_{(mu / omega_i) f_i}(p_{t,i})
    xi_t     = sum_i omega_i xi_{t,i}
    p_{t+1,i} = p_{t,i} + theta (2 xi_t - x_t - xi_{t,i})
    x_{t+1}   = x_t + theta (xi_t - x_t)

with weights omega_i in (0, 1] summing to one and a constant relaxation
theta in (0, 2). Under a standard relative-interior qualification on the
domains, x_t converges to a minimizer for every mu > 0; truncated inner
proxes are tolerated as summable errors. Iteration stops when the relative
change ||x_{t+1} - x_t|| / ||x_t|| drops to ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteIterateError, WeightError
from .operators import _flat64

Array = np.ndarray


@dataclass(frozen=True)
class ProxTerm:
    """One summand: ``prox(point, scale)`` must return prox_{scale * f}(point)."""

    prox: Callable[[Array, float], Array]
    weight: float
    label: str = ""


@dataclass(frozen=True)
class SplittingConfig:
    mu: float = 1.0
    theta: float = 1.0
    max_outer: int = 300
    tol: float = 1e-5
    init: Array | None = None

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if not 0.0 < self.theta < 2.0:
            raise ValueError(f"theta must lie in the open interval (0, 2), "
                             f"got {self.theta}")
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be >= 1, got {self.max_outer}")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass
class SplittingState:
    """Final iterate, per-term copies, and the per-iteration trace."""

    x: Array
    aux: list[Array]
    iterations: int
    converged: bool
    relative_changes: list[float]
    objectives: list[float] | None


def relative_change(new, old) -> float:
    """||new - old|| / ||old||; 0 when both are zero, +inf when only old is."""
    new = np.asarray(new, dtype=np.float64).ravel()
    old = np.asarray(old, dtype=np.float64).ravel()
    if new.size != old.size:
        raise ValueError(f"size mismatch: {new.size} vs {old.size}")
    denom = float(np.linalg.norm(old))
    diff = float(np.linalg.norm(new - old))
    if denom == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / denom


def solve(terms: Sequence[ProxTerm], cfg: SplittingConfig,
          objective: Callable[[Array], float] | None = None
          ) -> tuple[Array, SplittingState]:
    """Run the averaged splitting iteration until tolerance or max_outer.

    Every term copy starts at ``cfg.init``. When ``objective`` is given it is
    evaluated at each new iterate and recorded in the trace. Term ordering
    does not affect the result beyond float round-off.
    """
    terms = list(terms)
    if not terms:
        raise WeightError("need at least one prox term")
    weights = np.array([t.weight for t in terms], dtype=np.float64)
    if np.any(weights <= 0.0) or np.any(weights > 1.0):
        raise WeightError(f"weights must lie in (0, 1], got {weights.tolist()}")
    if abs(float(np.sum(weights)) - 1.0) > 1e-12:
        raise WeightError(f"weights must sum to 1, got sum={float(np.sum(weights))!r}")
    if cfg.init is None:
        raise ValueError("SplittingConfig.init must be set before solving")

    x = np.asarray(cfg.init, dtype=np.float64).ravel().copy()
    dim = x.size
    copies = [x.copy() for _ in terms]
    rel_trace: list[float] = []
    obj_trace: list[float] | None = [] if objective is not None else None
    converged = False
    iterations = 0

    for t in range(cfg.max_outer):
        proxed = []
        for term, p in zip(terms, copies):
            xi = _flat64(term.prox(p, cfg.mu / term.weight), dim,
                         f"prox output of term {term.label!r}")
            if not np.all(np.isfinite(xi)):
                raise NonFiniteIterateError(iteration=t, label=term.label)
            proxed.append(xi)
        xi_bar = np.zeros(dim)
        for term, xi in zip(terms, proxed):
            xi_bar += term.weight * xi
        for p, xi in zip(copies, proxed):
            p += cfg.theta * (2.0 * xi_bar - x - xi)
        x_next = x + cfg.theta * (xi_bar - x)
        if not np.all(np.isfinite(x_next)):
            raise NonFiniteIterateError(iteration=t, label="<average>")
        rel = relative_change(x_next, x)
        rel_trace.append(rel)
        if obj_trace is not None:
            obj_trace.append(float(objective(x_next)))
        x = x_next
        iterations = t + 1
        if rel <= cfg.tol:
            converged = True
            break

    state = SplittingState(x=x, aux=copies, iterations=iterations,
                           converged=converged, relative_changes=rel_trace,
                           objectives=obj_trace)
    return x, state
