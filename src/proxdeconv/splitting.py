"""Product-space averaging solver for sums of proximable terms.

Minimizes f_1(x) + ... + f_K(x) given only the prox of each term, by
Douglas-Rachford splitting on the product space: every term keeps its own
copy p_i of the variable, proxes are taken at scale mu / omega_i, and the
copies are averaged and reflected,

    xi_{t,i} = prox_{(mu / omega_i) f_i}(p_{t,i})
    xi_t     = sum_i omega_i xi_{t,i}
    p_{t+1,i} = p_{t,i} + theta (2 xi_t - x_t - xi_{t,i})
    x_{t+1}   = x_t + theta (xi_t - x_t)

with equal weights omega_i = 1/K over the K terms and a constant relaxation
theta in (0, 2). Under a standard relative-interior qualification on the
domains, x_t converges to a minimizer for every mu > 0; truncated inner
proxes are tolerated as summable errors. Iteration stops when the relative
change ||x_{t+1} - x_t|| / ||x_t|| drops to ``tol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteIterateError
from .operators import _check_count, _flat64

Array = np.ndarray


@dataclass(frozen=True)
class ProxTerm:
    """One summand: ``prox(point, scale)`` must return prox_{scale * f}(point)."""

    prox: Callable[[Array, float], Array]
    label: str = ""


@dataclass(frozen=True)
class SplittingConfig:
    mu: float = 1.0
    theta: float = 1.0
    max_outer: int = 300
    tol: float = 1e-5

    def __post_init__(self):
        if not 0.0 < self.mu < np.inf:
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")
        if not 0.0 < self.theta < 2.0:
            raise ValueError(f"theta must lie in the open interval (0, 2), "
                             f"got {self.theta}")
        _check_count(self.max_outer, "max_outer")
        if not 0.0 <= self.tol < np.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol}")


@dataclass
class SplittingState:
    """Final iterate, per-term copies, and the per-iteration trace."""

    x: Array
    aux: list[Array]
    iterations: int
    converged: bool
    relative_changes: list[float]
    objectives: list[float]


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


def solve(terms: Sequence[ProxTerm], cfg: SplittingConfig, init,
          objective: Callable[[Array], float] | None = None
          ) -> tuple[Array, SplittingState]:
    """Run the averaged splitting iteration until tolerance or max_outer.

    Every term copy starts at ``init``. When ``objective`` is given it is
    evaluated at each new iterate and recorded in the trace, which is
    otherwise empty. Term ordering does not affect the result beyond float
    round-off.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one prox term")
    w = 1.0 / len(terms)

    x = np.asarray(init, dtype=np.float64).ravel().copy()
    dim = x.size
    copies = [x.copy() for _ in terms]
    rel_trace: list[float] = []
    obj_trace: list[float] = []
    converged = False
    iterations = 0

    for t in range(cfg.max_outer):
        proxed = []
        for term, p in zip(terms, copies):
            xi = _flat64(term.prox(p, cfg.mu / w), dim,
                         f"prox output of term {term.label!r}")
            if not np.all(np.isfinite(xi)):
                raise NonFiniteIterateError(iteration=t, label=term.label)
            proxed.append(xi)
        xi_bar = np.zeros(dim)
        for xi in proxed:
            xi_bar += w * xi
        for p, xi in zip(copies, proxed):
            p += cfg.theta * (2.0 * xi_bar - x - xi)
        # Free spent outputs before relative_change allocates. Freeing xi (the
        # last) too let glibc trim and refault the heap top every iteration.
        del proxed
        x_next = x + cfg.theta * (xi_bar - x)
        if not np.all(np.isfinite(x_next)):
            raise NonFiniteIterateError(iteration=t, label="<average>")
        rel = relative_change(x_next, x)
        rel_trace.append(rel)
        if objective is not None:
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
