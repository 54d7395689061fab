"""Splitting solvers for sums of proximable terms.

Minimizes f_1(K_1 x) + ... + f_K(K_K x), where each term gives the prox of
its f_i and, optionally, a linear map K_i (the identity when absent).

Without maps, Douglas-Rachford splitting on the product space: every term
keeps its own copy p_i of the variable, proxes are taken at scale
mu / omega_i, and the copies are averaged and reflected,

    xi_{t,i} = prox_{(mu / omega_i) f_i}(p_{t,i})
    xi_t     = sum_i omega_i xi_{t,i}
    p_{t+1,i} = p_{t,i} + theta (2 xi_t - x_t - xi_{t,i})
    x_{t+1}   = x_t + theta (xi_t - x_t)

with equal weights omega_i = 1/K over the K terms and a constant relaxation
theta in (0, 2). Under a standard relative-interior qualification on the
domains, x_t converges to a minimizer for every mu > 0; truncated inner
proxes are tolerated as summable errors. Iteration stops when the relative
change ||x_{t+1} - x_t|| / ||x_t|| drops to ``tol``.

With maps, and exactly one term g without one, the relaxed primal-dual
iteration of Condat (JOTA 2013; Chambolle & Pock 2011 at theta = 1), one
dual u_i per mapped term,

    x~  = prox_{tau g}(x_t - tau sum_i K_i^T u_{t,i})
    u~_i = prox_{sigma f_i^*}(u_{t,i} + sigma K_i (2 x~ - x_t))
    (x_{t+1}, u_{t+1}) = (x_t, u_t) + theta ((x~, u~) - (x_t, u_t))

with tau = mu, sigma = 0.99 / (tau sum_i ||K_i||^2) from the maps' declared
spectral bounds, and the dual prox taken by Moreau's identity,
prox_{sigma f^*}(v) = v - sigma prox_{f / sigma}(v / sigma). No prox has an
inner loop. Iteration stops when both the primal relative change and the
duals' change drop to ``tol``. The duals' change is the shift they make in
the primal step, tau ||sum_i K_i^T (u_{t+1,i} - u_{t,i})||, relative to
max(||x_t||, ||x_{t+1}||): finite from zero duals, and +inf while the duals
move an iterate that sits at zero, so such an iterate never stops the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteIterateError
from .operators import (LinearOperator, _check_count, _flat64,
                        adjoint_sum, apply_each)

Array = np.ndarray


@dataclass(frozen=True)
class ProxTerm:
    """One summand f(op v), or f(v) without ``op``: ``prox(point, scale)``
    must return prox_{scale * f}(point), the prox of f itself."""

    prox: Callable[[Array, float], Array]
    label: str = ""
    op: LinearOperator | None = None


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
    """Final iterate, per-term copies (DR) or duals (primal-dual), and the
    per-iteration trace."""

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


def _checked(term: ProxTerm, out, dim: int, iteration: int) -> Array:
    """A term's prox output as a flat float64 array; it must be finite."""
    out = _flat64(out, dim, f"prox output of term {term.label!r}")
    if not np.all(np.isfinite(out)):
        raise NonFiniteIterateError(iteration=iteration, label=term.label)
    return out


def solve(terms: Sequence[ProxTerm], cfg: SplittingConfig, init,
          objective: Callable[[Array], float] | None = None
          ) -> tuple[Array, SplittingState]:
    """Run the splitting iteration until tolerance or max_outer.

    Douglas-Rachford when no term has a map, with every term copy starting
    at ``init``; primal-dual otherwise, from ``init`` and zero duals. When
    ``objective`` is given it is evaluated at each new iterate and recorded
    in the trace, which is otherwise empty. Term ordering does not affect
    the result beyond float round-off.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("need at least one prox term")
    x = np.asarray(init, dtype=np.float64).ravel().copy()
    if any(term.op is not None for term in terms):
        return _primal_dual(terms, cfg, x, objective)
    w = 1.0 / len(terms)
    dim = x.size
    copies = [x.copy() for _ in terms]
    rel_trace: list[float] = []
    obj_trace: list[float] = []
    converged = False
    iterations = 0

    for t in range(cfg.max_outer):
        proxed = [_checked(term, term.prox(p, cfg.mu / w), dim, t)
                  for term, p in zip(terms, copies)]
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


def _primal_dual(terms: list[ProxTerm], cfg: SplittingConfig, x: Array,
                 objective: Callable[[Array], float] | None
                 ) -> tuple[Array, SplittingState]:
    """The relaxed primal-dual loop of the module docstring."""
    free = [term for term in terms if term.op is None]
    mapped = [term for term in terms if term.op is not None]
    if len(free) != 1:
        raise ValueError(f"terms with maps need exactly one term without a "
                         f"map, got {len(free)}")
    g = free[0]
    norm2 = sum(term.op.spectral_bound ** 2 for term in mapped)
    if norm2 == 0.0:
        raise ValueError("every map has spectral bound 0")
    tau, theta = cfg.mu, cfg.theta
    sigma = 0.99 / (tau * norm2)
    duals = [np.zeros(term.op.out_dim) for term in mapped]
    back = np.zeros(x.size)  # sum_i K_i^T u_i, carried between iterations
    rel_trace: list[float] = []
    obj_trace: list[float] = []
    converged = False
    iterations = 0

    # Maps and proxes may hand back their input, so their outputs are never
    # updated in place.
    maps = [term.op for term in mapped]
    for t in range(cfg.max_outer):
        x_new = _checked(g, g.prox(x - tau * back, tau), x.size, t)
        x_bar = 2.0 * x_new
        x_bar -= x
        for i, (term, u, k_bar) in enumerate(zip(mapped, duals,
                                                 apply_each(maps, x_bar))):
            v = u + sigma * k_bar
            # Moreau: prox_{sigma f*}(v) = v - sigma prox_{f/sigma}(v/sigma).
            v -= sigma * _checked(term, term.prox(v / sigma, 1.0 / sigma),
                                  v.size, t)
            duals[i] = u + theta * (v - u)
        del x_bar, v, k_bar
        back_next = adjoint_sum(maps, duals)
        x_next = x + theta * (x_new - x)
        # The duals' change as the shift tau K^T (u_next - u) it makes in the
        # primal step, relative to the larger of the two iterates.
        shift = tau * float(np.linalg.norm(back_next - back))
        reach = max(float(np.linalg.norm(x)), float(np.linalg.norm(x_next)))
        dual_change = shift / reach if reach else (float("inf") if shift else 0.0)
        rel = max(relative_change(x_next, x), dual_change)
        rel_trace.append(rel)
        if objective is not None:
            obj_trace.append(float(objective(x_next)))
        x, back = x_next, back_next
        iterations = t + 1
        if rel <= cfg.tol:
            converged = True
            break

    state = SplittingState(x=x, aux=duals, iterations=iterations,
                           converged=converged, relative_changes=rel_trace,
                           objectives=obj_trace)
    return x, state
