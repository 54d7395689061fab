"""Proximity operators of compositions f(F x - shift).

Two routes:

* ``prox_affine_tight``: when F F^T = c I the prox has the closed form
      prox_{f o A}(x) = x + c^{-1} F^T ( prox_{c f}(F x - shift) - (F x - shift) ).

* ``prox_affine_fb``: for general bounded F, forward-backward iteration on
  the dual of    min_p  f(F p - shift) + ||p - x||^2 / 2,
      u_{t+1} = tau (I - prox_{f / tau}) (u_t / tau + F p_t - shift),
      p_{t+1} = x - F^T u_{t+1},
  which converges for step 0 < tau < 2 / c2 with c2 an upper bound on
  ||F||^2. When frame bounds c1 <= ||F x||^2/||x||^2 <= c2 are available the
  error contracts linearly with factor (c2 - c1)/(c2 + c1) at
  tau = 2/(c1 + c2); otherwise the primal gap decays like O(1/t).

Both routes accept a prox family ``prox_f(v, s) -> prox_{s f}(v)`` so the
same callable serves every scale the solvers need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TightFrameError
from .operators import AffineOperator, LinearOperator, _flat64

Array = np.ndarray
ProxFamily = Callable[[Array, float], Array]


@dataclass(frozen=True)
class ComposeProxConfig:
    """Settings for the iterative composition prox.

    inner_iters: forward-backward steps per call (truncated, warm-startable).
    tau: dual step; None picks 2/(c1+c2) when c1 is known, else 1.8/c2.
    """

    inner_iters: int = 10
    tau: float | None = None

    def __post_init__(self):
        if self.inner_iters < 1:
            raise ValueError(f"inner_iters must be >= 1, got {self.inner_iters}")
        if self.tau is not None and not self.tau > 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")


@dataclass(frozen=True)
class FBDiagnostics:
    """Per-call record: primal residuals, final dual point, step used."""

    residuals: list[float]
    dual: Array
    tau: float


def default_tau(c2: float, c1: float | None = None) -> float:
    if not c2 > 0.0:
        raise ValueError(f"c2 must be > 0, got {c2}")
    if c1 is not None:
        if not 0.0 < c1 <= c2:
            raise ValueError(f"need 0 < c1 <= c2, got ({c1}, {c2})")
        return 2.0 / (c1 + c2)
    return 1.8 / c2


def verify_tight_frame(frame: LinearOperator, c: float, probes: int = 4,
                       seed: int = 0, rtol: float = 1e-8) -> None:
    """Probabilistic check that F F^T = c I; raises TightFrameError if not."""
    if not c > 0.0:
        raise ValueError(f"tight frame constant must be > 0, got {c}")
    rng = np.random.default_rng(seed)
    for _ in range(probes):
        u = rng.standard_normal(frame.out_dim)
        residual = frame.apply(frame.adjoint(u)) - c * u
        if np.linalg.norm(residual) > rtol * c * np.linalg.norm(u):
            raise TightFrameError(
                f"operator is not a tight frame with c={c}; "
                "use prox_affine_fb for general operators"
            )


def prox_affine_tight(prox_f: ProxFamily, frame: LinearOperator, shift,
                      c: float, x, scale: float = 1.0,
                      check: bool = True) -> Array:
    """Closed-form prox of scale * f(F . - shift) for a tight frame F."""
    if not scale > 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if check:
        verify_tight_frame(frame, c)
    x = _flat64(x, frame.in_dim, "prox_affine_tight")
    shift = _flat64(shift, frame.out_dim, "prox_affine_tight shift")
    v = frame.apply(x) - shift
    return x + frame.adjoint(prox_f(v, c * scale) - v) / c


def prox_affine_fb(prox_f: ProxFamily, affine: AffineOperator, c2: float,
                   x, cfg: ComposeProxConfig | None = None,
                   scale: float = 1.0,
                   c1: float | None = None,
                   dual: Array | None = None) -> tuple[Array, FBDiagnostics]:
    """Truncated dual forward-backward estimate of prox_{scale * f o affine}(x).

    Starts from the dual point ``dual`` (zeros when None) and returns the
    primal point after ``cfg.inner_iters`` steps together with diagnostics;
    pass ``diagnostics.dual`` back as ``dual`` to warm-start the next call
    at a nearby prox target.
    """
    if not scale > 0.0:
        raise ValueError(f"scale must be > 0, got {scale}")
    cfg = cfg or ComposeProxConfig()
    lin = affine.linear
    x = _flat64(x, lin.in_dim, "prox_affine_fb")
    tau = cfg.tau if cfg.tau is not None else default_tau(c2, c1)
    if not tau < 2.0 / c2 + 1e-12:
        raise ValueError(f"tau={tau} violates the step bound 2/c2={2.0 / c2}")
    if dual is None:
        u = np.zeros(lin.out_dim)
    else:
        u = _flat64(dual, lin.out_dim, "prox_affine_fb dual").copy()
    p = x - lin.adjoint(u)
    residuals: list[float] = []
    for _ in range(cfg.inner_iters):
        w = u / tau + affine(p)
        u = tau * (w - prox_f(w, scale / tau))
        p_next = x - lin.adjoint(u)
        residuals.append(float(np.linalg.norm(p_next - p)))
        p = p_next
    return p, FBDiagnostics(residuals=residuals, dual=u, tau=tau)


class WarmStartedProx:
    """Wrap prox_affine_fb with a dual cache carried across calls.

    Owned by one enclosing solver; not safe to share between concurrent
    solves. Each call starts from the previous call's final dual, which
    keeps truncated inner solves accurate once outer iterates settle.
    """

    def __init__(self, prox_f: ProxFamily, affine: AffineOperator, c2: float,
                 cfg: ComposeProxConfig, c1: float | None = None):
        self._prox_f = prox_f
        self._affine = affine
        self._c2 = c2
        self._c1 = c1
        self._cfg = cfg
        self._dual = None

    def __call__(self, x, scale: float = 1.0) -> Array:
        p, diag = prox_affine_fb(self._prox_f, self._affine, self._c2, x,
                                 self._cfg, scale=scale, c1=self._c1,
                                 dual=self._dual)
        self._dual = diag.dual
        return p
