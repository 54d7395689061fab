"""Proximity operators of compositions f(F x) with a linear map F.

Two routes:

* ``prox_affine_tight``: when F F^T = c I the prox has the closed form
      prox_{f o F}(x) = x + c^{-1} F^T ( prox_{c f}(F x) - F x ),
  and every call first certifies F F^T = c I (``verify_tight_frame``).

* ``prox_affine_fb``: for general bounded F, forward-backward iteration on
  the dual of    min_p  f(F p) + ||p - x||^2 / 2, from u_0 = 0 and p_0 = x,
      u_{t+1} = tau (I - prox_{f / tau}) (u_t / tau + F p_t),
      p_{t+1} = x - F^T u_{t+1},
  with c2 an upper bound on ||F||^2. Given a c1 too, the step is
  tau = 2/(c1 + c2) < 2/c2; the error contracts linearly with factor
  (c2 - c1)/(c2 + c1) only if c1 <= ||F^T u||^2/||u||^2 for every dual u.
  A redundant analysis F = Phi^T has F F^T = Phi^T Phi singular, so there
  its lower frame bound buys no rate, though the step stays valid. Without
  c1, tau = 1.8/c2 and the primal gap decays like O(1/t).

Neither route is on the path of ``deconvolve``, whose primal-dual
iteration needs only the elementwise proxes; both remain for compositions
whose prox a caller needs on its own.

Both routes accept a prox family ``prox_f(v, s) -> prox_{s f}(v)`` so the
same callable serves every scale the solvers need. A shifted f(. - b) needs
no route of its own: its prox family is v, s -> b + prox_f(v - b, s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TightFrameError
from .operators import (LinearOperator, _check_count, _check_frame_bounds,
                        _check_positive, _flat64)

Array = np.ndarray
ProxFamily = Callable[[Array, float], Array]


@dataclass(frozen=True)
class FBDiagnostics:
    """Per-call record: primal residuals and the final dual point."""

    residuals: list[float]
    dual: Array


def default_tau(c2: float, c1: float | None = None) -> float:
    if c1 is not None:
        _check_frame_bounds(c1, c2)
        return 2.0 / (c1 + c2)
    _check_positive(c2, "c2")
    return 1.8 / c2


def verify_tight_frame(frame: LinearOperator, c: float) -> None:
    """Check F F^T = c I on 4 seeded random probes, to 1e-8 relative;
    raises TightFrameError if it fails, a NaN round trip included."""
    _check_positive(c, "tight frame constant")
    rng = np.random.default_rng(0)
    for _ in range(4):
        u = rng.standard_normal(frame.out_dim)
        residual = frame.apply(frame.adjoint(u)) - c * u
        if not np.linalg.norm(residual) <= 1e-8 * c * np.linalg.norm(u):
            raise TightFrameError(
                f"operator is not a tight frame with c={c}; "
                "use prox_affine_fb for general operators"
            )


def prox_affine_tight(prox_f: ProxFamily, frame: LinearOperator, c: float,
                      x, scale: float = 1.0) -> Array:
    """Closed-form prox of scale * f(F .) for a tight frame, certified first."""
    _check_positive(scale, "scale")
    verify_tight_frame(frame, c)
    x = _flat64(x, frame.in_dim, "prox_affine_tight")
    v = frame.apply(x)
    return x + frame.adjoint(prox_f(v, c * scale) - v) / c


def prox_affine_fb(prox_f: ProxFamily, op: LinearOperator, c2: float,
                   x, inner_iters: int = 10, scale: float = 1.0,
                   c1: float | None = None) -> tuple[Array, FBDiagnostics]:
    """Truncated dual forward-backward estimate of prox_{scale * f o op}(x).

    Starts from the zero dual, where the primal point is x, and returns the
    primal point after ``inner_iters`` steps at ``default_tau(c2, c1)``
    together with diagnostics.
    """
    _check_positive(scale, "scale")
    _check_count(inner_iters, "inner_iters")
    x = _flat64(x, op.in_dim, "prox_affine_fb")
    tau = default_tau(c2, c1)
    u = np.zeros(op.out_dim)
    p = x
    residuals: list[float] = []
    for _ in range(inner_iters):
        w = u / tau + op.apply(p)
        u = tau * (w - prox_f(w, scale / tau))
        p_next = x - op.adjoint(u)
        residuals.append(float(np.linalg.norm(p_next - p)))
        p = p_next
    return p, FBDiagnostics(residuals=residuals, dual=u)
