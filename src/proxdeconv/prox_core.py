"""Elementwise proximity operators: Poisson fidelity, sparsity, positivity.

The Poisson anti-log-likelihood of intensities eta against counts y is

    f(eta) = sum_i  -y_i log(eta_i) + eta_i        (y_i > 0, eta_i > 0)
                    eta_i                          (y_i = 0, eta_i >= 0)

and +inf as soon as any component leaves its domain (0 log 0 = 0 by the
0! = 1 convention). Its scaled prox has the closed form of a per-pixel
quadratic root, and so has the prox of its conjugate. The l1 penalty's
prox is soft-thresholding and the positivity indicator's is the
projection onto the non-negative orthant.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .operators import _check_counts, _check_positive, _flat64

Array = np.ndarray

_TINY = np.finfo(np.float64).tiny


def _pair64(a, b, context: str) -> tuple[Array, Array]:
    a = np.asarray(a, dtype=np.float64).ravel()
    return a, _flat64(b, a.size, context)


def eval_poisson(eta, counts, check: bool = True) -> float:
    """Poisson anti-log-likelihood; +inf outside the domain or at an
    infinite intensity, never NaN: a NaN intensity raises ValueError.

    Where every intensity is positive and their sum finite, the value is
    sum(eta) - y . log(eta), with no mask or gather of the positive counts;
    other intensities take the masked form of the module docstring.
    ``check=False`` skips the scan of ``counts``, for callers that have
    validated them once already.
    """
    eta, y = _pair64(eta, counts, "eval_poisson")
    if check:
        _check_counts(y, "eval_poisson")
    if eta.min(initial=math.inf) > 0.0:
        # The sum first: an infinite intensity never reaches the log.
        total = float(eta.sum())
        if total < math.inf:
            return total - float(y.dot(np.log(eta)))
    pos = y > 0.0
    ep = eta[pos]
    # A negative intensity on a positive count already fails ep <= 0.
    if (ep <= 0.0).any() or (eta < 0.0).any():
        total = math.inf
    else:
        total = float(eta.sum()) - float((y[pos] * np.log(ep)).sum())
    # An infinite intensity gives inf - inf = NaN; only this rare branch
    # pays for the scan that tells it from a NaN intensity.
    if not total < math.inf:
        if np.isnan(eta).any():
            raise ValueError("eval_poisson: intensity holds NaN")
        return math.inf
    return total

def grad_poisson(eta, counts) -> Array:
    """Gradient 1 - y/eta where y > 0, and 1 where y = 0.

    Requires eta > 0 on positive-count pixels and eta >= 0 elsewhere;
    violations raise DomainError carrying the first offending index.
    """
    eta, y = _pair64(eta, counts, "grad_poisson")
    _check_counts(y, "grad_poisson")
    pos = y > 0.0
    bad = (pos & (eta <= 0.0)) | (~pos & (eta < 0.0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DomainError(idx, "gradient undefined: intensity outside the Poisson domain")
    g = np.ones_like(eta)
    g[pos] = 1.0 - y[pos] / eta[pos]
    return g


def prox_poisson(x, beta: float, counts) -> Array:
    """prox of beta * (Poisson fidelity) at x, elementwise.

    prox(x)_i = (d_i + sqrt(d_i^2 + 4 beta y_i)) / 2 with d_i = x_i - beta,
    which reduces to max(d_i, 0) on zero-count pixels. Output is always
    inside the domain (non-negative, positive where y_i > 0).
    """
    _check_positive(beta, "prox scale beta")
    x, y = _pair64(x, counts, "prox_poisson")
    _check_counts(y, "prox_poisson")
    d = x - beta
    # The same root as max(d, 0) + 2 beta y / (|d| + sqrt(d^2 + 4 beta y)):
    # a sum of non-negative terms, so nothing cancels for d << 0, where the
    # textbook form rounds toward 0. The denominator vanishes only where
    # d = y = 0; flooring it makes that quotient 0.
    s = d * d
    s += 4.0 * beta * y
    np.sqrt(s, out=s)
    s += np.abs(d)
    np.maximum(s, _TINY, out=s)
    p = 2.0 * beta * y
    p /= s
    p += np.maximum(d, 0.0)
    return p


def _conj_poisson(counts: Array) -> Callable[[Array, float], None]:
    """The conjugate step of the Poisson fidelity against ``counts``:
    ``step(a, sigma)`` overwrites a with prox_{sigma f*}(a), elementwise

        (a - sigma y) / (max(a, 1) + 2 sigma y / (rho + h)),
        h = |a - 1|,  rho = sqrt(h^2 + 4 sigma y),

    which is min(a, 1) where y = 0 and below 1 where y > 0. By Moreau's
    identity it is a - sigma prox_{f / sigma}(a / sigma), the textbook
    (a + 1 - rho) / 2, or 2 (a - sigma y) / (a + 1 + rho). The first
    cancels where a >> 1, the second's denominator where a << -1; here
    that denominator is 2 max(a, 1) + 4 sigma y / (rho + h), a sum of
    non-negative terms. Its quotient is sigma y / (rho / 2 + h / 2) bit for
    bit, the factors being powers of 2, unless h^2 overflows or underflows;
    the full-scale h and rho save the pass that halves h. The step keeps
    five count-sized arrays: sigma y, 2 sigma y and 4 sigma y, recomputed
    only when sigma changes, and two temporaries. It does not check the
    counts.
    """
    sy, sy2, sy4, h, rho = np.empty((5, counts.size))
    scaled = math.nan  # the sigma that sy, sy2 and sy4 hold

    def step(a: Array, sigma: float) -> None:
        nonlocal scaled
        if sigma != scaled:
            np.multiply(counts, sigma, out=sy)
            np.multiply(sy, 2.0, out=sy2)
            np.multiply(sy, 4.0, out=sy4)
            scaled = sigma
        np.subtract(a, 1.0, out=h)
        np.abs(h, out=h)
        np.multiply(h, h, out=rho)
        np.add(rho, sy4, out=rho)
        np.sqrt(rho, out=rho)
        np.add(rho, h, out=rho)
        # rho + h is 0 only where a = 1 and y = 0, whose quotient is then 0.
        np.maximum(rho, _TINY, out=rho)
        np.divide(sy2, rho, out=rho)
        np.maximum(a, 1.0, out=h)
        np.add(rho, h, out=rho)
        a -= sy
        a /= rho
    return step


def soft_threshold(values, threshold: float, out: Array | None = None,
                   scratch: Array | None = None) -> Array:
    """prox of threshold * ||.||_1: shrink each component toward zero, as
    v - v.clip(-threshold, threshold), two passes with no sign array, so
    every zero it returns is +0.0.

    ``out``, a float64 array of the values' shape (the values themselves
    too), receives the result when given. The clip goes into out, unless
    out is the values: then into ``scratch``, a float64 array of their
    shape, or else a new array.
    """
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    v = np.asarray(values, dtype=np.float64)
    clipped = v.clip(-threshold, threshold, out=scratch if out is v else out)
    return np.subtract(v, clipped, out=clipped if out is None else out)


def project_positive(x) -> Array:
    """Euclidean projection onto the non-negative orthant."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)
