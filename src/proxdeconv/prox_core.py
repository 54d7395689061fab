"""Elementwise proximity operators: Poisson fidelity, sparsity, positivity.

The Poisson anti-log-likelihood of intensities eta against counts y is

    f(eta) = sum_i  -y_i log(eta_i) + eta_i        (y_i > 0, eta_i > 0)
                    eta_i                          (y_i = 0, eta_i >= 0)

and +inf as soon as any component leaves its domain (0 log 0 = 0 by the
0! = 1 convention). Its scaled prox has the closed form of a per-pixel
quadratic root. The l1 penalty's prox is soft-thresholding and the
positivity indicator's is the projection onto the non-negative orthant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .operators import all_counts

Array = np.ndarray

_TINY = np.finfo(np.float64).tiny


def _pair64(a, b, context: str) -> tuple[Array, Array]:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise DimensionMismatchError(expected=a.size, actual=b.size, context=context)
    return a, b


def _validate_counts(y: Array, context: str) -> None:
    if not all_counts(y):
        raise ValueError(f"{context}: counts must be finite non-negative integers")


def eval_poisson(eta, counts, check: bool = True) -> float:
    """Poisson anti-log-likelihood; +inf outside the domain or at an
    infinite intensity, never NaN: a NaN intensity raises ValueError.

    ``check=False`` skips the scan of ``counts``, for callers that have
    validated them once already.
    """
    eta, y = _pair64(eta, counts, "eval_poisson")
    if check:
        _validate_counts(y, "eval_poisson")
    pos = y > 0.0
    if np.any(eta[pos] <= 0.0) or np.any(eta[~pos] < 0.0):
        total = math.inf
    else:
        total = float(np.sum(eta))
        ep = eta[pos]
        if ep.size:
            total -= float(np.sum(y[pos] * np.log(ep)))
    # An infinite intensity gives inf - inf = NaN; only this rare branch
    # pays for the scan that tells it from a NaN intensity.
    if not total < math.inf:
        if np.any(np.isnan(eta)):
            raise ValueError("eval_poisson: intensity holds NaN")
        return math.inf
    return total

def grad_poisson(eta, counts) -> Array:
    """Gradient 1 - y/eta where y > 0, and 1 where y = 0.

    Requires eta > 0 on positive-count pixels and eta >= 0 elsewhere;
    violations raise DomainError carrying the first offending index.
    """
    eta, y = _pair64(eta, counts, "grad_poisson")
    _validate_counts(y, "grad_poisson")
    pos = y > 0.0
    bad = (pos & (eta <= 0.0)) | (~pos & (eta < 0.0))
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise DomainError(idx, "gradient undefined: intensity outside the Poisson domain")
    g = np.ones_like(eta)
    g[pos] = 1.0 - y[pos] / eta[pos]
    return g


def prox_poisson(x, beta: float, counts, check: bool = True) -> Array:
    """prox of beta * (Poisson fidelity) at x, elementwise.

    prox(x)_i = (d_i + sqrt(d_i^2 + 4 beta y_i)) / 2 with d_i = x_i - beta,
    which reduces to max(d_i, 0) on zero-count pixels. Output is always
    inside the domain (non-negative, positive where y_i > 0).
    ``check=False`` skips the scan of ``counts``, for callers that have
    validated them once already.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError(f"prox scale beta must be finite and > 0, got {beta}")
    x, y = _pair64(x, counts, "prox_poisson")
    if check:
        _validate_counts(y, "prox_poisson")
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


def soft_threshold(values, threshold: float) -> Array:
    """prox of threshold * ||.||_1: shrink each component toward zero."""
    if not threshold >= 0.0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def project_positive(x) -> Array:
    """Euclidean projection onto the non-negative orthant."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)
