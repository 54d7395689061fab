"""Frame dictionaries: synthesis operators with certified frame bounds.

A dictionary is a ``LinearOperator``: its ``apply`` is the synthesis map
``coeffs -> image`` and its ``adjoint`` the analysis ``synthesis^T``, and
it carries frame bounds ``c1, c2`` such that

    c1 * ||x||^2 <= ||analysis(x)||^2 <= c2 * ||x||^2.

``tight`` means c1 == c2 == c, equivalently synthesis(analysis(x)) == c * x.
Shipped constructions: the Dirac (identity) basis, the orthonormal separable
2-D Haar wavelet basis, the undecimated B3-spline starlet frame rescaled to
be Parseval, and unions of tight frames (rescaled by 1/sqrt(K) so the union
stays Parseval).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError
from .operators import FourierMultiplier, LinearOperator, _check_count

Array = np.ndarray

_SQRT2 = np.sqrt(2.0)


class FrameDictionary(LinearOperator):
    """Synthesis ``coeffs -> image`` over a ``height x width`` raster.

    ``apply`` (alias ``synthesis``) maps ``coeff_dim`` coefficients to the
    ``n`` pixels and ``adjoint`` (alias ``analysis``) maps back; the
    spectral bound is sqrt(c2).
    """

    __slots__ = ("width", "height", "c1", "c2", "tight")

    def __init__(self, width: int, height: int, coeff_dim: int,
                 synthesis: Callable[[Array], Array],
                 analysis: Callable[[Array], Array],
                 c1: float, c2: float, tight: bool):
        _check_count(width, "width")
        _check_count(height, "height")
        n = width * height
        if coeff_dim < n:
            raise ValueError(f"coefficient dim {coeff_dim} smaller than raster size {n}")
        if not 0.0 < c1 <= c2 < np.inf:
            raise ValueError("frame bounds must satisfy 0 < c1 <= c2 < inf, "
                             f"got ({c1}, {c2})")
        if tight and c1 != c2:
            raise ValueError(f"a tight frame needs c1 == c2, got ({c1}, {c2})")
        super().__init__(coeff_dim, n, synthesis, analysis, np.sqrt(c2))
        self.width = int(width)
        self.height = int(height)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.tight = bool(tight)

    synthesis = LinearOperator.apply
    analysis = LinearOperator.adjoint
    n = property(lambda self: self.out_dim, doc="Pixels per image.")
    coeff_dim = property(lambda self: self.in_dim, doc="Coefficients per image.")


def make_dirac(width: int, height: int) -> FrameDictionary:
    """Identity dictionary: coefficients are pixels."""
    return FrameDictionary(width, height, width * height,
                           lambda c: c.copy(), lambda x: x.copy(),
                           c1=1.0, c2=1.0, tight=True)


def _haar_forward_axis(block: Array, axis: int) -> Array:
    b = np.moveaxis(block, axis, 0)
    m = b.shape[0] // 2
    even, odd = b[0::2], b[1::2]
    out = np.empty_like(b)
    out[:m] = (even + odd) / _SQRT2
    out[m:] = (even - odd) / _SQRT2
    return np.moveaxis(out, 0, axis)


def _haar_inverse_axis(block: Array, axis: int) -> Array:
    b = np.moveaxis(block, axis, 0)
    m = b.shape[0] // 2
    approx, detail = b[:m], b[m:]
    out = np.empty_like(b)
    out[0::2] = (approx + detail) / _SQRT2
    out[1::2] = (approx - detail) / _SQRT2
    return np.moveaxis(out, 0, axis)


def make_haar_dwt(width: int, height: int, levels: int) -> FrameDictionary:
    """Orthonormal separable Haar wavelet basis, pyramid layout.

    Each level splits the current approximation block into quadrants
    (approximation first) along every non-trivial axis. Axes of length 1 are
    passed through, which covers 1-D rasters; every other axis length must be
    divisible by 2**levels.
    """
    _check_count(levels, "levels")
    for name, size in (("width", width), ("height", height)):
        if size > 1 and size % (1 << levels) != 0:
            raise ValueError(
                f"{name}={size} not divisible by 2^levels={1 << levels}"
            )
    if width == 1 and height == 1:
        raise ValueError("Haar transform needs at least one non-trivial axis")
    n = width * height

    def fwd(x: Array) -> Array:
        arr = x.reshape(height, width).copy()
        ch, cw = height, width
        for _ in range(levels):
            block = arr[:ch, :cw]
            if cw > 1:
                block = _haar_forward_axis(block, 1)
            if ch > 1:
                block = _haar_forward_axis(block, 0)
            arr[:ch, :cw] = block
            ch = max(ch // 2, 1)
            cw = max(cw // 2, 1)
        return arr.ravel()

    def inv(c: Array) -> Array:
        arr = c.reshape(height, width).copy()
        sizes = []
        ch, cw = height, width
        for _ in range(levels):
            sizes.append((ch, cw))
            ch = max(ch // 2, 1)
            cw = max(cw // 2, 1)
        for ch, cw in reversed(sizes):
            block = arr[:ch, :cw]
            if ch > 1:
                block = _haar_inverse_axis(block, 0)
            if cw > 1:
                block = _haar_inverse_axis(block, 1)
            arr[:ch, :cw] = block
        return arr.ravel()

    return FrameDictionary(width, height, n, inv, fwd, c1=1.0, c2=1.0, tight=True)


def _b3_axis_gain(length: int, freqs: Array, dilation: int) -> Array:
    """Frequency response of the dilated B3-spline kernel [1,4,6,4,1]/16.

    Taps sit at offsets {0, +-d, +-2d} with weights {6, 4, 1}/16, so the
    response is real and even: 3/8 + 1/2 cos(w d) + 1/8 cos(2 w d).
    """
    ang = (2.0 * np.pi * dilation / length) * freqs
    return 0.375 + 0.5 * np.cos(ang) + 0.125 * np.cos(2.0 * ang)


def make_starlet(width: int, height: int, levels: int) -> FrameDictionary:
    """Undecimated B3-spline (a trous) starlet, rescaled to a Parseval frame.

    Band j of the raw transform applies the Fourier multiplier
    ``A_j - A_{j+1}`` (detail) or ``A_J`` (coarse), where ``A_j`` is the
    product of the dilated smoothing responses below scale j. Dividing every
    band multiplier by ``sqrt(sum_j multiplier_j^2)`` pixel-wise in frequency
    makes the stacked operator an exact Parseval frame: analysis is an
    isometry and synthesis(analysis(x)) == x.

    Coefficients are laid out as levels+1 full-size rasters: detail scales
    fine to coarse, then the smooth residual.
    """
    _check_count(levels, "levels")
    if width < (1 << levels) or height < (1 << levels):
        raise ValueError(
            f"raster {height}x{width} too small for {levels} starlet levels"
        )
    row_f = np.arange(height, dtype=np.float64)
    col_f = np.arange(width // 2 + 1, dtype=np.float64)

    gains = np.empty((levels + 1, height, width // 2 + 1), dtype=np.float64)
    smooth = np.ones((height, width // 2 + 1), dtype=np.float64)
    for j in range(levels):
        gain_j = np.outer(_b3_axis_gain(height, row_f, 1 << j),
                          _b3_axis_gain(width, col_f, 1 << j))
        smoother = smooth * gain_j
        np.subtract(smooth, smoother, out=gains[j])
        smooth = smoother
    gains[levels] = smooth

    gains /= np.sqrt(sum(g * g for g in gains))
    bands = FourierMultiplier(gains, height, width, spectral_bound=1.0)
    return FrameDictionary(width, height, bands.out_dim, bands.adjoint,
                           bands.apply, c1=1.0, c2=1.0, tight=True)


def make_union(members: Sequence[FrameDictionary]) -> FrameDictionary:
    """Union of dictionaries sharing one raster grid.

    When every member is tight with c == 1, sub-analyses are scaled by
    1/sqrt(K) so the union is again Parseval. Otherwise members are stacked
    unscaled and the declared bounds are the (valid, possibly loose) sums
    c1 = sum c1_k, c2 = sum c2_k with tight=False.
    """
    members = list(members)
    if not members:
        raise ValueError("union needs at least one member dictionary")
    width, height = members[0].width, members[0].height
    for d in members[1:]:
        if (d.width, d.height) != (width, height):
            raise DimensionMismatchError(
                expected=f"{height}x{width}",
                actual=f"{d.height}x{d.width}",
                context="make_union",
            )
    k = len(members)
    parseval = all(d.tight and abs(d.c1 - 1.0) <= 1e-12 for d in members)
    weight = 1.0 / np.sqrt(k) if parseval else 1.0
    offsets = np.cumsum([0] + [d.coeff_dim for d in members])
    total = int(offsets[-1])
    n = width * height

    def fwd(x: Array) -> Array:
        out = np.empty(total, dtype=np.float64)
        for d, lo, hi in zip(members, offsets[:-1], offsets[1:]):
            out[lo:hi] = weight * d.analysis(x)
        return out

    def inv(c: Array) -> Array:
        out = np.zeros(n, dtype=np.float64)
        for d, lo, hi in zip(members, offsets[:-1], offsets[1:]):
            out += weight * d.synthesis(c[lo:hi])
        return out

    if parseval:
        c1 = c2 = 1.0
        tight = True
    else:
        c1 = sum(d.c1 for d in members)
        c2 = sum(d.c2 for d in members)
        tight = False
    return FrameDictionary(width, height, total, inv, fwd, c1, c2, tight)


def frame_bounds(d: FrameDictionary, probes: int = 200, seed: int = 0) -> tuple[float, float]:
    """Empirical (min, max) Rayleigh quotients of the Gram synthesis o analysis.

    Runs ``probes`` power-iteration steps for the top eigenvalue, then the
    same budget on the reflected operator ``s I - Gram`` (s slightly above
    the top estimate) to reach the bottom one. Deterministic for a seed.
    """
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    rng = np.random.default_rng(seed)

    def gram(x: Array) -> Array:
        return d.synthesis(d.analysis(x))

    def top_eig(op: Callable[[Array], Array]) -> float:
        v = rng.standard_normal(d.n)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(probes):
            w = op(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0
            lam_new = float(v @ w)
            v = w / nw
            if abs(lam_new - lam) <= 1e-13 * max(1.0, abs(lam_new)):
                return lam_new
            lam = lam_new
        return lam

    lam_max = top_eig(gram)
    shift = 1.01 * lam_max + 1e-12
    lam_min = shift - top_eig(lambda x: shift * x - gram(x))
    return lam_min, lam_max


def _split_top_level(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append(text[start:])
    return parts


def parse_dictionary_spec(spec: str, width: int, height: int) -> FrameDictionary:
    """Build a dictionary from a spec string.

    Grammar: ``dirac`` | ``haar:levels=J`` | ``starlet:levels=J`` |
    ``union(a,b,...)`` with members drawn from the same grammar.
    """
    text = spec.strip()
    if not text:
        raise ValueError("empty dictionary spec")
    if text == "dirac":
        return make_dirac(width, height)
    if text.startswith("union(") and text.endswith(")"):
        inner = text[len("union("):-1]
        members = [parse_dictionary_spec(part, width, height)
                   for part in _split_top_level(inner)]
        return make_union(members)
    name, _, params = text.partition(":")
    makers = {"haar": make_haar_dwt, "starlet": make_starlet}
    if name in makers:
        key, _, value = params.partition("=")
        if key != "levels" or not value:
            raise ValueError(
                f"dictionary spec {spec!r} needs the form {name}:levels=J"
            )
        try:
            levels = int(value)
        except ValueError:
            raise ValueError(f"levels must be an integer in {spec!r}") from None
        return makers[name](width, height, levels)
    raise ValueError(f"unknown dictionary spec {spec!r}")
