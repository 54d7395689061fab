"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: direct convolution sums, scalar
golden-section minimization, coarse-to-fine grid search, finite differences.
None of it shares code (or failure modes) with the package under test, so
agreement is evidence, not tautology.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(fn, lo: float, hi: float, tol: float = 1e-12,
                   max_iter: int = 400) -> float:
    """Argmin of a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def prox_objective_scalar(f_scalar, x: float):
    """The 1-D prox objective t -> f(t) + (t - x)^2 / 2."""
    return lambda t: f_scalar(t) + 0.5 * (t - x) ** 2


def poisson_scalar(t: float, beta: float, y: float) -> float:
    """beta * (Poisson anti-log-likelihood) of a single intensity."""
    if y > 0.0:
        if t <= 0.0:
            return math.inf
        return beta * (-y * math.log(t) + t)
    if t < 0.0:
        return math.inf
    return beta * t


def grid_minimize(fn_batch, lows, highs, points: int = 13, rounds: int = 14):
    """Coarse-to-fine grid search for a convex objective over a box.

    ``fn_batch`` maps an (m, d) array of points to m objective values
    (+inf allowed). Each round lays a ``points``-per-axis grid over the
    current box, then re-centres a box of four grid cells around the best
    point, shrinking the span by 4/(points-1) per round.
    """
    lows = np.asarray(lows, dtype=np.float64)
    highs = np.asarray(highs, dtype=np.float64)
    lo, hi = lows.copy(), highs.copy()
    best_x, best_v = None, math.inf
    for _ in range(rounds):
        axes = [np.linspace(a, b, points) for a, b in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.asarray(fn_batch(pts), dtype=np.float64)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v = float(vals[k])
            best_x = pts[k].copy()
        span = (hi - lo) / (points - 1)
        lo = np.maximum(lows, best_x - 2.0 * span)
        hi = np.minimum(highs, best_x + 2.0 * span)
    return best_x, best_v


def circ_conv_direct(psf_2d, image_2d, origin) -> np.ndarray:
    """O(n * kernel) direct periodic convolution, looping over kernel taps.

    Matches the convention that kernel sample ``origin`` sits at lag zero:
    out[i, j] = sum_{a, b} psf[a, b] * x[(i - a + oy) % H, (j - b + ox) % W].
    """
    psf = np.asarray(psf_2d, dtype=np.float64)
    x = np.asarray(image_2d, dtype=np.float64)
    hh, ww = x.shape
    oy, ox = origin
    out = np.zeros_like(x)
    for a in range(psf.shape[0]):
        for b in range(psf.shape[1]):
            shift_r = (a - oy) % hh
            shift_c = (b - ox) % ww
            out += psf[a, b] * np.roll(x, (shift_r, shift_c), axis=(0, 1))
    return out


def fd_gradient(fn, x, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * step)
    return g


def max_vi_violation(p, x, f, rng, probes: int = 100, radius: float = 1.0) -> float:
    """Worst violation of <v - p, x - p> + f(p) <= f(v) over random probes v.

    A correct prox output p of f at x makes this non-positive for every v;
    the return value is the max gap, so anything above the slack is a bug.
    """
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    fp = f(p)
    worst = -math.inf
    for _ in range(probes):
        v = p + radius * rng.standard_normal(p.size)
        gap = float((v - p) @ (x - p)) + fp - f(v)
        worst = max(worst, gap)
    return worst


def analysis_matrix(analysis, n: int, coeff_dim: int) -> np.ndarray:
    """Dense (coeff_dim, n) matrix of an analysis map, one basis vector at a time."""
    mat = np.zeros((coeff_dim, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        mat[:, j] = analysis(e)
    return mat


def b3_band_gains(height: int, width: int, levels: int):
    """Starlet band multipliers on the full FFT grid, from first principles.

    Builds each dilated smoothing kernel [1,4,6,4,1]/16 as an explicit
    spatial array (taps at 0, +-2^j, +-2^(j+1), periodic wrap), takes its
    numeric FFT, forms the cascade products A_j, and returns the
    Parseval-normalized band gains [A_0 - A_1, ..., A_{J-1} - A_J, A_J]
    divided pixel-wise by sqrt(sum of squares).
    """
    def axis_gain(length: int, dilation: int) -> np.ndarray:
        kern = np.zeros(length)
        kern[0] = 6.0 / 16.0
        for offset, w in ((dilation, 4.0 / 16.0), (2 * dilation, 1.0 / 16.0)):
            kern[offset % length] += w
            kern[(-offset) % length] += w
        return np.fft.fft(kern).real  # symmetric taps: spectrum is real

    smooth = np.ones((height, width))
    raw = []
    for j in range(levels):
        gain = np.outer(axis_gain(height, 1 << j), axis_gain(width, 1 << j))
        raw.append(smooth - smooth * gain)
        smooth = smooth * gain
    raw.append(smooth)
    norm = np.sqrt(sum(g * g for g in raw))
    return [g / norm for g in raw]


def scene64() -> np.ndarray:
    """Piecewise-smooth 64x64 benchmark: background, shaded disk, block, spot."""
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w), 0.08)
    cy, cx, r = 0.62 * h, 0.36 * w, 0.23 * min(h, w)
    d2 = ((yy - cy) ** 2 + (xx - cx) ** 2) / r ** 2
    disk = d2 <= 1.0
    img[disk] += 0.55 * (1.0 - 0.5 * d2[disk])
    img[int(0.15 * h):int(0.38 * h), int(0.52 * w):int(0.90 * w)] += 0.40
    img += 0.9 * np.exp(-(((yy - 0.8 * h) ** 2 + (xx - 0.78 * w) ** 2)
                          / (0.035 * min(h, w)) ** 2))
    return img


def scene32() -> np.ndarray:
    """Smaller sibling of scene64 with a bright floor (no zero counts at peak 100)."""
    h = w = 32
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    img = np.full((h, w), 0.35)
    d2 = ((yy - 19.0) ** 2 + (xx - 11.0) ** 2) / 49.0
    disk = d2 <= 1.0
    img[disk] += 0.5 * (1.0 - 0.5 * d2[disk])
    img[6:11, 18:28] += 0.35
    img += 0.8 * np.exp(-(((yy - 26.0) ** 2 + (xx - 25.0) ** 2) / 2.6 ** 2))
    return img


def douglas_rachford(proxes, mu: float, theta: float, iters: int, init):
    """The paper's outer loop: product-space Douglas-Rachford over K proxes.

    ``prox(point, scale)`` returns prox_{scale f_i}(point). Every term keeps
    its own copy of the variable, proxed at scale K mu (equal weights 1/K);
    the prox outputs are averaged, each copy moves by theta times the
    reflected average less its own output, and the iterate moves by theta
    towards the average. Returns the iterate after ``iters`` steps.
    """
    k = len(proxes)
    x = np.asarray(init, dtype=np.float64).copy()
    copies = [x.copy() for _ in proxes]
    for _ in range(iters):
        xi = [prox(c, k * mu) for prox, c in zip(proxes, copies)]
        xi_bar = sum(xi) / k
        copies = [c + theta * (2.0 * xi_bar - x - z)
                  for c, z in zip(copies, xi)]
        x = x + theta * (xi_bar - x)
    return x


def relative_change(new, old) -> float:
    """||new - old|| / ||old||; 0 when both are zero, +inf when only old is.

    The primal change the solver's stopping rule reads, for hand rollouts.
    """
    new = np.asarray(new, dtype=np.float64).ravel()
    old = np.asarray(old, dtype=np.float64).ravel()
    if new.size != old.size:
        raise ValueError(f"sizes differ: {new.size} and {old.size}")
    num, denom = float(np.linalg.norm(new - old)), float(np.linalg.norm(old))
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


def rank_one_factors(ops):
    """Each map's (output gains, input gains) as ``MapStack`` reads them,
    None for a side without; or None unless every map is a multiplier on
    one grid with one input size, all share one input gains array (or
    none), and at most one has no output gains. A map whose output gains
    are the shared input gains reads as them."""
    if not ops or not all(hasattr(op, "outputs") and (op.height, op.width, op.in_dim)
                          == (ops[0].height, ops[0].width, ops[0].in_dim)
                          for op in ops):
        return None
    shared = next((op.inputs for op in ops if op.inputs is not None), None)
    pairs = [(None, shared) if op.inputs is None and op.outputs is shared
             else (op.outputs, op.inputs) for op in ops]
    if any(gains is not shared for _, gains in pairs) \
            or sum(out is None for out, _ in pairs) > 1:
        return None
    return pairs


def rank_one_apply(ops, x):
    """Each map's output, by numpy alone in the rank-1 order: the input's
    spectra times the shared input gains, summed over bands in order, then
    times each map's output gains, one inverse transform per map. Maps that
    ``rank_one_factors`` cannot read apply one by one."""
    pairs = rank_one_factors(ops)
    if pairs is None:
        return [op.apply(x) for op in ops]
    shape = (ops[0].height, ops[0].width)
    spectra = np.fft.rfft2(np.asarray(x).reshape(-1, *shape))
    shared = pairs[0][1]
    merged = spectra[0] if shared is None else np.add.reduce(shared * spectra, axis=0)
    return [np.fft.irfft2(merged if out is None else out * merged, s=shape).ravel()
            for out, _ in pairs]


def _conj(gains):
    """The conjugate gains; gains without a nonzero imaginary part as they
    are, whose +0.0 imaginary parts a conjugate would make -0.0."""
    return gains.conj() if np.iscomplexobj(gains) and gains.imag.any() else gains


def rank_one_adjoint(ops, us):
    """sum_i K_i^T u_i by numpy alone in the rank-1 order: every band of the
    duals' spectra times its map's conjugate output gains, all bands summed
    in order, then times the conjugate shared input gains, one inverse
    transform; gains with no nonzero imaginary part are not conjugated.
    Maps that ``rank_one_factors`` cannot read add their adjoints one by
    one."""
    pairs = rank_one_factors(ops)
    if pairs is None:
        return sum(op.adjoint(u) for op, u in zip(ops, us))
    shape = (ops[0].height, ops[0].width)
    bands = [np.fft.rfft2(np.asarray(u).reshape(-1, *shape)) for u in us]
    bands = [b if out is None else _conj(out) * b for (out, _), b in zip(pairs, bands)]
    total = np.add.reduce(np.concatenate(bands), axis=0)
    shared = pairs[0][1]
    if shared is not None:
        total = _conj(shared) * total
    return np.fft.irfft2(total, s=shape).ravel()


def _nothing(*part):
    """A hook that does nothing: ``GainMatrixStack``'s default hook."""


class GainMatrixStack:
    """The solver's earlier map rule, the oracle for the rank-1 one, with
    ``MapStack``'s interface so that a solve can run through it.

    Multipliers on one grid with one input size share one forward transform
    of the input, and each is a gain matrix per frequency: a merging map one
    row, a splitting map one column. The adjoint adds every map's conjugate
    transposed gain matrix times its duals' spectra, from the first map's
    part, before one inverse transform. Other maps, products among them,
    apply one by one. The hooks keep ``MapStack``'s rule, on one thread,
    with the variable as one block and the stack as one part: ``hand``,
    then ``fill`` (apply) or ``meanwhile`` (adjoint), then the map, then
    ``drain``.
    """

    def __init__(self, ops):
        self.ops = list(ops)
        ends = np.cumsum([0] + [op.out_dim for op in self.ops])
        self.slices = [slice(int(lo), int(hi)) for lo, hi in zip(ends, ends[1:])]
        self.in_dim = self.ops[0].in_dim if self.ops else None
        self.blocks = [slice(0, self.in_dim)]
        self.out_dim = int(ends[-1])
        first = self.ops[0] if self.ops else None
        self.shape = (first.height, first.width) if self.ops and all(
            hasattr(op, "outputs") and (op.outputs is None or op.inputs is None)
            and (op.height, op.width, op.in_dim)
            == (first.height, first.width, first.in_dim) for op in self.ops) else None

    def split(self, stack):
        return [stack[s] for s in self.slices]

    def threads(self):
        return contextlib.nullcontext()

    def apply(self, x, out=None, fill=_nothing, drain=_nothing, hand=_nothing):
        hand(self.blocks[0])
        fill(self.blocks[0])
        out = np.empty(self.out_dim) if out is None else out
        if self.shape is None:
            for op, s in zip(self.ops, self.slices):
                out[s] = op.apply(x)
        else:
            spectra = np.fft.rfft2(np.asarray(x).reshape(-1, *self.shape))
            for op, s in zip(self.ops, self.slices):
                rows = op.outputs * spectra if op.inputs is None \
                    else np.sum(op.inputs * spectra, axis=0)
                out[s] = np.fft.irfft2(rows, s=self.shape).ravel()
        drain(slice(0, self.out_dim))
        return out

    def adjoint(self, u, out=None, drain=_nothing, hand=_nothing, meanwhile=_nothing):
        hand(slice(0, self.out_dim))
        meanwhile()
        out = np.empty(self.in_dim) if out is None else out
        if self.shape is None:
            out[...] = sum(op.adjoint(u[s]) for op, s in zip(self.ops, self.slices))
        else:
            out[...] = self._merged(u)
        drain(self.blocks[0])
        return out

    def _merged(self, u):
        """sum_i K_i^T u_i of multipliers, by their gain matrices."""
        total = None
        for op, s in zip(self.ops, self.slices):
            gains = op.outputs if op.inputs is None else op.inputs
            part = gains.conj() * np.fft.rfft2(u[s].reshape(-1, *self.shape))
            if op.inputs is None:
                part = np.sum(part, axis=0, keepdims=True)
            total = part if total is None else total + part
        return np.fft.irfft2(total, s=self.shape).ravel()
