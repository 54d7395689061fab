"""Linear operators on flat rasters, and Fourier multipliers.

Images are stored row-major as flat float64 arrays; operators declare their
dimensions and a spectral bound so downstream solvers can pick step sizes
without probing. Shift-invariant operators (circular convolution, the
starlet bands) are ``FourierMultiplier`` objects: diagonal in the 2-D
real DFT, with one transfer function per band, so an apply or adjoint
costs bands + 1 real FFTs (two for a convolution), taken in two numpy
calls because the bands are one array axis. ``compose`` and ``T`` build
plain operators; ``fourier_form`` is the one place that recovers a
multiplier from any operator that has that form (a product of a blur and
the starlet, say). ``apply_each`` and ``adjoint_sum`` run the maps of the
primal-dual solver: multipliers on one grid share the forward spectra of
their input and sum their adjoints in the spectrum, whether they merge a
band stack (H Phi and Phi) or split an image into one (H and Phi^T).
``fft2_count`` counts the 2-D FFTs this module computes, one per image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatchError

Array = np.ndarray


def _flat64(values, length: int, context: str) -> Array:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size != length:
        raise DimensionMismatchError(expected=length, actual=arr.size, context=context)
    return arr


def _check_count(value, name: str, least: int = 1) -> None:
    """Reject a count or size that is not an integer >= ``least``.

    Python and numpy integers pass; bools do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def all_counts(y: Array) -> bool:
    """True when every entry of ``y`` is a finite non-negative integer."""
    return bool(y.size == 0 or (np.min(y) >= 0.0 and np.max(y) < np.inf
                                and np.all(y == np.rint(y))))


@dataclass(frozen=True)
class Image:
    """Row-major raster of float64 samples.

    Attributes
    ----------
    width, height : int
        Raster dimensions, both >= 1.
    data : ndarray
        Flat array of length ``width * height``; sample (row, col) lives at
        ``data[row * width + col]``.
    """

    width: int
    height: int
    data: Array

    def __post_init__(self):
        _check_count(self.width, "width")
        _check_count(self.height, "height")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))
        arr = np.asarray(self.data, dtype=np.float64).ravel()
        if arr.size != self.width * self.height:
            raise DimensionMismatchError(
                expected=self.width * self.height, actual=arr.size, context="Image data"
            )
        object.__setattr__(self, "data", arr)

    @classmethod
    def from_2d(cls, arr) -> "Image":
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={a.ndim}")
        height, width = a.shape
        return cls(width=width, height=height, data=a.ravel())

    def to_2d(self) -> Array:
        return self.data.reshape(self.height, self.width)

    @property
    def n(self) -> int:
        return self.width * self.height

    def is_counts(self) -> bool:
        """True when every sample is a finite non-negative integer value."""
        return all_counts(self.data)


class LinearOperator:
    """Matrix-free linear map with adjoint and declared spectral bound.

    ``spectral_bound`` must satisfy ||apply(x)|| <= spectral_bound * ||x||;
    it need not be sharp, but solvers use it for step-size defaults, so a
    wildly loose bound costs iterations.
    """

    __slots__ = ("in_dim", "out_dim", "spectral_bound", "_apply", "_adjoint")

    def __init__(self, in_dim: int, out_dim: int,
                 apply: Callable[[Array], Array],
                 adjoint: Callable[[Array], Array],
                 spectral_bound: float):
        _check_count(in_dim, "in_dim")
        _check_count(out_dim, "out_dim")
        if not 0.0 <= spectral_bound < np.inf:
            raise ValueError(f"spectral_bound must be finite and >= 0, "
                             f"got {spectral_bound}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.spectral_bound = float(spectral_bound)
        self._apply = apply
        self._adjoint = adjoint

    def apply(self, x) -> Array:
        x = _flat64(x, self.in_dim, "LinearOperator.apply")
        return np.asarray(self._apply(x), dtype=np.float64).ravel()

    def adjoint(self, u) -> Array:
        u = _flat64(u, self.out_dim, "LinearOperator.adjoint")
        return np.asarray(self._adjoint(u), dtype=np.float64).ravel()

    @property
    def T(self) -> LinearOperator:
        """The adjoint map as an operator: apply and adjoint swapped."""
        return LinearOperator(self.out_dim, self.in_dim, self.adjoint,
                              self.apply, self.spectral_bound)


def identity_operator(n: int) -> LinearOperator:
    return LinearOperator(n, n, lambda x: x.copy(), lambda u: u.copy(), 1.0)


def diagonal_operator(diag) -> LinearOperator:
    d = np.asarray(diag, dtype=np.float64).ravel()
    bound = float(np.max(np.abs(d))) if d.size else 0.0
    return LinearOperator(d.size, d.size, lambda x: d * x, lambda u: d * u, bound)


def matrix_operator(mat) -> LinearOperator:
    """Dense matrix as an operator; spectral bound is the exact 2-norm."""
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    bound = float(np.linalg.norm(m, 2)) if min(m.shape) else 0.0
    return LinearOperator(m.shape[1], m.shape[0],
                          lambda x: m @ x, lambda u: m.T @ u, bound)


def compose(outer: LinearOperator, inner: LinearOperator) -> LinearOperator:
    """Plain operator for ``outer(inner(x))``; bounds multiply.

    ``fourier_form`` recovers the gains of a product of multipliers.
    """
    if outer.in_dim != inner.out_dim:
        raise DimensionMismatchError(expected=outer.in_dim, actual=inner.out_dim,
                                     context="compose")
    return LinearOperator(
        inner.in_dim, outer.out_dim,
        lambda x: outer.apply(inner.apply(x)),
        lambda u: inner.adjoint(outer.adjoint(u)),
        outer.spectral_bound * inner.spectral_bound,
    )


fft2_count = 0
"""Real 2-D FFTs, forward and inverse, computed by this module so far: one
per image, also when one call transforms a stack."""


def _rfft2(images: Array) -> Array:
    global fft2_count
    fft2_count += images.size // (images.shape[-2] * images.shape[-1])
    return np.fft.rfft2(images)


def _irfft2(spectra: Array, shape: tuple[int, int]) -> Array:
    global fft2_count
    fft2_count += spectra.size // (spectra.shape[-2] * spectra.shape[-1])
    return np.fft.irfft2(spectra, s=shape).ravel()


class FourierMultiplier(LinearOperator):
    """Shift-invariant map between one image and a stack of bands.

    ``gains[j]`` is the transfer function of band j, a half spectrum of
    shape ``(height, width // 2 + 1)`` as ``np.fft.rfft2`` lays it out:
    band j of the stack is the image filtered by ``gains[j]``. By default
    ``apply`` splits an image into the stack and ``adjoint`` merges a stack
    back through the conjugate gains; ``merge=True`` swaps the two, so that
    ``apply`` sums the filtered bands into one image. One band is a circular
    convolution either way. Apply and adjoint cost bands + 1 real FFTs, in
    two numpy calls: the band axis is an array axis, so all of a stack's
    half spectra are held at once, a complex array about as large as the
    stack itself. ``spectra``, ``images`` and ``combine`` expose the
    three steps, so that several maps of one variable can share its
    spectra.
    """

    __slots__ = ("height", "width", "gains", "merge")

    def __init__(self, gains, height: int, width: int, spectral_bound: float,
                 merge: bool = False):
        g = np.asarray(gains)
        if g.ndim == 2:
            g = g[None]
        if g.ndim != 3 or g.shape[1:] != (height, width // 2 + 1):
            raise DimensionMismatchError(
                expected=f"(bands, {height}, {width // 2 + 1})",
                actual=str(g.shape), context="FourierMultiplier gains")
        n = height * width
        stack = g.shape[0] * n
        # apply and adjoint are overridden below. Handing bound methods to
        # the base class would make each operator a reference cycle that
        # keeps its gains alive until the cyclic collector runs.
        super().__init__(stack if merge else n, n if merge else stack,
                         None, None, spectral_bound)
        self.height = int(height)
        self.width = int(width)
        self.gains = g
        self.merge = bool(merge)

    def spectra(self, flat: Array) -> Array:
        """Half spectra of a flat image or stack, one per image (one FFT each)."""
        return _rfft2(flat.reshape(-1, self.height, self.width))

    def images(self, spectra: Array) -> Array:
        """The flat image or stack whose half spectra are ``spectra``."""
        return _irfft2(spectra, (self.height, self.width))

    def combine(self, spectra: Array, conj: bool = False) -> Array:
        """``sum_j gains[j] * spectra[j]``, with conjugate gains if ``conj``."""
        return np.sum((self.gains.conj() if conj else self.gains) * spectra, axis=0)

    def apply(self, x) -> Array:
        x = _flat64(x, self.in_dim, "FourierMultiplier.apply")
        if self.merge:
            return self.images(self.combine(self.spectra(x)))
        return self.images(self.gains * self.spectra(x))

    def adjoint(self, u) -> Array:
        u = _flat64(u, self.out_dim, "FourierMultiplier.adjoint")
        if self.merge:
            return self.images(self.gains.conj() * self.spectra(u))
        return self.images(self.combine(self.spectra(u), conj=True))


def _one_grid(ops: list[LinearOperator]) -> bool:
    """True when every op is a multiplier on one grid with one input size."""
    return bool(ops) and all(
        isinstance(op, FourierMultiplier)
        and (op.height, op.width, op.in_dim)
        == (ops[0].height, ops[0].width, ops[0].in_dim) for op in ops)


def apply_each(ops: list[LinearOperator], x) -> list[Array]:
    """``[op.apply(x) for op in ops]``, bit for bit; multipliers on one grid
    share the input's spectra, one FFT per input image for all of them."""
    if not _one_grid(ops):
        return [op.apply(x) for op in ops]
    spectra = ops[0].spectra(_flat64(x, ops[0].in_dim, "apply_each"))
    return [op.images(op.combine(spectra) if op.merge else op.gains * spectra)
            for op in ops]


def adjoint_sum(ops: list[LinearOperator], images: list[Array]) -> Array:
    """``sum_i ops[i].adjoint(images[i])``; multipliers on one grid sum in the
    spectrum, with one inverse FFT per output image for all of them."""
    if not _one_grid(ops):
        return sum(op.adjoint(u) for op, u in zip(ops, images))
    first = ops[0]
    spectra = first.spectra(np.concatenate(
        [_flat64(u, op.out_dim, "adjoint_sum") for op, u in zip(ops, images)]))
    ends = np.cumsum([op.out_dim // (first.height * first.width) for op in ops])
    return first.images(sum(
        op.gains.conj() * part if op.merge else op.combine(part, conj=True)
        for op, part in zip(ops, np.split(spectra, ends[:-1]))))


def fourier_form(op: LinearOperator, height: int,
                 width: int) -> FourierMultiplier | None:
    """``op`` as a Fourier multiplier on a ``height x width`` grid, or None.

    The gains are read off the impulse response at pixel 0: through
    ``apply`` when op maps one image to a stack of bands, through
    ``adjoint`` when it maps a stack to one image. They are kept only if
    the multiplier reproduces ``op.apply`` and ``op.adjoint`` on a seeded
    random probe each, to 1e-10 relative, so an operator that is not
    shift-invariant (Haar, a general matrix, a varying diagonal) gives None.
    The multiplier keeps op's declared spectral bound.
    """
    n = height * width
    delta = np.zeros(n)
    delta[0] = 1.0
    if op.in_dim == n and op.out_dim % n == 0:
        merge, response = False, op.apply(delta)
    elif op.out_dim == n and op.in_dim % n == 0:
        merge, response = True, op.adjoint(delta)
    else:
        return None
    gains = _rfft2(response.reshape(-1, height, width))
    del response  # the probes below need its memory
    if merge:
        np.conjugate(gains, out=gains)
    if np.max(np.abs(gains.imag)) <= 1e-13 * np.max(np.abs(gains.real)):
        # Even impulse responses (a centred symmetric kernel, the starlet)
        # have real gains; storing them real halves their memory.
        gains = gains.real.copy()
    form = FourierMultiplier(gains, height, width, op.spectral_bound, merge)
    rng = np.random.default_rng(0)
    for mine, theirs, dim in ((form.apply, op.apply, op.in_dim),
                              (form.adjoint, op.adjoint, op.out_dim)):
        probe = rng.standard_normal(dim)
        want = theirs(probe)
        error = mine(probe)
        error -= want
        if not np.linalg.norm(error) <= 1e-10 * np.linalg.norm(want):
            return None
    return form


def make_circular_convolution(psf: Image, width: int, height: int,
                              origin: tuple[int, int] | None = None) -> FourierMultiplier:
    """Periodic 2-D convolution with ``psf`` on a ``height x width`` grid.

    Parameters
    ----------
    psf : Image
        Convolution kernel; must fit inside the target grid.
    width, height : int
        Grid dimensions of the images the operator acts on.
    origin : (row, col), optional
        Kernel sample that maps to lag zero. Defaults to the centre pixel
        ``(psf.height // 2, psf.width // 2)``.

    Returns
    -------
    FourierMultiplier
        One band: ``apply`` blurs, ``adjoint`` convolves with the spatially
        reversed kernel (conjugate transfer function). ``spectral_bound`` is
        the exact operator norm ``max |DFT(psf)|``.
    """
    if psf.width > width or psf.height > height:
        raise DimensionMismatchError(
            expected=f"kernel <= {height}x{width}",
            actual=f"{psf.height}x{psf.width}",
            context="make_circular_convolution",
        )
    if origin is None:
        origin = (psf.height // 2, psf.width // 2)
    oy, ox = origin
    if not (0 <= oy < psf.height and 0 <= ox < psf.width):
        raise ValueError(f"kernel origin {origin} outside kernel grid "
                         f"{psf.height}x{psf.width}")

    padded = np.zeros((height, width), dtype=np.float64)
    padded[: psf.height, : psf.width] = psf.to_2d()
    padded = np.roll(padded, shift=(-oy, -ox), axis=(0, 1))
    otf = _rfft2(padded)
    # Half-spectrum max equals the full-spectrum max by conjugate symmetry.
    return FourierMultiplier(otf, height, width, float(np.max(np.abs(otf))))
