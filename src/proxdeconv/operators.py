"""Linear operators on flat rasters, with FFT-based circular convolution.

Images are stored row-major as flat float64 arrays; operators declare their
dimensions and a spectral bound so downstream solvers can pick step sizes
without probing. Circular convolution is diagonal in Fourier space, so one
apply (or adjoint) costs exactly two real FFTs.
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
        if self.width < 1 or self.height < 1:
            raise ValueError(f"raster dims must be >= 1, got {self.width}x{self.height}")
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
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"operator dims must be >= 1, got {in_dim}->{out_dim}")
        if not (spectral_bound >= 0.0):
            raise ValueError(f"spectral_bound must be >= 0, got {spectral_bound}")
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
    """Operator for ``outer(inner(x))``; bounds multiply."""
    if outer.in_dim != inner.out_dim:
        raise DimensionMismatchError(expected=outer.in_dim, actual=inner.out_dim,
                                     context="compose")
    return LinearOperator(
        inner.in_dim, outer.out_dim,
        lambda x: outer.apply(inner.apply(x)),
        lambda u: inner.adjoint(outer.adjoint(u)),
        outer.spectral_bound * inner.spectral_bound,
    )


def make_circular_convolution(psf: Image, width: int, height: int,
                              origin: tuple[int, int] | None = None) -> LinearOperator:
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
    LinearOperator
        ``apply`` blurs, ``adjoint`` convolves with the spatially reversed
        kernel (conjugate transfer function). ``spectral_bound`` is the exact
        operator norm ``max |DFT(psf)|``.
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
    otf = np.fft.rfft2(padded)
    otf_conj = np.conj(otf)
    # Half-spectrum max equals the full-spectrum max by conjugate symmetry.
    bound = float(np.max(np.abs(otf)))
    n = width * height

    def fwd(x: Array) -> Array:
        spec = np.fft.rfft2(x.reshape(height, width))
        return np.fft.irfft2(spec * otf, s=(height, width)).ravel()

    def adj(u: Array) -> Array:
        spec = np.fft.rfft2(u.reshape(height, width))
        return np.fft.irfft2(spec * otf_conj, s=(height, width)).ravel()

    return LinearOperator(n, n, fwd, adj, bound)
