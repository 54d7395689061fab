"""Linear operators on flat rasters, and Fourier multipliers.

Images are stored row-major as flat float64 arrays; operators declare their
dimensions and a spectral bound so downstream solvers can pick step sizes
without probing. Shift-invariant operators (circular convolution, the
starlet bands) are ``FourierMultiplier`` objects, diagonal in the 2-D real
DFT and stored as output gains times input gains; ``compose`` keeps both
factors of a blur after a merging multiplier, and ``fourier_form`` recovers a
multiplier from any operator that has that form. A ``MapStack`` runs the
primal-dual solver's maps into one flat stack, every multiplier by one
rank-1 rule, its variable's bands in blocks that fit ``BLOCK_BYTES``, with
hooks per block and per image for the solver's elementwise steps.
Inside its ``threads`` block, a stack of large bands (``THREAD_PIXELS``)
runs the upper half of its blocks, and most image transforms, on a
second thread, which the block starts and joins, and keeps the
one-thread bits: the bands' sum keeps its band order. ``fft2_count``
counts the 2-D FFTs this module computes, one per image. On the hot path,
``MapStack.apply`` and ``adjoint``, each step is one ufunc, reduction or
1-D FFT pass into a buffer, never a dispatch wrapper such as ``rfft2``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import queue
import threading
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


def _check_positive(value, name: str) -> None:
    """Reject a scalar that is not finite and > 0 (NaN included)."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_nonnegative(value, name: str) -> None:
    """Reject a scalar that is not finite and >= 0 (NaN included)."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def _check_frame_bounds(c1, c2) -> None:
    """Reject frame bounds unless 0 < c1 <= c2 < inf (NaN included)."""
    if not 0.0 < c1 <= c2 < np.inf:
        raise ValueError("frame bounds must satisfy 0 < c1 <= c2 < inf, "
                         f"got ({c1}, {c2})")


def _check_grid(expected, actual, context: str) -> None:
    """Reject a raster or operator whose (height, width) is not ``expected``'s."""
    want, got = (expected.height, expected.width), (actual.height, actual.width)
    if want != got:
        raise DimensionMismatchError(expected=want, actual=got, context=context)


def all_counts(y: Array) -> bool:
    """True when every entry of ``y`` is a finite non-negative integer."""
    return bool(y.size == 0 or (np.min(y) >= 0.0 and np.max(y) < np.inf
                                and np.all(y == np.rint(y))))


def _check_counts(y: Array, context: str) -> None:
    """Reject ``y`` unless every entry is a finite non-negative integer."""
    if not all_counts(y):
        raise ValueError(f"{context}: counts must be finite non-negative integers")


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
        object.__setattr__(self, "data", _flat64(self.data, self.n, "Image data"))

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
        _check_nonnegative(spectral_bound, "spectral_bound")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.spectral_bound = float(spectral_bound)
        self._apply = apply
        self._adjoint = adjoint

    def apply(self, x) -> Array:
        x = _flat64(x, self.in_dim, "LinearOperator.apply")
        return _flat64(self._apply(x), self.out_dim, "LinearOperator.apply output")

    def adjoint(self, u) -> Array:
        u = _flat64(u, self.out_dim, "LinearOperator.adjoint")
        return _flat64(self._adjoint(u), self.in_dim, "LinearOperator.adjoint output")

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
    """``outer(inner(x))``; bounds multiply. A multiplier without input gains
    after a one-sided one on its grid is one multiplier with both sides."""
    if outer.in_dim != inner.out_dim:
        raise DimensionMismatchError(expected=outer.in_dim, actual=inner.out_dim,
                                     context="compose")
    bound = outer.spectral_bound * inner.spectral_bound
    if isinstance(outer, FourierMultiplier) and isinstance(inner, FourierMultiplier) \
            and outer.inputs is None and (inner.outputs is None or inner.inputs is None) \
            and (outer.height, outer.width) == (inner.height, inner.width):
        return FourierMultiplier(inner.height, inner.width, bound, outer.outputs,
                                 inner.outputs if inner.inputs is None else inner.inputs)
    return LinearOperator(
        inner.in_dim, outer.out_dim,
        lambda x: outer.apply(inner.apply(x)),
        lambda u: inner.adjoint(outer.adjoint(u)), bound)


fft2_count = 0
"""Real 2-D FFTs, forward and inverse, computed by this module so far: one
per image, also when one call transforms a stack."""
_counting = threading.Lock()  # a solve's two threads both count


def _rfft2(images: Array, out: Array | None = None) -> Array:
    """Half spectra of a stack of images, into ``out`` when given: the two
    1-D passes ``rfft2`` makes, bit for bit, without its argument handling."""
    global fft2_count
    with _counting:
        fft2_count += images.size // (images.shape[-2] * images.shape[-1])
    out = np.fft.rfft(images, axis=-1, out=out)
    return np.fft.fft(out, axis=-2, out=out)


def _irfft2(spectra: Array, out: Array) -> Array:
    """The images whose half spectra are ``spectra``, written into ``out``;
    ``spectra`` is overwritten. These are the two 1-D passes ``irfft2``
    makes, bit for bit: numpy 2.4's ``irfft2`` ignores its ``out``."""
    global fft2_count
    with _counting:
        fft2_count += spectra.size // (spectra.shape[-2] * spectra.shape[-1])
    np.fft.ifft(spectra, axis=-2, out=spectra)
    return np.fft.irfft(spectra, n=out.shape[-1], axis=-1, out=out)


def _real_valued(gains: Array) -> bool:
    """True when ``gains`` are real, or complex with every imaginary part 0."""
    return not (np.iscomplexobj(gains) and gains.imag.any())


class FourierMultiplier(LinearOperator):
    """Shift-invariant map, at each frequency output gains times input gains.

    ``outputs`` and ``inputs`` are stacks of half spectra of shape
    ``(bands, height, width // 2 + 1)`` as ``np.fft.rfft2`` lays them out,
    or None for one band passed through. ``apply`` filters band j of its
    input by ``inputs[j]`` and sums the bands into one image, then filters
    that image by each ``outputs[j]`` into band j of its output. So output
    gains alone split an image into bands (one band is a circular
    convolution), input gains alone merge bands into an image, and both make
    a product (``compose``). A one-band side given as ``inputs`` alone is
    stored as ``outputs``, the same convolution; at least one side must be
    given. Apply and adjoint cost one real FFT per input and output band, in
    one forward and one inverse transform: they are the one-map case of
    ``MapStack``, whose bands are one array axis. Gains may be real or
    complex; complex gains whose imaginary parts are +0.0 give the bits of
    real ones, without numpy's casting buffer.
    """

    __slots__ = ("height", "width", "outputs", "inputs")

    def __init__(self, height: int, width: int, spectral_bound: float,
                 outputs=None, inputs=None):
        if outputs is None and inputs is None:
            raise ValueError("a FourierMultiplier needs output or input gains")
        if outputs is None and len(inputs) == 1:
            outputs, inputs = inputs, None
        sides = [None if g is None else np.asarray(g) for g in (outputs, inputs)]
        for g in sides:
            if g is not None and (g.ndim != 3 or g.shape[1:] != (height, width // 2 + 1)):
                raise DimensionMismatchError(
                    expected=f"(bands, {height}, {width // 2 + 1})",
                    actual=str(g.shape), context="FourierMultiplier gains")
        n = height * width
        # apply and adjoint are overridden below. Handing bound methods to
        # the base class would make each operator a reference cycle that
        # keeps its gains alive until the cyclic collector runs.
        super().__init__(*(n if g is None else len(g) * n for g in sides[::-1]),
                         None, None, spectral_bound)
        self.height = int(height)
        self.width = int(width)
        self.outputs, self.inputs = sides

    def apply(self, x) -> Array:
        return MapStack([self]).apply(x)

    def adjoint(self, u) -> Array:
        return MapStack([self]).adjoint(u)

    @property
    def T(self) -> FourierMultiplier:
        """The conjugate gains, sides swapped. Real-valued gains are their
        own conjugate and are shared: a conjugate copy would turn their +0.0
        imaginary parts into -0.0."""
        return FourierMultiplier(self.height, self.width, self.spectral_bound,
                                 *(None if g is None else g if _real_valued(g)
                                   else g.conj() for g in (self.inputs, self.outputs)))


BLOCK_BYTES = 512 * 1024
"""The float64 image bytes of the variable's bands that one block of a
``MapStack`` holds (at least one band): one 256 x 256 band, so that a
block's arrays stay in a 2 MiB per-core L2 cache from one step to the
next."""

THREAD_PIXELS = 128 * 128
"""The least band size, in pixels, at which a ``MapStack`` of more than one
block hands the upper half of its blocks to a second thread; tests patch
it to run that path at 16 x 16 while other blocked tests stay on one
thread. On 2 cores with one BLAS thread, two threads beat one in 6-8 of
10 pairs on stacks of 128 x 128 bands and in 2-4 of 10 on 64 x 64 bands
(``BENCH_38.json`` ``band_size_bar``)."""


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """A second thread for a ``MapStack``'s calls, parked between jobs.

    ``put(job)`` queues a job for the thread, which runs it in a copy of the
    caller's ``contextvars`` context (numpy's ``errstate`` lives there);
    several jobs may be in flight. ``run(mine)`` runs ``mine`` on the
    calling thread and returns once every job put so far has run, so the
    thread is parked again. An error of ``mine`` is raised then; otherwise
    the first error of the jobs is raised on the calling thread, and the
    others are dropped. ``close`` ends the thread and joins it.
    """

    __slots__ = ("_jobs", "_done", "_thread", "_pending")

    def __init__(self):
        self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._pending = 0
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="proxdeconv-worker")
        self._thread.start()

    def _serve(self) -> None:
        for job in iter(self._jobs.get, None):
            try:
                job()
            except BaseException as error:  # raised again on the caller's thread
                self._done.put(error)
            else:
                self._done.put(None)

    def put(self, job: Callable[[], None]) -> None:
        self._jobs.put(functools.partial(contextvars.copy_context().run, job))
        self._pending += 1

    def run(self, mine: Callable[[], None]) -> None:
        try:
            mine()
        finally:
            errors = [self._done.get() for _ in range(self._pending)]
            self._pending = 0
        error = next((error for error in errors if error is not None), None)
        if error is not None:
            raise error

    def close(self) -> None:
        self._jobs.put(None)
        self._thread.join()


class MapStack:
    """Maps K_1, ..., K_m of one variable, their outputs one flat stack.

    ``apply`` writes each K_i x into its slice (``slices[i]``) of a stack and
    ``adjoint`` writes sum_i K_i^T u_i, into a given array or a new one and
    never into their input. No maps make an empty stack, whose adjoint is 0
    into a given ``out``: it does not know its variable's size.
    Multipliers on one grid that share their input gains, each rank 1 (output
    gains times input gains, either side None; output gains that are the
    shared input gains read as them), share one forward and one inverse
    transform per call, in half spectra allocated once. Both directions run
    one rule, planned at construction: filter the transformed bands in place,
    sum them in band order (``np.add.reduce``, from its identity +0.0), and
    filter the sum into each band of the result, band by band (a band
    without gains takes the sum); ``apply`` by the input, then the output
    gains, ``adjoint`` by their conjugates the other way round, where they
    have a nonzero imaginary part (conjugating +0.0 imaginary parts would
    change the bits). With complex gains, as ``fourier_form`` gives them, no
    step allocates. One map gives the same bits alone as in a stack. Other
    maps, and stacks with two merges, apply one by one.

    The variable's bands run in ``blocks``, slices of it of whole bands
    whose images fit in ``BLOCK_BYTES``: ``apply`` transforms, filters and
    adds one block at a time into the sum, and ``adjoint`` filters the sum
    into one block at a time and transforms it back, so the input's spectra
    are one block long. The bits do not depend on the blocks. A stack
    without this rule is one block.

    Both calls take hooks on parts of their input and output, by one rule:
    ``hand(part)`` runs on the calling thread just before a part of the
    input is transformed, on that thread or the worker (below);
    ``fill(part)``, apply's only, just before that part is read, on the
    thread that transforms it, and may write it (x is then a flat float64
    array); ``meanwhile()``, adjoint's only, once on the calling thread,
    after the last hand and before the first drain; ``drain(part)`` once
    that part of ``out`` is written.

    Each call runs one plan, made at construction, in four phases: its
    sources, each transformed and filtered; ``meanwhile``; the join; its
    targets, each filtered and transformed back. apply's sources are the
    blocks and its targets the stack's parts; adjoint's sources are the
    stack's parts, from the last, and its targets the blocks. apply's join
    adds the handed blocks' bands (below) to the sum, to which the other
    blocks add theirs as they go, and filters the sum into the stack;
    adjoint's sums the stack. A stack with handed blocks has each map's
    image as a part, on one thread or two; any other stack, planned or
    not, has one part, the whole stack, transformed at once.

    ``handed`` is the upper half of the blocks of a stack of more than one
    block whose bands have at least ``THREAD_PIXELS`` pixels, on a host
    that lets the process run on two CPUs, and is empty otherwise. Inside
    ``with stack.threads():`` such a stack runs each call on two threads:
    a worker takes the plan's sources and targets from their start
    indices on, and the second row half of the join; the calling thread
    runs the rest. That gives the worker apply's handed blocks and the
    upper half of its images, and adjoint's every image and its handed
    blocks. A call first hands the worker its sources, each once its hand
    returns, then runs its own; so adjoint's first hand, of the last
    image, runs with the worker parked. The handed blocks keep their own
    spectra, whose bands the join adds to the sum after the other blocks',
    in band order, so a call gives the same bits on one thread or two.
    Any other call runs the whole plan on the calling thread. A block
    inside another on the same stack shares the running worker.
    """

    __slots__ = ("ops", "slices", "in_dim", "out_dim", "blocks", "handed",
                 "_plans", "_worker")

    def __init__(self, ops: list[LinearOperator]):
        self.ops = list(ops)
        ends = list(itertools.accumulate((op.out_dim for op in self.ops), initial=0))
        self.slices = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
        self.in_dim = self.ops[0].in_dim if self.ops else None
        self.out_dim = ends[-1]
        self.blocks = [slice(0, self.in_dim)]
        self.handed = []
        self._plans = self._worker = None
        op = self.ops[0] if self.ops else None
        if op is None or not all(isinstance(o, FourierMultiplier) and (
                o.height, o.width, o.in_dim) == (op.height, op.width, op.in_dim)
                for o in self.ops):
            return
        merge = next((o.inputs for o in self.ops if o.inputs is not None), None)
        pairs = [(None, merge) if o.inputs is None and o.outputs is merge
                 else (o.outputs, o.inputs) for o in self.ops]
        n = op.height * op.width
        bands = [slice(s.start // n, s.stop // n) for s in self.slices]
        alone = [b.start for b, (out, _) in zip(bands, pairs) if out is None]
        if len(alone) > 1 or any(gains is not merge for _, gains in pairs):
            return
        k = self.in_dim // n
        per = max(1, BLOCK_BYTES // (8 * n))
        runs = [slice(lo, min(lo + per, k)) for lo in range(0, k, per)]
        self.blocks = [slice(r.start * n, r.stop * n) for r in runs]
        # The blocks from cut on go to a worker where a band pays for the
        # handover.
        cut = len(runs) - len(runs) // 2 if n >= THREAD_PIXELS and _cpus() >= 2 \
            else len(runs)
        self.handed = self.blocks[cut:]
        edge = runs[cut - 1].stop  # the handed blocks' first band
        # One block of the input's bands, the stack's bands, a scratch band
        # and the handed blocks' bands (untouched pages cost no memory).
        inner, outer, band, spare = (
            np.empty((j, op.height, op.width // 2 + 1), dtype=complex)
            for j in (min(per, k), self.out_dim // n, 1, k - edge))
        images = [outer[b] for b in bands]  # each map's bands

        def filtered(gains, src, dst, adjoint, scratch=band[0]):
            # Steps (call, arguments, output): gains * src into dst. One
            # band filtered into a stack runs band by band, as numpy would
            # buffer the broadcast; so do the adjoint's gains with an
            # imaginary part, conjugated into dst's band (in place, into
            # the scratch band) first.
            conj = adjoint and not _real_valued(gains)
            if src is dst and not conj:
                return [(np.multiply, (gains, src), dst)]
            steps = []
            for g, b in zip(gains, dst):
                c = scratch if src is dst else b
                steps += [(np.conjugate, (g,), c)] if conj else []
                steps += [(np.multiply, (c if conj else g, b if src is dst else src), b)]
            return steps

        def summed(src, dst, first):
            # The sum in band order: the first block reduced (from +0.0, as
            # numpy reduces), each later band added to it.
            if first:
                return [(np.add.reduce, (src, 0), dst)]
            return [(np.add, (dst, b), dst) for b in src]
        # apply sums into the band without output gains if there is one; x's
        # one band, not merged, is its own sum.
        into = inner[0] if merge is None else outer[alone[0]] if alone else band[0]
        total = inner[0] if merge is None else band[0]
        # A part is (its slice, its spectra, the steps after its forward or
        # before its inverse transform). The calling thread's blocks share
        # one block of spectra and add it to the sum; the handed blocks keep
        # their own, which apply's join adds to the sum.
        blocks = [(s, inner[:r.stop - r.start] if r.stop <= edge
                   else spare[r.start - edge:r.stop - edge], r)
                  for r, s in zip(runs, self.blocks)]
        forward = [(s, spectra, [] if merge is None else
                    filtered(merge[r], spectra, spectra, False)
                    + (summed(spectra, into, r.start == 0) if r.stop <= edge else []))
                   for s, spectra, r in blocks]
        backward = [(s, spectra, [] if merge is None else
                     filtered(merge[r], total, spectra, True)) for s, spectra, r in blocks]
        # The stack's parts: each map's image where a worker takes some of
        # them, or else the whole stack, transformed at once.
        parts = [(s, image, [] if out is None else filtered(out, image, image, True))
                 for s, image, (out, _) in zip(self.slices, images, pairs)]
        if not self.handed:
            parts = [(slice(0, self.out_dim), outer, [s for *_, steps in parts for s in steps])]
        # apply's join adds the handed blocks' bands to the sum and filters
        # it into the stack; adjoint's sums the stack.
        joins = ([s for _, spectra, r in blocks if r.start >= edge
                  for s in summed(spectra, into, False)]
                 + [s for image, (out, _) in zip(images, pairs) if out is not None
                    for s in filtered(out, into, image, False)],
                 summed(outer, total, True))
        halves = [_rows(steps, op.height - op.height // 2) if self.handed
                  else (steps, []) for steps in joins]
        shape, half = (-1, op.height, op.width), len(parts) - len(parts) // 2
        self._plans = ((forward, halves[0], [(s, image, []) for s, image, _ in parts],
                        shape, (cut, half)),
                       (parts[::-1], halves[1], backward, shape, (0, cut)))

    def split(self, stack: Array) -> list[Array]:
        """The maps' parts of a stack, as views."""
        return [stack[s] for s in self.slices]

    @contextlib.contextmanager
    def threads(self):
        """Run this stack's calls on two threads until the block ends, if
        ``handed`` is not empty: one worker thread, joined on the way out.
        A block inside another on the same stack shares the outer worker."""
        if not self.handed or self._worker is not None:
            yield
            return
        self._worker = _Worker()
        try:
            yield
        finally:
            self._worker.close()
            self._worker = None

    def apply(self, x, out: Array | None = None,
              fill: Callable[[slice], None] | None = None,
              drain: Callable[[slice], None] | None = None,
              hand: Callable[[slice], None] | None = None) -> Array:
        out = np.empty(self.out_dim) if out is None else out
        if self._plans is None:  # each op checks x
            if hand is not None:
                hand(self.blocks[0])
            if fill is not None:
                fill(self.blocks[0])
            for op, s in zip(self.ops, self.slices):
                out[s] = op.apply(x)
            if drain is not None:
                drain(slice(0, self.out_dim))
            return out
        x = _flat64(x, self.in_dim, "MapStack.apply")
        if self._worker is None:
            return _run(self._plans[0], x, out, fill, drain, hand)
        return _split(self._plans[0], x, out, self._worker, fill, drain, hand)

    def adjoint(self, u, out: Array | None = None,
                drain: Callable[[slice], None] | None = None,
                hand: Callable[[slice], None] | None = None,
                meanwhile: Callable[[], None] | None = None) -> Array:
        u = _flat64(u, self.out_dim, "MapStack.adjoint")
        if out is None and not self.ops:
            raise ValueError("an empty MapStack's adjoint needs out: the stack "
                             "does not know its variable's size")
        out = np.empty(self.in_dim) if out is None else out
        if self._plans is None:
            if hand is not None:
                hand(slice(0, self.out_dim))
            if meanwhile is not None:
                meanwhile()
            # Summed from 0, as sum() does, so -0.0 parts read +0.0.
            out[...] = sum(op.adjoint(u[s]) for op, s in zip(self.ops, self.slices))
            if drain is not None:
                drain(self.blocks[0])
            return out
        if self._worker is None:
            return _run(self._plans[1], u, out, None, drain, hand, meanwhile)
        return _split(self._plans[1], u, out, self._worker, None, drain, hand,
                      meanwhile)


def _rows(steps, rows: int) -> tuple[list, list]:
    """Elementwise steps on spectra, as the steps on their first ``rows``
    rows and the steps on the others."""
    def cut(arg, part):
        return arg[..., part, :] if isinstance(arg, np.ndarray) else arg
    return tuple([(call, tuple(cut(arg, part) for arg in args), cut(dst, part))
                  for call, args, dst in steps]
                 for part in (slice(0, rows), slice(rows, None)))


def _steps(steps) -> None:
    for call, args, dst in steps:
        call(*args, out=dst)


def _forward(sources, shape, x: Array, fill, hand=None) -> None:
    for s, spectra, steps in sources:
        if hand is not None:
            hand(s)
        if fill is not None:
            fill(s)
        _rfft2(x[s].reshape(shape), out=spectra)
        _steps(steps)


def _back(targets, shape, out: Array, drain) -> None:
    for s, spectra, steps in targets:
        _steps(steps)
        _irfft2(spectra, out[s].reshape(shape))
        if drain is not None:
            drain(s)


def _run(plan, x: Array, out: Array, fill, drain, hand=None,
         meanwhile=None) -> Array:
    """One ``MapStack`` call from x into ``out``: its plan's four phases on
    the calling thread (see ``MapStack``)."""
    sources, (upper, lower), targets, shape, _ = plan
    _forward(sources, shape, x, fill, hand)
    if meanwhile is not None:
        meanwhile()
    _steps(upper)
    _steps(lower)
    _back(targets, shape, out, drain)
    return out


def _split(plan, x: Array, out: Array, worker: _Worker, fill, drain, hand,
           meanwhile=None) -> Array:
    """``_run`` on two threads: the worker takes the plan's sources and
    targets from their start indices on and the join's second row half,
    the calling thread the rest (see ``MapStack``)."""
    sources, (upper, lower), targets, shape, (first, second) = plan

    def mine():
        for source in sources[first:]:
            if hand is not None:
                hand(source[0])
            worker.put(functools.partial(_forward, [source], shape, x, fill))
        _forward(sources[:first], shape, x, fill, hand)
        if meanwhile is not None:
            meanwhile()
    worker.run(mine)
    worker.put(functools.partial(_steps, lower))
    worker.run(functools.partial(_steps, upper))
    worker.put(functools.partial(_back, targets[second:], shape, out, drain))
    worker.run(functools.partial(_back, targets[:second], shape, out, drain))
    return out


def fourier_form(op: LinearOperator, height: int,
                 width: int) -> FourierMultiplier | None:
    """``op`` as a Fourier multiplier on a ``height x width`` grid, or None.

    The gains of an op from one image to a stack of bands are read off its
    impulse response at pixel 0, complex, with imaginary parts that are
    round-off set to +0.0; an op from a stack to one image is the transpose
    of the form of ``op.T``. A multiplier by construction on this grid (a
    ``FourierMultiplier``, or a dictionary that records one as its
    ``multiplier``) is read so too, with no probe. Any other op keeps its
    gains only if the multiplier reproduces ``op.apply`` and ``op.adjoint``
    on a seeded random probe each, to 1e-10 relative, so an operator that
    is not shift-invariant (Haar, a general matrix, a varying diagonal)
    gives None. The multiplier keeps op's declared spectral bound.
    """
    n = height * width
    known = op if isinstance(op, FourierMultiplier) else getattr(op, "multiplier", None)
    if known is not None and (known.height, known.width) != (height, width):
        known = None
    if op.in_dim > n and op.out_dim == n:
        form = fourier_form(op.T if known is None else known.T, height, width)
        return None if form is None else form.T
    if op.in_dim != n or op.out_dim % n:
        return None
    delta = np.zeros(n)
    delta[0] = 1.0
    gains = _rfft2(op.apply(delta).reshape(-1, height, width))
    if np.max(np.abs(gains.imag)) <= 1e-13 * np.max(np.abs(gains.real)):
        # Even impulse responses (a centred symmetric kernel, the starlet)
        # have real gains. Kept complex, they multiply complex spectra
        # without numpy's casting buffer, with the bits of real gains.
        gains.imag[...] = 0.0
    form = FourierMultiplier(height, width, op.spectral_bound, gains)
    if known is not None:
        return form
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
    otf = _rfft2(padded[None])
    # Half-spectrum max equals the full-spectrum max by conjugate symmetry.
    return FourierMultiplier(height, width, float(np.max(np.abs(otf))), otf)
