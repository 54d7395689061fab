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
    others are dropped. ``split(theirs, mine)`` puts ``theirs`` and runs
    ``mine``. ``close`` ends the thread and joins it.
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

    def split(self, theirs: Callable[[], None], mine: Callable[[], None]) -> None:
        self.put(theirs)
        self.run(mine)

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
    that part of ``out`` is written. On one thread apply's input parts are
    the blocks and its output is one part, the whole stack; adjoint's input
    is one part, the whole stack, and its output parts are the blocks.

    Inside ``with stack.threads():`` a stack of more than one block whose
    bands have at least ``THREAD_PIXELS`` pixels, on a host that lets the
    process run on two CPUs, runs each call on two threads, and the
    stack's parts are then each map's image. A worker thread runs
    ``handed``, the upper half of the blocks (fill, forward transform and
    input gains; input gains, inverse transform and drain), the upper half
    of apply's images (inverse transform and drain), adjoint's forward
    transforms of every image with their output gains, and half the rows
    of the elementwise steps that join the two threads' spectra. The
    calling thread runs the rest. Each call hands the worker its parts
    first, each once its hand returns: apply its blocks in block order,
    then it runs its own; adjoint every image from the last, so its first
    hand runs with the worker parked. The worker's blocks keep their own
    spectra, whose bands are added to the sum after the calling thread's
    own blocks', in band order, so the bits do not depend on the threads
    either. Any other stack, or a call outside the block, runs on the
    calling thread; its ``handed`` is empty. A block inside another on the
    same stack shares the running worker.
    """

    __slots__ = ("ops", "slices", "in_dim", "out_dim", "blocks", "handed",
                 "_plans", "_threaded", "_worker")

    def __init__(self, ops: list[LinearOperator]):
        self.ops = list(ops)
        ends = list(itertools.accumulate((op.out_dim for op in self.ops), initial=0))
        self.slices = [slice(lo, hi) for lo, hi in zip(ends, ends[1:])]
        self.in_dim = self.ops[0].in_dim if self.ops else None
        self.out_dim = ends[-1]
        self.blocks = [slice(0, self.in_dim)]
        self.handed = []
        self._plans = self._threaded = self._worker = None
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
        # One block of the input's bands, the stack's bands, a scratch band
        # and the worker's blocks' bands (untouched pages cost no memory).
        inner, outer, band, spare = (
            np.empty((j, op.height, op.width // 2 + 1), dtype=complex)
            for j in (min(per, k), self.out_dim // n, 1, k - runs[cut - 1].stop))
        images = [outer[b] for b in bands]  # each map's bands
        outputs = [(out, image) for image, (out, _) in zip(images, pairs)
                   if out is not None]

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
        # A direction is (source blocks, target blocks, the images' shape),
        # a block (its slice, its spectra, the steps after its forward or
        # before its inverse transform). The input's blocks share one
        # block of spectra.
        blocks = [(s, inner[:r.stop - r.start], r) for r, s in zip(runs, self.blocks)]
        forward = [(s, spectra, [] if merge is None else
                    filtered(merge[r], spectra, spectra, False)
                    + summed(spectra, into, r.start == 0)) for s, spectra, r in blocks]
        gained = [s for gains, b in outputs for s in filtered(gains, into, b, False)]
        forward[-1][2].extend(gained)
        back = [s for gains, b in outputs for s in filtered(gains, b, b, True)]
        back += summed(outer, total, True)
        backward = [(s, spectra, [] if merge is None else
                     filtered(merge[r], total, spectra, True)) for s, spectra, r in blocks]
        whole, shape = slice(0, self.out_dim), (-1, op.height, op.width)
        self._plans = ((forward, [(whole, outer, [])], shape),
                       ([(whole, outer, back)], backward, shape))
        if not self.handed:
            return
        # On two threads a direction is (the sources handed to the worker,
        # the calling thread's sources, the steps that join them split by
        # rows for each thread, the targets of each thread, the images'
        # shape). apply hands the worker its blocks, which keep their own
        # spectra until they are added to the sum, and adjoint hands it
        # every image, from the last; the join is apply's addition of the
        # worker's bands and filter by the output gains, adjoint's sum of
        # the images.
        theirs = [(s, spare[r.start - runs[cut].start:r.stop - runs[cut].start], r)
                  for r, s in zip(runs[cut:], self.handed)]
        joined = [s for _, spectra, _ in theirs for s in summed(spectra, into, False)]
        half, rows = len(images) - len(images) // 2, op.height - op.height // 2
        mapped = [(s, image, []) for s, image in zip(self.slices, images)]
        conj = [(s, image, [] if out is None else filtered(out, image, image, True))
                for s, image, (out, _) in zip(self.slices, images, pairs)]
        self._threaded = (
            ([(s, spectra, filtered(merge[r], spectra, spectra, False))
              for s, spectra, r in theirs], forward[:cut],
             _rows(joined + gained, rows), (mapped[:half], mapped[half:]), shape),
            (conj[::-1], [], _rows(summed(outer, total, True), rows),
             (backward[:cut], [(s, spectra, filtered(merge[r], total, spectra, True))
                               for s, spectra, r in theirs]), shape))

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
        return _split(self._threaded[0], x, out, self._worker, fill, drain, hand)

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
        return _split(self._threaded[1], u, out, self._worker, None, drain, hand,
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


def _run(plan, x: Array, out: Array, fill, drain, hand=None,
         meanwhile=None) -> Array:
    """One direction of a ``MapStack``'s rank-1 rule on one thread, from x
    into ``out``: each source block hooked, transformed and its steps run,
    then ``meanwhile``, then each target block's steps run, the block
    transformed back and drained."""
    sources, targets, shape = plan
    for s, spectra, steps in sources:
        if hand is not None:
            hand(s)
        if fill is not None:
            fill(s)
        _rfft2(x[s].reshape(shape), out=spectra)
        _steps(steps)
    if meanwhile is not None:
        meanwhile()
    for s, spectra, steps in targets:
        _steps(steps)
        _irfft2(spectra, out[s].reshape(shape))
        if drain is not None:
            drain(s)
    return out


def _split(plan, x: Array, out: Array, worker: _Worker, fill, drain, hand,
           meanwhile=None) -> Array:
    """One direction of a ``MapStack``'s rank-1 rule on two threads, with
    ``_run``'s hooks. The calling thread calls ``hand`` of each handed
    source and puts the source on the worker, then runs its own sources and
    ``meanwhile``; each thread then runs its rows of the joining steps, and
    its targets."""
    handed, sources, (upper, lower), (mine, theirs), shape = plan

    def first_half():
        for source in handed:
            if hand is not None:
                hand(source[0])
            worker.put(functools.partial(_run, ([source], (), shape), x, out, fill, None))
        _run((sources, (), shape), x, out, fill, None, hand, meanwhile)
    worker.run(first_half)
    worker.split(functools.partial(_steps, lower), functools.partial(_steps, upper))
    worker.split(functools.partial(_run, ((), theirs, shape), x, out, None, drain),
                 functools.partial(_run, ((), mine, shape), x, out, None, drain))
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
