"""Spans and counts for the traced run, recorded from outside the library.

Nothing in the package is edited. The blur ``LinearOperator`` and the
``FrameDictionary`` are rebuilt through their public constructors around the
library's own objects, and the public names that ``deconv``,
``prox_compose`` and ``cli`` look up at call time are rebound for the
duration of one traced repetition, then restored.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out once, after the repetition. A span's self time is its duration
minus the durations of its direct children; calls run on one thread, so
children never overlap.

FFT counts are computed from calls through the public operator objects: 2
per blur apply or adjoint, and bands + 1 per starlet synthesis or analysis
(one 2-D FFT per coefficient band plus one on the image side). A later
change that computes FFTs without going through these objects must bring
its own counter inside the program.
"""

from __future__ import annotations

import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

from proxdeconv import cli, deconv, prox_compose
from proxdeconv.dictionary import FrameDictionary
from proxdeconv.operators import LinearOperator

BLUR = "operators.blur"
SYNTHESIS = "dictionary.synthesis"
ANALYSIS = "dictionary.analysis"
POISSON = "prox_core.prox_poisson"
SOFT = "prox_core.soft_threshold"
POSITIVE = "prox_core.project_positive"
EVAL = "prox_core.eval_poisson"
FB = "prox_compose.prox_affine_fb"
SOLVE = "splitting.solve"
DECONVOLVE = "deconv.deconvolve"
GCV = "deconv.gcv_score"
SELECT = "deconv.select_gamma_gcv"
READ = "rasters.read_raster"
WRITE = "rasters.write_raster"
MAIN = "cli.main"
TICK = "clock.tick"  # the reference kernel, timed in traced repetitions too


@contextmanager
def rebound(bindings):
    """Set ``module.attr = value`` for each triple, restoring on exit."""
    saved = []
    try:
        for module, attr, value in bindings:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@contextmanager
def recording_solves(solves: list, mark=lambda: 0):
    """Append ``(result, mark before, mark after)`` per ``deconvolve`` call.

    One hook per solve; untraced repetitions use it to read iteration
    counts and solve times, which the CLI does not print. ``mark()`` gives
    the reference clock's tick count.
    """
    original = deconv.deconvolve

    def recorded(problem):
        before = mark()
        result = original(problem)
        solves.append((result, before, mark()))
        return result

    with rebound([(deconv, "deconvolve", recorded), (cli, "deconvolve", recorded)]):
        yield


def _file_bytes(path: str) -> int:
    # f64 rasters carry a JSON sidecar; PGM is one file.
    total = os.path.getsize(path)
    if not path.lower().endswith(".pgm"):
        total += os.path.getsize(path + ".json")
    return total


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._in_solve = 0
        self.fft2 = {"operators": 0, "dictionary": 0}
        self.fft2_in_solve = 0
        self.outer_iters = 0
        self.inner_steps = 0
        self.last_residuals = array("d")
        self.raster_bytes = 0

    def wrap(self, name: str, fn, after=None, fft2: int = 0):
        """Return ``fn`` recording a span per call.

        ``after(args, result)`` runs once the span is closed; ``fft2`` is the
        number of 2-D FFTs one call computes.
        """
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        nid = self._ids[name]
        layer = name.partition(".")[0]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if fft2:
                self.fft2[layer] += fft2
                if self._in_solve:
                    self.fft2_in_solve += fft2
            if after is not None:
                after(args, result)
            return result

        return traced

    def blur(self, op: LinearOperator) -> LinearOperator:
        """The blur rebuilt around ``op`` with traced apply and adjoint."""
        return LinearOperator(op.in_dim, op.out_dim,
                              self.wrap(BLUR, op.apply, fft2=2),
                              self.wrap(BLUR, op.adjoint, fft2=2),
                              op.spectral_bound)

    def dictionary(self, d: FrameDictionary) -> FrameDictionary:
        """A starlet dictionary rebuilt around ``d`` with traced transforms."""
        fft2 = d.coeff_dim // d.n + 1
        return FrameDictionary(d.width, d.height, d.coeff_dim,
                               self.wrap(SYNTHESIS, d.synthesis, fft2=fft2),
                               self.wrap(ANALYSIS, d.analysis, fft2=fft2),
                               d.c1, d.c2, d.tight)

    def _bindings(self):
        def solve(*args, **kwargs):
            self._in_solve += 1
            try:
                return original_solve(*args, **kwargs)
            finally:
                self._in_solve -= 1

        def after_solve(args, result):
            self.outer_iters += result[1].iterations

        def after_fb(args, result):
            residuals = result[1].residuals
            self.inner_steps += len(residuals)
            self.last_residuals.append(residuals[-1])

        def after_io(args, result):
            self.raster_bytes += _file_bytes(args[0])

        original_solve = deconv.solve
        make_blur = cli.make_circular_convolution
        make_dictionary = cli.parse_dictionary_spec
        traced_deconvolve = self.wrap(DECONVOLVE, deconv.deconvolve)
        traced_select = self.wrap(SELECT, cli.select_gamma_gcv)
        return [
            (deconv, "prox_poisson", self.wrap(POISSON, deconv.prox_poisson)),
            (deconv, "soft_threshold", self.wrap(SOFT, deconv.soft_threshold)),
            (deconv, "project_positive", self.wrap(POSITIVE, deconv.project_positive)),
            (deconv, "eval_poisson", self.wrap(EVAL, deconv.eval_poisson)),
            (deconv, "solve", self.wrap(SOLVE, solve, after_solve)),
            (deconv, "deconvolve", traced_deconvolve),
            (deconv, "gcv_score", self.wrap(GCV, deconv.gcv_score)),
            (prox_compose, "prox_affine_fb",
             self.wrap(FB, prox_compose.prox_affine_fb, after_fb)),
            (cli, "make_circular_convolution",
             lambda *a, **k: self.blur(make_blur(*a, **k))),
            (cli, "parse_dictionary_spec",
             lambda *a, **k: self.dictionary(make_dictionary(*a, **k))),
            (cli, "read_raster", self.wrap(READ, cli.read_raster, after_io)),
            (cli, "write_raster", self.wrap(WRITE, cli.write_raster, after_io)),
            (cli, "deconvolve", traced_deconvolve),
            (cli, "select_gamma_gcv", traced_select),
        ]

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        with rebound(self._bindings()):
            yield self

    def _per_name(self):
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        k = len(self._names)
        calls = np.bincount(names, minlength=k)
        busy = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=dur - covered, minlength=k)

        def pick(table, *span_names):
            return sum(float(table[self._ids[n]]) for n in span_names
                       if n in self._ids)
        return calls, busy, own, pick

    def layer_metrics(self, grid_points: int) -> dict:
        """Per-layer counts and times of the repetition, keyed by metric name."""
        calls, busy, own, pick = self._per_name()
        solves = int(pick(calls, DECONVOLVE))
        outer = self.outer_iters
        return {
            "operators.blur_calls": int(pick(calls, BLUR)),
            "operators.blur_s": pick(busy, BLUR),
            "operators.fft2": self.fft2["operators"],
            "dictionary.calls": int(pick(calls, SYNTHESIS, ANALYSIS)),
            "dictionary.busy_s": pick(busy, SYNTHESIS, ANALYSIS),
            "dictionary.fft2": self.fft2["dictionary"],
            "prox_core.poisson_calls": int(pick(calls, POISSON)),
            "prox_core.poisson_s": pick(busy, POISSON),
            "prox_core.threshold_s": pick(busy, SOFT, POSITIVE),
            "prox_core.eval_s": pick(busy, EVAL),
            "prox_compose.fb_calls": int(pick(calls, FB)),
            "prox_compose.fb_self_s": pick(own, FB),
            "prox_compose.inner_steps": self.inner_steps,
            "prox_compose.last_residual": float(np.median(self.last_residuals))
            if len(self.last_residuals) else 0.0,
            "splitting.outer_iters": outer,
            "splitting.self_s": pick(own, SOLVE),
            "deconv.solves": solves,
            "deconv.useful_solve_ratio": grid_points / solves if solves else 0.0,
            "deconv.gcv_s": pick(busy, GCV),
            "rasters.read_s": pick(busy, READ),
            "rasters.write_s": pick(busy, WRITE),
            "rasters.bytes": self.raster_bytes,
            "cli.self_s": pick(own, MAIN),
            "fft2_per_outer_iter": self.fft2_in_solve / outer if outer else 0.0,
            "inner_steps_per_outer_iter": self.inner_steps / outer if outer else 0.0,
        }

    def save(self, path) -> None:
        """Write the spans as arrays (name index, start, end, parent) to ``path``."""
        np.savez(path, names=np.array(self._names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32))
