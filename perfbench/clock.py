"""Reference kernel that makes timings steady on a shared host.

On a shared 2-vCPU Intel Xeon host, other tenants' work runs on the same
cores: the same 64x64 solve took 1x to 1.7x as long from one minute to the
next, and run-to-run spreads of raw wall time reached 20%. A fixed numpy
kernel (a 2-D FFT pair and a clip at the workload's raster size) slows down
with it. Timed once per outer iteration, interleaved with the workload, the
ratio of workload time to kernel time stayed within 2% while the raw times
moved by 27%.

So every reported time is the measured time minus the kernel's own time,
divided by the kernel's mean time over the same interval and multiplied by
its nominal time: kernel-normalised seconds, the time the work takes when
the kernel runs at its nominal speed. The nominal times are fixed
constants, so the scale is the same for every commit. Each is the median,
over calibration runs on that host (seeds 0-4 of every workload, recorded
in baseline.json), of a run's median kernel time, to three digits.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from proxdeconv import deconv

from tracing import rebound

NOMINAL_S = {64: 1.31e-4, 256: 1.46e-3}


class Reference:
    """Times of the reference kernel, one sample per tick."""

    def __init__(self, size: int):
        self.nominal = NOMINAL_S[size]
        self._x = np.random.default_rng(0).standard_normal((size, size))
        self.samples = array("d")

    def tick(self) -> None:
        start = time.perf_counter()
        np.maximum(np.fft.irfft2(np.fft.rfft2(self._x), s=self._x.shape), 0.0)
        self.samples.append(time.perf_counter() - start)

    def spent(self, lo: int, hi: int) -> float:
        """Seconds the kernel took in ticks ``lo`` to ``hi``."""
        return float(np.sum(np.frombuffer(self.samples)[lo:hi]))

    def scaled(self, seconds: float, lo: int, hi: int) -> float:
        """``seconds`` of work, less the kernel's own time, at nominal speed."""
        if hi <= lo:
            raise RuntimeError("no reference ticks in the timed interval")
        mean = self.spent(lo, hi) / (hi - lo)
        return (seconds - self.spent(lo, hi)) * self.nominal / mean

    @contextmanager
    def ticking(self, tick=None):
        """Tick after every ``project_positive`` call, once per outer iteration.

        ``tick`` stands in for :meth:`tick`, for example wrapped in a span.
        """
        original = deconv.project_positive
        tick = tick or self.tick

        def project_positive(x):
            result = original(x)
            tick()
            return result

        with rebound([(deconv, "project_positive", project_positive)]):
            yield
