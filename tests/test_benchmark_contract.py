"""The benchmark's hooks into the library still hold.

``perfbench`` times and traces a solve from outside the package: its clock
ticks by rebinding ``deconv.project_positive`` and its tracer rebuilds the
blur and the dictionary from their callables. A library change that breaks
either shows here, not only in a manual ``perfbench/run.py --trace 1`` run.
The benchmark's modules are imported as they are, without writing bytecode
next to them; the run's files go to the test's temporary directory.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return [importlib.import_module(name)
            for name in ("workloads", "tracing", "clock")]


def test_traced_repetition_gives_the_untraced_bytes(perfbench, tmp_path):
    workloads, tracing, clock = perfbench
    w = workloads.WORKLOADS["analysis_starlet_64"]
    inputs = workloads.make_inputs(w, 0, tmp_path / "analysis_starlet_64")
    reference = clock.Reference(w.size)
    with reference.ticking():
        plain = workloads.run_repetition(w, inputs, 0, None)
    assert workloads.check(inputs, plain, None) == []
    # This solve runs to its cap, and the clock ticks once per iteration.
    assert len(reference.samples) == w.max_outer == 500
    tracer = tracing.Tracer()
    with tracer.installed(), reference.ticking(
            tracer.wrap(tracing.TICK, reference.tick)):
        traced = workloads.run_repetition(w, inputs, 1, tracer)
    assert workloads.check(inputs, traced, plain) == []
    assert tracer.outer_iters == 500
    assert len(reference.samples) == 2 * 500
