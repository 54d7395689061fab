"""The benchmark's hooks into the library still hold.

``perfbench`` times and traces a solve from outside the package: its clock
ticks by rebinding ``deconv.project_positive`` and its tracer rebinds the
other elementwise proxes there and rebuilds the blur and the dictionary from
their callables. A library change that breaks either shows here, under both
priors, not only in a manual ``perfbench/run.py --trace 1`` run.
The benchmark's modules are imported as they are, without writing bytecode
next to them; the run's files go to the test's temporary directory.
"""

import importlib
import sys
from pathlib import Path

import pytest

import proxdeconv.deconv as deconv_module

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return [importlib.import_module(name)
            for name in ("workloads", "tracing", "clock")]


def _traced_and_untraced(perfbench, tmp_path, name):
    """One untraced and one traced repetition of a workload at seed 0, with
    the clock ticking: each must give the same checked bytes, and the clock
    must tick once per outer iteration of each. Returns the workload."""
    workloads, tracing, clock = perfbench
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, 0, tmp_path / name)
    reference = clock.Reference(w.size)
    with reference.ticking():
        plain = workloads.run_repetition(w, inputs, 0, None)
    assert workloads.check(inputs, plain, None) == []
    # Each solve runs to its cap.
    assert len(reference.samples) == w.max_outer
    tracer = tracing.Tracer()
    with tracer.installed(), reference.ticking(
            tracer.wrap(tracing.TICK, reference.tick)):
        traced = workloads.run_repetition(w, inputs, 1, tracer)
    assert workloads.check(inputs, traced, plain) == []
    assert tracer.outer_iters == w.max_outer
    assert len(reference.samples) == 2 * w.max_outer
    return w


def test_traced_repetition_gives_the_untraced_bytes(perfbench, tmp_path):
    # The analysis prior: the positivity is the primal prox.
    w = _traced_and_untraced(perfbench, tmp_path, "analysis_starlet_64")
    assert w.max_outer == 500


def test_traced_synthesis_repetition_gives_the_untraced_bytes(
        perfbench, tmp_path, monkeypatch):
    # The synthesis prior, which the CLI runs: the soft threshold is the
    # primal prox, looked up by the name the tracer rebinds, once per
    # block of either repetition's iterations (256^2 starlet:levels=3 runs
    # four blocks of one band).
    calls = []
    shrink = deconv_module.soft_threshold
    monkeypatch.setattr(deconv_module, "soft_threshold",
                        lambda *a, **k: calls.append(None) or shrink(*a, **k))
    w = _traced_and_untraced(perfbench, tmp_path, "synth_starlet_256")
    assert w.max_outer == 100
    assert len(calls) == 2 * 100 * 4
