"""The package's public names, signatures, error types and CLI flags,
pinned one per line, so that adding or removing an export, an option, an
error type or a flag shows up as a one-line change here."""

import inspect
import pathlib
import re

import proxdeconv
from proxdeconv import errors, rasters
from proxdeconv.cli import build_parser
from proxdeconv.deconv import PRIORS

EXPORTS = [
    "DeconvProblem",
    "DeconvResult",
    "FBDiagnostics",
    "FourierMultiplier",
    "FrameDictionary",
    "Image",
    "LinearOperator",
    "ProxTerm",
    "SplittingConfig",
    "SplittingState",
    "__version__",
    "compose",
    "deconvolve",
    "default_tau",
    "diagonal_operator",
    "eval_poisson",
    "fourier_form",
    "frame_bounds",
    "gcv_score",
    "grad_poisson",
    "identity_operator",
    "mae",
    "make_circular_convolution",
    "make_dirac",
    "make_haar_dwt",
    "make_starlet",
    "make_union",
    "matrix_operator",
    "objective",
    "parse_dictionary_spec",
    "project_positive",
    "prox_affine_fb",
    "prox_affine_tight",
    "prox_poisson",
    "read_raster",
    "relative_change",
    "relative_mae",
    "result_metrics",
    "richardson_lucy",
    "scale_to_peak",
    "select_gamma_gcv",
    "simulate",
    "soft_threshold",
    "solve",
    "verify_tight_frame",
    "write_raster",
]


def test_exports_are_pinned():
    assert EXPORTS == sorted(EXPORTS)
    assert sorted(proxdeconv.__all__) == EXPORTS
    assert len(set(proxdeconv.__all__)) == len(proxdeconv.__all__)


def test_every_export_resolves():
    missing = [name for name in proxdeconv.__all__
               if not hasattr(proxdeconv, name)]
    assert missing == []


# Parameter names and defaults, without annotations.
SIGNATURES = [
    "DeconvProblem(counts, blur, dictionary, gamma, prior='synthesis', "
    "splitting=<factory>)",
    "DeconvResult(restored, coefficients, state, gamma_used, wall_time_s, "
    "clip_mass)",
    "FBDiagnostics(residuals, dual)",
    "FourierMultiplier(gains, height, width, spectral_bound, merge=False)",
    "FrameDictionary(width, height, coeff_dim, synthesis, analysis, c1, c2, "
    "tight)",
    "Image(width, height, data)",
    "LinearOperator(in_dim, out_dim, apply, adjoint, spectral_bound)",
    "ProxTerm(prox, label='', op=None, value=None)",
    "SplittingConfig(mu=1.0, theta=1.0, max_outer=300, tol=1e-05)",
    "SplittingState(x, aux, iterations, converged, relative_changes, "
    "objectives)",
    "compose(outer, inner)",
    "deconvolve(problem)",
    "default_tau(c2, c1=None)",
    "diagonal_operator(diag)",
    "eval_poisson(eta, counts, check=True)",
    "fourier_form(op, height, width)",
    "frame_bounds(d)",
    "gcv_score(gamma, counts, blur, restored, coefficients)",
    "grad_poisson(eta, counts)",
    "identity_operator(n)",
    "mae(a, b)",
    "make_circular_convolution(psf, width, height, origin=None)",
    "make_dirac(width, height)",
    "make_haar_dwt(width, height, levels)",
    "make_starlet(width, height, levels)",
    "make_union(members)",
    "matrix_operator(mat)",
    "objective(p, v, feasibility_tol=0.0)",
    "parse_dictionary_spec(spec, width, height)",
    "project_positive(x)",
    "prox_affine_fb(prox_f, op, c2, x, inner_iters=10, scale=1.0, c1=None, "
    "warm=None)",
    "prox_affine_tight(prox_f, frame, c, x, scale=1.0, check=True)",
    "prox_poisson(x, beta, counts, check=True)",
    "read_raster(path)",
    "relative_change(new, old)",
    "relative_mae(estimate, truth)",
    "result_metrics(result, include_timing=True)",
    "richardson_lucy(counts, blur, iters)",
    "scale_to_peak(truth, peak)",
    "select_gamma_gcv(grid, problem, truth=None)",
    "simulate(truth, blur, peak, seed)",
    "soft_threshold(values, threshold)",
    "solve(terms, cfg, init)",
    "verify_tight_frame(frame, c)",
    "write_raster(path, image)",
    "rasters.read_f64(path)",
    "rasters.read_pgm(path)",
    "rasters.write_f64(path, image)",
    "rasters.write_pgm(path, image)",
]

# Exception classes of proxdeconv.errors with their bases.
ERRORS = [
    "DimensionMismatchError(ProxDeconvError, ValueError)",
    "DomainError(ProxDeconvError, ValueError)",
    "NonFiniteIterateError(ProxDeconvError, RuntimeError)",
    "ProxDeconvError(Exception)",
    "TightFrameError(ProxDeconvError, ValueError)",
]


def test_error_types_are_pinned():
    classes = [f"{name}({', '.join(b.__name__ for b in cls.__bases__)})"
               for name, cls in sorted(vars(errors).items())
               if isinstance(cls, type) and issubclass(cls, BaseException)]
    assert classes == ERRORS


# "command --flag", "command --flag=default", then " {choice,...}" if any.
FLAGS = [
    "simulate --input",
    "simulate --psf",
    "simulate --peak",
    "simulate --seed=0",
    "simulate --replicates=1",
    "simulate --out",
    "deconvolve --counts",
    "deconvolve --psf",
    "deconvolve --dict",
    "deconvolve --prior=synthesis {synthesis,analysis}",
    "deconvolve --gamma",
    "deconvolve --gamma-grid",
    "deconvolve --iters=300",
    "deconvolve --theta=1.0",
    "deconvolve --mu=1.0",
    "deconvolve --tol=1e-05",
    "deconvolve --out",
    "deconvolve --metrics",
    "deconvolve --no-timing",
    "evaluate --restored",
    "evaluate --glob",
    "evaluate --truth",
    "evaluate --out",
    "gcv-scan --counts",
    "gcv-scan --psf",
    "gcv-scan --dict",
    "gcv-scan --prior=synthesis {synthesis,analysis}",
    "gcv-scan --gamma-grid",
    "gcv-scan --iters=300",
    "gcv-scan --theta=1.0",
    "gcv-scan --mu=1.0",
    "gcv-scan --tol=1e-05",
    "gcv-scan --truth",
    "gcv-scan --out",
]


def _bare_signature(name, func):
    sig = inspect.signature(func)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return name + str(sig.replace(parameters=params,
                                  return_annotation=sig.empty))


def test_signatures_are_pinned():
    public = [_bare_signature(name, getattr(proxdeconv, name))
              for name in sorted(proxdeconv.__all__)
              if callable(getattr(proxdeconv, name))]
    io = [_bare_signature(f"rasters.{name}", getattr(rasters, name))
          for name in ("read_f64", "read_pgm", "write_f64", "write_pgm")]
    assert public + io == SIGNATURES


def test_cli_flags_are_pinned():
    commands = build_parser()._subparsers._group_actions[0].choices
    flags = []
    for command, parser in commands.items():
        for action in parser._actions:
            if action.option_strings and action.dest != "help":
                default = action.default
                shown = "" if default is None or default is False \
                    else f"={default}"
                if action.choices is not None:
                    shown += " {" + ",".join(action.choices) + "}"
                flags.append(f"{command} {action.option_strings[-1]}{shown}")
    assert flags == FLAGS
    for command in ("deconvolve", "gcv-scan"):
        prior, = (action for action in commands[command]._actions
                  if action.dest == "prior")
        assert tuple(prior.choices) == PRIORS


def test_no_environment_variable_is_read():
    package = pathlib.Path(proxdeconv.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py"))
               if re.search(r"\benviron\b|\bgetenv\b", path.read_text())]
    assert readers == []
