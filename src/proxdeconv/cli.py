"""Command-line front end.

Commands: ``simulate`` (blur + Poisson counts), ``deconvolve`` (splitting
solver, fixed gamma or GCV over a grid), ``evaluate`` (MAE against a truth
raster), ``gcv-scan`` (score table over a gamma grid). Exit codes: 0 on
success (deconvolve: stopping rule met), 2 when the iteration cap stopped
the solver first, 1 on usage or runtime errors. Numeric flags are checked
while parsing by the library's rule for the value they set, so a bad one
exits 1 with ``argument --flag: <the library's message>`` before any file
is read; ``--mu``, which reaches no solve, only has to be finite.
``deconvolve --out`` is checked so too: a restoration is real-valued, so a
PGM name, which holds only integer counts, fails before any solve.
"""

from __future__ import annotations

import argparse
import glob as globmod
import hashlib
import json
import os
import re
import sys

import numpy as np

from .deconv import (PRIORS, DeconvProblem, _check_gamma_grid, deconvolve, mae,
                     relative_mae, result_metrics, select_gamma_gcv, simulate)
from .dictionary import parse_dictionary_spec
from .errors import ProxDeconvError
from .operators import (Image, _check_count, _check_grid, _check_positive,
                        make_circular_convolution)
from .rasters import _is_pgm, read_raster, write_raster
from .splitting import SplittingConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2, and
    that reads ``-`` and a digit, or ``-.`` and a digit, as the start of a
    value (``--tol -1e-5``), not of a flag: no flag starts so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _flag(convert, rule):
    """An argparse ``type``: ``convert`` the text, then check the value with
    the library's ``rule``; the ValueError of either becomes the usage error."""
    def parse(text):
        try:
            value = convert(text)
            rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    return parse


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _any_finite(value: float) -> None:
    """--mu's own rule: the flag reaches no solve."""
    if not np.isfinite(value):
        raise ValueError(f"mu must be finite, got {value}")


def _real_raster(path: str) -> None:
    """deconvolve --out's rule: a name ``write_raster`` writes as f64."""
    if _is_pgm(path):
        raise ValueError(f"{path}: a restoration is real-valued and PGM holds only "
                         "integer counts; write it to an f64 raster")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iters", type=_flag(int, lambda v: SplittingConfig(max_outer=v)),
                   default=300, help="outer iteration cap (default 300)")
    p.add_argument("--theta", type=_flag(float, lambda v: SplittingConfig(theta=v)),
                   default=1.0,
                   help="relaxation in (0,2) of the primal-dual step (default 1.0)")
    p.add_argument("--mu", type=_flag(float, _any_finite), default=1.0,
                   help="any finite number, accepted and ignored: both priors "
                        "take their step from the mean count (default 1.0)")
    p.add_argument("--tol", type=_flag(float, lambda v: SplittingConfig(tol=v)),
                   default=1e-5,
                   help="stopping tolerance on the relative change of the "
                        "iterate and on the duals' change; 0 runs to the cap "
                        "(default 1e-5)")


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--counts", required=True, help="count raster (.pgm or f64)")
    p.add_argument("--psf", required=True, help="kernel raster, centre pixel at lag 0")
    p.add_argument("--dict", dest="dict_spec", required=True,
                   help="dirac | haar:levels=J | starlet:levels=J | union(a,b)")
    p.add_argument("--prior", choices=PRIORS, default="synthesis")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxdeconv",
                     description="Poisson deconvolution via proximal splitting")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sim = sub.add_parser("simulate", help="blur a truth raster and draw Poisson counts")
    sim.add_argument("--input", required=True, help="ground-truth raster")
    sim.add_argument("--psf", required=True)
    sim.add_argument("--peak", type=_flag(float, lambda v: _check_positive(v, "peak")),
                     required=True, help="rescale truth to this peak intensity")
    sim.add_argument("--seed", type=_flag(int, lambda v: _check_count(v, "seed", 0)),
                     default=0)
    sim.add_argument("--replicates", default=1,
                     type=_flag(int, lambda v: _check_count(v, "replicates")),
                     help="write N replicates, seeds seed..seed+N-1")
    sim.add_argument("--out", required=True, help="output counts raster")

    dec = sub.add_parser("deconvolve", help="restore a count raster")
    _add_problem_flags(dec)
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma",
                       type=_flag(float, lambda v: _check_positive(v, "gamma")))
    group.add_argument("--gamma-grid", type=_flag(_floats, _check_gamma_grid),
                       help="comma-separated increasing grid; gamma picked by GCV")
    _add_solver_flags(dec)
    dec.add_argument("--out", required=True, type=_flag(str, _real_raster),
                     help="restored raster (f64; a .pgm name is refused)")
    dec.add_argument("--metrics", help="metrics JSON path (default OUT.metrics.json)")
    dec.add_argument("--no-timing", action="store_true",
                     help="report wall_time_s as 0.0 for byte-reproducible metrics")

    ev = sub.add_parser("evaluate", help="MAE of restored rasters against a truth")
    src = ev.add_mutually_exclusive_group(required=True)
    src.add_argument("--restored", help="one restored raster")
    src.add_argument("--glob", dest="pattern",
                     help="glob of restored rasters; reports the mean MAE")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", help="write the metrics JSON here instead of stdout")

    scan = sub.add_parser("gcv-scan", help="GCV score table over a gamma grid")
    _add_problem_flags(scan)
    scan.add_argument("--gamma-grid", type=_flag(_floats, _check_gamma_grid),
                      required=True)
    _add_solver_flags(scan)
    scan.add_argument("--truth", help="optional truth raster for an MAE column")
    scan.add_argument("--out", required=True, help="CSV output path")

    return parser


def _read_psf(path: str) -> Image:
    psf = read_raster(path)
    # A signed, infinite or zero-mass kernel leaves the Poisson model: the
    # blurred intensity can turn negative or infinite.
    if not (np.all(psf.data >= 0.0) and 0.0 < float(np.sum(psf.data)) < np.inf):
        raise UsageError(f"--psf {path}: kernel samples must be finite and "
                         ">= 0 with a positive sum")
    return psf


def _read_finite(path: str) -> Image:
    image = read_raster(path)
    if not np.all(np.isfinite(image.data)):
        raise ValueError(f"{path}: raster has non-finite samples")
    return image


def _load_problem(args) -> DeconvProblem:
    counts = read_raster(args.counts)
    psf = _read_psf(args.psf)
    blur = make_circular_convolution(psf, counts.width, counts.height)
    dictionary = parse_dictionary_spec(args.dict_spec, counts.width, counts.height)
    return DeconvProblem(
        counts=counts, blur=blur, dictionary=dictionary,
        gamma=getattr(args, "gamma", None) or 1.0,
        prior=args.prior,
        splitting=SplittingConfig(theta=args.theta, max_outer=args.iters,
                                  tol=args.tol),
    )


def _dump_json(document: dict, path: str | None) -> None:
    text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args) -> int:
    truth = read_raster(args.input)
    psf = _read_psf(args.psf)
    blur = make_circular_convolution(psf, truth.width, truth.height)
    psf_digest = hashlib.sha256(psf.data.astype("<f8").tobytes()).hexdigest()
    stem, ext = os.path.splitext(args.out)
    for k in range(args.replicates):
        seed = args.seed + k
        counts = simulate(truth, blur, args.peak, seed)
        out = args.out if args.replicates == 1 else f"{stem}_{k:03d}{ext}"
        write_raster(out, counts)
        provenance = {
            "height": counts.height,
            "peak": float(args.peak),
            "psf_sha256": psf_digest,
            "seed": seed,
            "width": counts.width,
        }
        _dump_json(provenance, out + ".prov.json")
        print(f"wrote {out} (seed {seed})")
    return 0


def cmd_deconvolve(args) -> int:
    problem = _load_problem(args)
    if args.gamma_grid is None:
        result = deconvolve(problem)
    else:
        result, rows = select_gamma_gcv(args.gamma_grid, problem)
        print("gamma scan (gamma, gcv):")
        for gamma, score, _ in rows:
            print(f"  {gamma:g} {score:.6e}")
        print(f"selected_gamma={result.gamma_used:g}")
    write_raster(args.out, result.restored)
    metrics = result_metrics(result, include_timing=not args.no_timing)
    _dump_json(metrics, args.metrics or args.out + ".metrics.json")
    status = "converged" if result.converged else "iteration-capped"
    print(f"{status} after {result.state.iterations} iterations "
          f"(gamma {result.gamma_used:g})")
    return 0 if result.converged else 2


def cmd_evaluate(args) -> int:
    truth = _read_finite(args.truth)
    if args.restored:
        paths = [args.restored]
    else:
        paths = sorted(globmod.glob(args.pattern))
        if not paths:
            raise UsageError(f"no files match {args.pattern!r}")
    per_file = []
    for path in paths:
        restored = _read_finite(path)
        _check_grid(truth, restored, f"evaluate: {path} against truth {args.truth}")
        per_file.append({"mae": mae(restored, truth), "path": path,
                         "relative_mae": relative_mae(restored, truth)})
    document = {
        "files": per_file,
        "mae": float(np.mean([f["mae"] for f in per_file])),
        "relative_mae": float(np.mean([f["relative_mae"] for f in per_file])),
    }
    _dump_json(document, args.out)
    return 0


def cmd_gcv_scan(args) -> int:
    problem = _load_problem(args)
    truth = _read_finite(args.truth) if args.truth else None
    best, rows = select_gamma_gcv(args.gamma_grid, problem, truth)
    lines = ["gamma,gcv,mae" if truth is not None else "gamma,gcv"]
    lines += [",".join(f"{v:.17g}" for v in row if v is not None) for row in rows]
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"selected_gamma={best.gamma_used:g}")
    return 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "deconvolve": cmd_deconvolve,
    "evaluate": cmd_evaluate,
    "gcv-scan": cmd_gcv_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (UsageError, ProxDeconvError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
