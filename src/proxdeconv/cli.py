"""Command-line front end.

Commands: ``simulate`` (blur + Poisson counts), ``deconvolve`` (splitting
solver, fixed gamma or GCV over a grid), ``evaluate`` (MAE against a truth
raster), ``gcv-scan`` (score table over a gamma grid). Exit codes: 0 on
success (deconvolve: stopping rule met), 2 when the iteration cap stopped
the solver first, 1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import glob as globmod
import hashlib
import json
import math
import os
import sys

import numpy as np

from .deconv import (PRIORS, DeconvProblem, deconvolve, mae, relative_mae,
                     result_metrics, select_gamma_gcv, simulate)
from .dictionary import parse_dictionary_spec
from .errors import ProxDeconvError
from .operators import Image, make_circular_convolution
from .rasters import read_raster, write_raster
from .splitting import SplittingConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting 2."""

    def error(self, message):
        raise UsageError(message)


def _finite(kind, name, low=0):
    def parse(text):
        value = kind(text)
        if not low < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{name} must be finite and > {low}, got {text}")
        return value
    return parse


def _gamma_grid(text: str) -> list[float]:
    try:
        grid = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad gamma grid {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError("gamma grid is empty")
    if not all(math.isfinite(g) for g in grid):
        raise argparse.ArgumentTypeError(f"gamma grid must be finite, got {text!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise argparse.ArgumentTypeError("gamma grid must be strictly increasing")
    return grid


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iters", type=_finite(int, "--iters"), default=300,
                   help="outer iteration cap (default 300)")
    p.add_argument("--theta", type=float, default=1.0,
                   help="relaxation in (0,2) of the primal-dual step "
                        "(default 1.0)")
    p.add_argument("--mu", type=_finite(float, "--mu", -math.inf), default=1.0,
                   help="any finite number, accepted and ignored: both priors "
                        "take their step from the mean count (default 1.0)")
    p.add_argument("--tol", type=_finite(float, "--tol"), default=1e-5,
                   help="stopping tolerance on the relative change of the "
                        "iterate and on the duals' change (default 1e-5)")


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
    sim.add_argument("--peak", type=_finite(float, "--peak"), required=True,
                     help="rescale truth to this peak intensity")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--replicates", type=_finite(int, "--replicates"), default=1,
                     help="write N replicates, seeds seed..seed+N-1")
    sim.add_argument("--out", required=True, help="output counts raster")

    dec = sub.add_parser("deconvolve", help="restore a count raster")
    _add_problem_flags(dec)
    group = dec.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=_finite(float, "--gamma"))
    group.add_argument("--gamma-grid", type=_gamma_grid,
                       help="comma-separated increasing grid; gamma picked by GCV")
    _add_solver_flags(dec)
    dec.add_argument("--out", required=True, help="restored raster")
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
    scan.add_argument("--gamma-grid", type=_gamma_grid, required=True)
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


def _replicate_path(path: str, index: int) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}_{index:03d}{ext}"


def cmd_simulate(args) -> int:
    truth = read_raster(args.input)
    psf = _read_psf(args.psf)
    blur = make_circular_convolution(psf, truth.width, truth.height)
    psf_digest = hashlib.sha256(psf.data.astype("<f8").tobytes()).hexdigest()
    for k in range(args.replicates):
        seed = args.seed + k
        counts = simulate(truth, blur, args.peak, seed)
        out = args.out if args.replicates == 1 else _replicate_path(args.out, k)
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
        if (restored.width, restored.height) != (truth.width, truth.height):
            raise ValueError(f"{path} is {restored.width}x{restored.height} "
                             f"but truth {args.truth} is "
                             f"{truth.width}x{truth.height}")
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
    header = "gamma,gcv,mae" if truth is not None else "gamma,gcv"
    lines = [header]
    for gamma, score, err in rows:
        row = f"{gamma:.17g},{score:.17g}"
        if truth is not None:
            row += f",{err:.17g}"
        lines.append(row)
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
