"""The package's public names, pinned one per line, so that adding or
removing an export shows up as a one-line change here."""

import proxdeconv

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
    "objective_analysis",
    "objective_synthesis",
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
