"""Poisson image deconvolution by proximal splitting with sparsity priors."""

from .operators import (FourierMultiplier, Image, LinearOperator, compose,
                        diagonal_operator, fourier_form, identity_operator,
                        make_circular_convolution, matrix_operator)
from .dictionary import (FrameDictionary, frame_bounds, make_dirac,
                         make_haar_dwt, make_starlet, make_union,
                         parse_dictionary_spec)
from .prox_core import (eval_poisson, grad_poisson, project_positive,
                        prox_poisson, soft_threshold)
from .prox_compose import (FBDiagnostics, default_tau, prox_affine_fb,
                           prox_affine_tight, verify_tight_frame)
from .splitting import ProxTerm, SplittingConfig, SplittingState, solve
from .deconv import (DeconvProblem, DeconvResult, deconvolve, gcv_score, mae,
                     objective, relative_mae, result_metrics, richardson_lucy,
                     scale_to_peak, select_gamma_gcv, simulate)
from .rasters import read_raster, write_raster

__version__ = "0.1.0"

__all__ = [
    "FourierMultiplier", "Image", "LinearOperator", "compose",
    "diagonal_operator", "fourier_form", "identity_operator",
    "make_circular_convolution", "matrix_operator",
    "FrameDictionary", "frame_bounds", "make_dirac", "make_haar_dwt",
    "make_starlet", "make_union", "parse_dictionary_spec",
    "eval_poisson", "grad_poisson", "project_positive", "prox_poisson",
    "soft_threshold",
    "FBDiagnostics", "default_tau", "prox_affine_fb", "prox_affine_tight",
    "verify_tight_frame",
    "ProxTerm", "SplittingConfig", "SplittingState", "solve",
    "DeconvProblem", "DeconvResult", "deconvolve", "gcv_score", "mae",
    "objective", "relative_mae", "result_metrics", "richardson_lucy",
    "scale_to_peak", "select_gamma_gcv", "simulate",
    "read_raster", "write_raster",
    "__version__",
]
