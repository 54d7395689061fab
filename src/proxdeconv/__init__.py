"""Poisson image deconvolution by proximal splitting with sparsity priors."""

from .operators import (Image, LinearOperator, compose, diagonal_operator,
                        identity_operator, make_circular_convolution,
                        matrix_operator)
from .dictionary import (FrameDictionary, analysis_operator, frame_bounds,
                         make_dirac, make_haar_dwt, make_starlet, make_union,
                         parse_dictionary_spec, synthesis_operator)
from .prox_core import (eval_poisson, grad_poisson, project_positive,
                        prox_poisson, soft_threshold)
from .prox_compose import (FBDiagnostics, WarmStartedProx, default_tau,
                           prox_affine_fb, prox_affine_tight,
                           verify_tight_frame)
from .splitting import (ProxTerm, SplittingConfig, SplittingState,
                        relative_change, solve)
from .deconv import (DeconvProblem, DeconvResult, deconvolve, gcv_score, mae,
                     objective_analysis, objective_synthesis, relative_mae,
                     result_metrics, richardson_lucy, scale_to_peak,
                     select_gamma_gcv, simulate)
from .rasters import read_raster, write_raster

__version__ = "0.1.0"

__all__ = [
    "Image", "LinearOperator", "compose",
    "diagonal_operator", "identity_operator", "make_circular_convolution",
    "matrix_operator",
    "FrameDictionary", "analysis_operator", "frame_bounds", "make_dirac",
    "make_haar_dwt", "make_starlet", "make_union", "parse_dictionary_spec",
    "synthesis_operator",
    "eval_poisson", "grad_poisson", "project_positive", "prox_poisson",
    "soft_threshold",
    "FBDiagnostics", "WarmStartedProx", "default_tau",
    "prox_affine_fb", "prox_affine_tight", "verify_tight_frame",
    "ProxTerm", "SplittingConfig", "SplittingState", "relative_change",
    "solve",
    "DeconvProblem", "DeconvResult", "deconvolve", "gcv_score", "mae",
    "objective_analysis", "objective_synthesis", "relative_mae",
    "result_metrics", "richardson_lucy", "scale_to_peak", "select_gamma_gcv",
    "simulate",
    "read_raster", "write_raster",
    "__version__",
]
