"""Codifferential descent methods for nonsmooth minimization.

The library covers three layers:

* exact piecewise-affine calculus (:mod:`codescent.pa`) and the
  minimum-norm-point solver it leans on (:mod:`codescent.minnorm`);
* descent methods: hypodifferential descent for convex objectives
  (:mod:`codescent.mhd`) and global codifferential descent for
  piecewise-affine ones (:mod:`codescent.mgcd`), with global-optimality
  certificates;
* an independent LP oracle (:mod:`codescent.oracle`) that verifies
  every claimed global minimum.
"""

from .convex import (
    ConvexCombination,
    ConvexFn,
    ConvexPAView,
    MaxOf,
    Quadratic,
    SmoothConvex,
    check_amenable,
    check_lipschitz_approx,
    linear,
    quadratic,
)
from .errors import (
    ArmijoFailure,
    Degenerate,
    DimensionMismatch,
    NoConvergence,
    NonFinite,
    SizeOverflow,
)
from .mgcd import (
    Certificate,
    GlobalRun,
    check_global_opt,
    check_inf_stationary,
    hyper_grad,
    line_search_pa,
    mcd_run,
    mgcd_run,
    project_piece,
)
from .mhd import MHDConfig, MHDTrace, armijo_step, mhd_run
from .minnorm import min_norm_point, wolfe_residual
from .oracle import (
    LPOutcome,
    NonnegativityVerdict,
    classify_nonnegative,
    min_max_affine,
    pa_global_min,
)
from .pa import (
    Affine,
    Const,
    DCForm,
    GlobalCodiff,
    Max,
    Min,
    Scale,
    Sum,
    codiff_affine,
    codiff_max,
    codiff_min,
    codiff_scale,
    codiff_sum,
    evaluate,
    expr_eval,
    expr_from_json,
    expr_to_dc,
    expr_to_json,
    global_codiff,
    translate,
)
from .problems import generate_pa, max_quadratics, random_start, theta_lower_bound, worked_example

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "ArmijoFailure",
    "Certificate",
    "Const",
    "ConvexCombination",
    "ConvexFn",
    "ConvexPAView",
    "DCForm",
    "Degenerate",
    "DimensionMismatch",
    "GlobalCodiff",
    "GlobalRun",
    "LPOutcome",
    "MHDConfig",
    "MHDTrace",
    "Max",
    "MaxOf",
    "Min",
    "NoConvergence",
    "NonFinite",
    "NonnegativityVerdict",
    "Quadratic",
    "Scale",
    "SizeOverflow",
    "SmoothConvex",
    "Sum",
    "armijo_step",
    "check_amenable",
    "check_global_opt",
    "check_inf_stationary",
    "check_lipschitz_approx",
    "classify_nonnegative",
    "codiff_affine",
    "codiff_max",
    "codiff_min",
    "codiff_scale",
    "codiff_sum",
    "evaluate",
    "expr_eval",
    "expr_from_json",
    "expr_to_dc",
    "expr_to_json",
    "generate_pa",
    "global_codiff",
    "hyper_grad",
    "line_search_pa",
    "linear",
    "max_quadratics",
    "mcd_run",
    "mgcd_run",
    "mhd_run",
    "min_max_affine",
    "min_norm_point",
    "pa_global_min",
    "project_piece",
    "quadratic",
    "random_start",
    "theta_lower_bound",
    "translate",
    "wolfe_residual",
    "worked_example",
]
