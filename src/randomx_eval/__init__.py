"""Random-X prediction error: decomposition, criteria, and simulation studies.

The package estimates and explains the gap between in-sample optimism and
true out-of-sample error when test covariates are fresh draws rather than
the training rows, for least squares, ridge, kernel ridge, and kNN.
"""

__version__ = "0.1.0"

from .criteria import (
    CriteriaReport,
    bplus_hat,
    cp,
    criteria_report,
    gcv,
    ocv,
    optr_asymptotic,
    rcp,
    rcp_hat,
    vplus_asymptotic,
    vplus_normal_exact,
)
from .datagen import (
    CovariateModel,
    MeanModel,
    NoiseModel,
    draw_covariates,
    draw_response,
    quantile_t4,
    stream,
)
from .decomp import (
    ConditionalMoments,
    DecompositionEstimate,
    OcvConditionalDecomp,
    conditional_moments,
    estimate_decomposition,
    ocv_conditional,
)
from .experiments import (
    CriteriaMseRow,
    RidgeRatioCurve,
    ScenarioConfig,
    err_r_target,
    ridge_ratio_limit_normal,
    run_criteria_study,
    run_decomposition_study,
    run_ridge_ratio_study,
)
from .smoothers import FittedSmoother, SmootherSpec, fit, neighbor_sets, predict

__all__ = [
    "__version__",
    # datagen
    "CovariateModel", "MeanModel", "NoiseModel",
    "draw_covariates", "draw_response", "quantile_t4", "stream",
    # smoothers
    "SmootherSpec", "FittedSmoother", "fit", "predict", "neighbor_sets",
    # criteria
    "cp", "rcp", "rcp_hat", "gcv", "ocv", "bplus_hat",
    "vplus_normal_exact", "vplus_asymptotic",
    "optr_asymptotic", "CriteriaReport",
    "criteria_report",
    # decomp
    "ConditionalMoments", "conditional_moments", "DecompositionEstimate",
    "estimate_decomposition", "OcvConditionalDecomp", "ocv_conditional",
    # experiments
    "ScenarioConfig", "CriteriaMseRow", "RidgeRatioCurve", "err_r_target",
    "run_decomposition_study", "run_criteria_study", "run_ridge_ratio_study",
    "ridge_ratio_limit_normal",
]
