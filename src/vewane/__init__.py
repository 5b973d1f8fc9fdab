"""Time-varying vaccine effectiveness estimation debiased by vaccine-irrelevant
negative-control infections: sieve and TMLE semiparametric logistic estimators,
a Cox comparator, a frailty simulation harness, surveillance anchoring,
isotonic correction, and a coverage/MSE benchmark."""

__version__ = "0.1.0"

from .core import (
    Cause,
    Dataset,
    FitResult,
    VEBasisSpec,
    eval_ve_basis,
    f_value,
    read_events_csv,
    validate_dataset,
    ve_from_f,
    write_events_csv,
)
from .cox import cox_partial_loglik, fit_cox_tv
from .estimators import CoxVE, SieveVE, TmleVE
from .report import VECurve, monotone_ci_mc, monotonize_curve, read_curve, ve_curve, write_curve
from .sieve import FixedOffset, build_design, fit_sieve_binary, fit_sieve_multinomial, loglik_derivs
from .simulate import (
    LatentDraw,
    ScenarioSpec,
    cumulative_hazard,
    invert_cumulative_hazard,
    sample_latents,
    simulate_cohort,
    simulate_cohort_views,
)
from .smoothing import (
    BSplineBasis,
    bspline_eval,
    kernel_smooth,
    knot_rule,
    pava_isotonic,
    weighted_spline_smooth,
)
from .surveillance import (
    SurveillanceSeries,
    VariantMix,
    impute_strains,
    sda_tt2_offset,
    sensitivity_offset,
    tt1_offset,
)
from .tmle import eic_values, estimate_r, fit_tmle_binary, fit_tmle_multinomial

__all__ = [name for name in dir() if not name.startswith("_")]
