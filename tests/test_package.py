import inspect
import re
from pathlib import Path

import vewane

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert printed.count("\n") >= 2 and "nan" not in printed


def test_public_surface():
    # a name added to or dropped from `import vewane` is a deliberate edit here
    assert sorted(vewane.__all__) == [
        "BSplineBasis", "Cause", "Dataset", "FitResult", "FixedOffset", "LatentDraw", "ScenarioSpec",
        "SurveillanceSeries", "VEBasisSpec", "VECurve", "VariantMix", "bspline_eval", "build_design",
        "cox_partial_loglik", "cumulative_hazard", "eic_values", "estimate_r", "eval_ve_basis", "f_value",
        "fit_cox_tv", "fit_sieve_binary", "fit_sieve_multinomial", "fit_tmle_binary",
        "fit_tmle_multinomial", "impute_strains", "invert_cumulative_hazard", "kernel_smooth", "knot_rule",
        "loglik_derivs", "monotone_ci_mc", "monotonize_curve", "pava_isotonic", "read_curve",
        "read_events_csv", "sample_latents", "sda_tt2_offset", "sensitivity_offset", "simulate_cohort",
        "simulate_cohort_views", "tt1_offset", "validate_dataset", "ve_curve", "ve_from_f",
        "weighted_spline_smooth", "write_curve", "write_events_csv",
    ]


def test_fit_and_smoother_parameters():
    # an option added to or dropped from a fit or smoother is a deliberate edit here
    tmle_options = ["smoother", "knots", "alpha", "offset", "tol", "max_iter", "knot_placement"]
    want = {
        "fit_cox_tv": ["dataset", "ve_basis"],
        "fit_sieve_binary": ["dataset", "ve_basis", "knots", "alpha", "offset", "knot_placement"],
        "fit_sieve_multinomial": ["dataset", "ve_bases", "mixture", "knots", "alpha", "offset", "knot_placement"],
        "fit_tmle_binary": ["dataset", "ve_basis", *tmle_options],
        "fit_tmle_multinomial": ["dataset", "ve_bases", "mixture", *tmle_options],
        "estimate_r": ["T", "values", "weights", "smoother", "bandwidth"],
        "kernel_smooth": ["x", "y", "w", "bandwidth"],
    }
    got = {name: list(inspect.signature(getattr(vewane, name)).parameters) for name in want}
    assert got == want
