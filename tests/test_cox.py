import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from vewane.cli import DAYS_PER_YEAR
from vewane.core import (
    Cause,
    NonIdentifiableError,
    VEBasisSpec,
    VewaneError,
    convert_to_years,
)
from vewane.cox import _first_reached, _running_sum, cox_partial_loglik, fit_cox_tv
from vewane.sieve import newton
from vewane.simulate import ScenarioSpec, simulate_cohort, substream_seed

from .conftest import make_records, with_columns, workers
from .oracles import (
    cox_derivs_scan,
    finite_diff_gradient,
    finite_diff_jacobian,
    max_rel_err,
    running_sum_by_sum,
    running_sum_concat,
)

CONST = VEBasisSpec("constant")
LINEAR = VEBasisSpec("linear")


def _null_fit(seed):
    scenario = ScenarioSpec(
        n=10_000, beta_true=(0.0, 0.0), sigma_u=1e-3, baseline_shape="constant", seed=seed
    )
    ds, _ = simulate_cohort(scenario)
    return fit_cox_tv(ds, LINEAR).beta


# three preventable events tied at t = 0.4 (two vaccinated, one not)
TIE_ROWS = [
    ("a", 0.0, 0.4, Cause.PREVENTABLE),
    ("b", None, 0.4, Cause.PREVENTABLE),
    ("c", 0.3, 0.4, Cause.PREVENTABLE),
    ("d", 0.2, 0.9, Cause.PREVENTABLE),
    ("e", None, 1.0, Cause.CENSORED),
    ("f", 0.8, 1.0, Cause.CENSORED),
]


def day_unit_boundary_cohort():
    """Day-unit cohort converted to years whose events fall exactly 0 and 14 days
    after vaccination; fl(t - V) < 14/365 and V + 14/365 <= t disagree on many."""
    rows = [(f"u{d}", None, float(d), Cause.PREVENTABLE) for d in (1, 2, 2, 5)]  # nobody vaccinated yet
    rows += [(f"b{d}", float(d), d + 14.0, Cause.PREVENTABLE) for d in range(10, 430)]
    rows += [(f"z{d}", float(d), float(d), Cause.PREVENTABLE) for d in range(10, 430, 7)]  # V == T
    rows += [(f"p{d}", float(d), d + 20.0 + d % 17, Cause.PREVENTABLE) for d in range(10, 400, 3)]
    rows += [(f"i{d}", float(d), d + 40.0, Cause.IRRELEVANT) for d in range(10, 400, 9)]
    rows += [(f"n{d}", None, float(d), Cause.PREVENTABLE) for d in range(7, 450, 2)]
    rows += [(f"v{d}", float(d), 450.0, Cause.CENSORED) for d in range(10, 430)]
    rows += [(f"c{d}", None, 450.0, Cause.CENSORED) for d in range(200)]
    rows += [("late", 300.0, 200.0, Cause.PREVENTABLE), ("late2", 449.0, 120.0, Cause.CENSORED)]
    rows = [(f"{r[0]}-{k}", *r[1:]) for k, r in enumerate(rows)]
    return convert_to_years(make_records(rows, 450.0, time_unit="days"), DAYS_PER_YEAR)


BOUNDARY_START = 0.1  # the ramp length of `boundary_ties_cohort`


def boundary_ties_cohort():
    """Years-unit cohort with tied event times, tied V, and V at fl(t - s) and
    its float neighbours for s = 0 and s = BOUNDARY_START, so fl(t - V) falls on
    both sides of each piece start."""
    rng = np.random.default_rng(11)
    rows = []
    for k, t in enumerate(np.round(rng.uniform(0.2, 0.95, 50), 2)):  # ties on a 0.01 grid
        for start in (0.0, BOUNDARY_START):
            v = t - start
            for j, vj in enumerate((np.nextafter(v, 0.0), v, np.nextafter(v, 1.0))):
                rows.append((f"b{k}-{start}-{j}", float(vj), float(t), Cause.PREVENTABLE))
    rows += [(f"tv{k}", 0.25, float(t), Cause.PREVENTABLE) for k, t in enumerate(np.round(rng.uniform(0.3, 1, 40), 2))]
    rows += [(f"c{k}", float(v), 1.0, Cause.CENSORED) for k, v in enumerate(np.round(rng.uniform(0, 1, 80), 1))]
    rows += [(f"n{k}", None, float(t), Cause.PREVENTABLE) for k, t in enumerate(np.round(rng.uniform(0, 1, 40), 2))]
    return make_records(rows, horizon=1.0)


# covariates (1, 0, 1): events at t=1, 2 for the first two; third at risk throughout
THREE_SUBJECTS = [
    ("s1", 0.0, 1.0, Cause.PREVENTABLE),
    ("s2", None, 2.0, Cause.PREVENTABLE),
    ("s3", 0.0, 3.0, Cause.CENSORED),
]


def three_subject_dataset():
    return make_records(THREE_SUBJECTS, horizon=3.0)


class TestPartialLikelihood:
    def test_closed_form_three_subjects(self):
        fit = fit_cox_tv(three_subject_dataset(), CONST)
        assert fit.beta[0] == pytest.approx(-0.5 * math.log(2), abs=1e-8)

    def test_closed_form_score_zero(self):
        beta = np.array([-0.5 * math.log(2)])
        _, grad, _ = cox_partial_loglik(three_subject_dataset(), CONST, beta)
        assert abs(grad[0]) < 1e-12

    def test_all_unvaccinated_nonidentifiable(self):
        ds = make_records(
            [("a", None, 0.3, Cause.PREVENTABLE), ("b", None, 0.6, Cause.PREVENTABLE),
             ("c", None, 1.0, Cause.CENSORED)]
        )
        with pytest.raises(NonIdentifiableError):
            fit_cox_tv(ds, CONST)

    def test_no_preventable_events(self):
        ds = make_records([("a", 0.1, 0.5, Cause.IRRELEVANT)])
        with pytest.raises(VewaneError):
            cox_partial_loglik(ds, CONST, np.zeros(1))

    def test_fast_matches_scan(self, rng):
        ds, _ = simulate_cohort(ScenarioSpec(n=1500, seed=43))
        for _ in range(6):
            beta = rng.normal(0, 0.5, 2)
            ll_f, g_f, h_f = cox_partial_loglik(ds, LINEAR, beta)
            ll_s, g_s, h_s = cox_derivs_scan(ds, LINEAR, beta)
            assert ll_f == pytest.approx(ll_s, rel=1e-10)
            assert np.allclose(g_f, g_s, rtol=1e-9, atol=1e-9)
            assert np.allclose(h_f, h_s, rtol=1e-9, atol=1e-9)

    def test_fast_matches_scan_with_ties(self):
        ds = make_records(TIE_ROWS)
        beta = np.array([-0.3, 0.7])
        ll_f, g_f, h_f = cox_partial_loglik(ds, LINEAR, beta)
        ll_s, g_s, h_s = cox_derivs_scan(ds, LINEAR, beta)
        assert ll_f == pytest.approx(ll_s, rel=1e-12)
        assert np.allclose(g_f, g_s, atol=1e-12)
        assert np.allclose(h_f, h_s, atol=1e-12)

    @pytest.mark.parametrize("kind", ["constant", "linear", "ramp"])
    def test_matches_scan_oracle(self, kind, rng):
        for ds, ramp_length in (
            (simulate_cohort(ScenarioSpec(n=1500, seed=43))[0], 0.1),
            (make_records(TIE_ROWS), 0.3),
            (day_unit_boundary_cohort(), 14 / DAYS_PER_YEAR),
            (boundary_ties_cohort(), BOUNDARY_START),
        ):
            basis = VEBasisSpec(kind, ramp_length=ramp_length if kind == "ramp" else None)
            for _ in range(4):
                beta = rng.normal(0, 0.5, basis.dimension)
                ll, grad, hess = cox_partial_loglik(ds, basis, beta)
                ll_s, grad_s, hess_s = cox_derivs_scan(ds, basis, beta)
                assert max_rel_err(ll, ll_s) < 1e-10
                assert max_rel_err(grad, grad_s) < 1e-10
                assert max_rel_err(hess, hess_s) < 1e-10

    def test_steep_slope_after_early_vaccinees_leave(self):
        # every vaccinee has its event 14 days after vaccination, so at this slope
        # the weights that have left a risk set outweigh those still in it by ~1e17
        rows = [(f"b{d}", d / 365, (d + 14) / 365, Cause.PREVENTABLE) for d in range(10, 430)]
        rows += [(f"c{d}", None, 450 / 365, Cause.CENSORED) for d in range(60)]
        ds = make_records(rows, horizon=450 / 365)
        beta = np.array([3.9, 33.0])
        for got, want in zip(cox_partial_loglik(ds, LINEAR, beta), cox_derivs_scan(ds, LINEAR, beta)):
            assert max_rel_err(got, want) < 1e-6

    def test_ramp_fit_matches_newton_on_scan(self):
        for ds, basis in (
            (simulate_cohort(ScenarioSpec(n=1500, seed=43))[0], VEBasisSpec("ramp", ramp_length=0.1)),
            (day_unit_boundary_cohort(), VEBasisSpec("ramp", ramp_length=14 / DAYS_PER_YEAR)),
        ):
            want = newton(lambda b: cox_derivs_scan(ds, basis, b), np.zeros(3))
            assert want.converged
            assert np.max(np.abs(fit_cox_tv(ds, basis).beta - want.theta)) < 1e-10

    def test_breslow_hand_example(self):
        # two tied events at t=0.5 among four subjects; x = Z (constant basis)
        ds = make_records(
            [
                ("a", 0.0, 0.5, Cause.PREVENTABLE),
                ("b", None, 0.5, Cause.PREVENTABLE),
                ("c", 0.0, 0.8, Cause.CENSORED),
                ("d", None, 0.9, Cause.CENSORED),
            ]
        )
        beta = np.array([0.4])
        u = math.exp(0.4)
        # Breslow: both tied events share the full risk-set denominator (2u + 2)
        want = (0.4 + 0.0) - 2 * math.log(2 * u + 2)
        ll, _, _ = cox_partial_loglik(ds, CONST, beta)
        assert ll == pytest.approx(want, rel=1e-12)

    def test_gradient_hessian_finite_diff(self, rng):
        sc = ScenarioSpec(n=400, seed=47)
        ds, _ = simulate_cohort(sc)
        for basis in (CONST, LINEAR, VEBasisSpec("ramp", ramp_length=0.1)):
            for _ in range(3):
                beta = rng.normal(0, 0.4, basis.dimension)
                ll, grad, hess = cox_partial_loglik(ds, basis, beta)
                fd_g = finite_diff_gradient(lambda b: cox_partial_loglik(ds, basis, b)[0], beta)
                assert max_rel_err(grad, fd_g) < 1e-6
                fd_h = finite_diff_jacobian(lambda b: cox_partial_loglik(ds, basis, b)[1], beta)
                assert max_rel_err(hess, (fd_h + fd_h.T) / 2) < 1e-6


class TestRiskSets:
    def test_removing_irrelevant_censored_subject(self):
        ds = three_subject_dataset()
        extra = make_records(THREE_SUBJECTS + [("ghost", None, 0.5, Cause.CENSORED)], ds.horizon)
        fit_a = fit_cox_tv(ds, CONST)
        fit_b = fit_cox_tv(extra, CONST)
        assert fit_a.beta[0] == pytest.approx(fit_b.beta[0], abs=1e-12)


    @pytest.mark.parametrize("start", [0.0, BOUNDARY_START, 14 / DAYS_PER_YEAR, np.inf])
    def test_first_reached_is_the_exact_test(self, start):
        # searched in sorted order and scattered back, per V the first event time
        # with fl(t - V) >= start, over tied V and V on the fl(V + start) boundary
        for ds in (boundary_ties_cohort(), day_unit_boundary_cohort()):
            arr = ds.arrays()
            times = np.unique(arr["time"][arr["cause"] == 1])
            v = arr["vax"][~np.isnan(arr["vax"])]
            reached = times[None, :] - v[:, None] >= start
            want = np.where(reached.any(axis=1), reached.argmax(axis=1), times.size)
            assert np.array_equal(_first_reached(times, v, np.argsort(v), start), want)

    def test_running_sum_keeps_the_bits_of_a_sum_from_zero(self, rng):
        # `sum()` starts from the integer 0, which turns a -0.0 into +0.0; no
        # prefix sum is -0.0, so adding the two directly keeps every bit
        n_times = 40
        for w in (rng.normal(0, 1, 300), np.zeros(300), -np.zeros(300), np.exp(rng.normal(0, 20, 300))):
            ends = rng.integers(0, n_times + 1, 600)
            got, want = _running_sum(ends, w, n_times), running_sum_by_sum(ends, w, n_times)
            assert got.tobytes() == want.tobytes()

    def test_running_sum_splits_half_the_weights(self, rng):
        # the split is sign-symmetric, and a bin starting at +0.0 absorbs a -0.0
        for trial in range(200):
            n, n_times = int(rng.integers(1, 400)), int(rng.integers(1, 50))
            scale = 10.0 ** rng.uniform(-5, 5)
            w = rng.choice([rng.normal(0, scale, n), rng.exponential(scale, n), np.zeros(n), -np.zeros(n)])
            w[rng.random(n) < 0.2] = rng.choice([0.0, -0.0, scale])
            ends = rng.integers(0, n_times + 1, 2 * n)
            got, want = _running_sum(ends, w, n_times), running_sum_concat(ends, w, n_times)
            assert got.tobytes() == want.tobytes(), trial


class TestTimeTransform:
    def test_monotone_transform_invariance_constant_basis(self):
        sc = ScenarioSpec(n=800, seed=59)
        ds, _ = simulate_cohort(sc)
        fit_raw = fit_cox_tv(ds, CONST)
        a = ds.arrays()
        transformed = with_columns(ds, horizon=ds.horizon**3, vax=a["vax"] ** 3, time=a["time"] ** 3)
        fit_t = fit_cox_tv(transformed, CONST)
        assert fit_raw.beta[0] == pytest.approx(fit_t.beta[0], abs=1e-9)

    def test_comparator_bias_directions(self, small_cohort):
        # with frailty and VE, ignoring the negative control leaves spurious waning
        sc, ds, truth = small_cohort
        fit = fit_cox_tv(ds, LINEAR)
        assert fit.diagnostics["converged"]
        assert fit.beta[0] < 0


class TestNullCalibration:
    def test_unbiased_without_frailty_or_effect(self):
        seeds = [substream_seed(606, r) for r in range(200)]
        with ProcessPoolExecutor(max_workers=workers()) as pool:
            betas = np.array(list(pool.map(_null_fit, seeds, chunksize=10)))
        mean = betas.mean(axis=0)
        assert np.all(np.abs(mean) < 0.05), mean
