import itertools
import math

import numpy as np
import pytest

from vewane.core import (
    Cause,
    NonIdentifiableError,
    NotConvergedError,
    OnlyOneCauseError,
    VEBasisSpec,
    VewaneError,
)
from vewane.sieve import (
    FixedOffset,
    build_design,
    default_alpha_basis,
    fit_sieve_binary,
    fit_sieve_multinomial,
    loglik_derivs,
    newton,
)
from vewane.simulate import ScenarioSpec, simulate_cohort, substream_seed
from vewane.smoothing import BSplineBasis, ConstantFn
from vewane.surveillance import VariantMix, impute_strains

from .conftest import dataset_rows, event_times, make_records, with_columns
from .oracles import finite_diff_gradient, finite_diff_jacobian, logistic_loglik_reference, max_rel_err

LINEAR = VEBasisSpec("linear")
INTERCEPT_ONLY = FixedOffset(free_intercept=True)


def two_cause_records(n_prev=6, n_irr=5):
    rows = []
    for i in range(n_prev):
        rows.append((f"p{i}", 0.05 * i, 0.1 + 0.08 * i, Cause.PREVENTABLE))
    for i in range(n_irr):
        rows.append((f"i{i}", None, 0.15 + 0.08 * i, Cause.IRRELEVANT))
    return make_records(rows)


class TestBuildDesign:
    def test_vaccinated_row(self):
        ds = make_records([("a", 0.2, 0.5, Cause.PREVENTABLE), ("b", None, 0.4, Cause.IRRELEVANT)])
        design = build_design(ds, LINEAR, INTERCEPT_ONLY)
        assert np.allclose(design.X_ve[0][0], [1.0, 0.3])

    def test_unvaccinated_row(self):
        ds = make_records([("a", None, 0.5, Cause.IRRELEVANT), ("b", 0.1, 0.4, Cause.PREVENTABLE)])
        design = build_design(ds, LINEAR, INTERCEPT_ONLY)
        assert np.allclose(design.X_ve[0][0], [0.0, 0.0])

    def test_censored_dropped_and_counted(self, rng):
        rows = []
        for i in range(60):
            cause = Cause.PREVENTABLE if i % 2 else Cause.IRRELEVANT
            rows.append((f"e{i}", None, 0.1 + 0.8 * i / 60, cause))
        for i in range(40):
            rows.append((f"c{i}", None, 1.0, Cause.CENSORED))
        design = build_design(make_records(rows), LINEAR, INTERCEPT_ONLY)
        assert design.n_rows == 60
        assert design.n_dropped_censored == 40

    def test_event_outside_boundary(self):
        ds = two_cause_records()
        basis = BSplineBasis(3, (), (0.0, 0.3))
        with pytest.raises(VewaneError, match="boundary"):
            build_design(ds, LINEAR, basis)


class TestLoglikDerivs:
    def test_all_zero_parameters(self):
        ds = two_cause_records()
        design = build_design(ds, LINEAR, INTERCEPT_ONLY)
        ll, _, _ = loglik_derivs(design, np.zeros(3))
        assert ll == pytest.approx(design.n_rows * math.log(0.5))

    def test_matches_reference_loglik(self, rng):
        sc = ScenarioSpec(n=3000, seed=17)
        ds, _ = simulate_cohort(sc)
        design = build_design(ds, LINEAR, default_alpha_basis(event_times(ds)))
        theta = rng.normal(0, 0.4, design.n_params)
        ll, _, _ = loglik_derivs(design, theta)
        eta = np.hstack([design.X_ve[0], design.X_alpha]) @ theta + design.offsets[:, 0]
        assert ll == pytest.approx(logistic_loglik_reference(eta, design.y), rel=1e-12)

    def test_intercept_only_closed_form(self):
        ds = make_records([("a", None, 0.3, Cause.PREVENTABLE), ("b", None, 0.5, Cause.IRRELEVANT)])
        fit = fit_sieve_binary(ds, None, alpha=INTERCEPT_ONLY)
        assert fit.nuisance(0.4)[0] == pytest.approx(0.0, abs=1e-9)
        assert fit.diagnostics["loglik"] == pytest.approx(2 * math.log(0.5))

    def test_offset_only_logit_of_mean(self):
        rows = [(f"p{i}", None, 0.1 + 0.01 * i, Cause.PREVENTABLE) for i in range(30)]
        rows += [(f"i{i}", None, 0.12 + 0.01 * i, Cause.IRRELEVANT) for i in range(10)]
        fit = fit_sieve_binary(make_records(rows), None, alpha=INTERCEPT_ONLY)
        assert fit.nuisance(0.2)[0] == pytest.approx(math.log(30 / 10), abs=1e-8)

    def test_gradient_hessian_finite_diff(self, rng):
        sc = ScenarioSpec(n=2000, seed=23)
        ds, _ = simulate_cohort(sc)
        alpha = default_alpha_basis(event_times(ds), knots=2)
        binary = build_design(ds, LINEAR, alpha)
        cases = [(binary, rng.normal(0, 0.3, binary.n_params)) for _ in range(5)]
        # two strains: the cross blocks between VE columns and shared alpha columns
        overlapping = VariantMix.from_counts([0.0, 0.5], {1: [70, 20], 2: [30, 80]})
        mix_rng = np.random.default_rng(23)
        for mix, _ in itertools.product((step_mixture(), overlapping), range(3)):
            design = build_design(impute_strains(ds, mix, 23), LINEAR, alpha, mixture=mix)
            cases.append((design, mix_rng.normal(0, 0.3, design.n_params)))
        for design, theta in cases:
            ll, grad, hess = loglik_derivs(design, theta)
            fd_grad = finite_diff_gradient(lambda th: loglik_derivs(design, th)[0], theta)
            assert max_rel_err(grad, fd_grad) < 1e-6
            fd_hess = finite_diff_jacobian(lambda th: loglik_derivs(design, th)[1], theta)
            assert max_rel_err(hess, (fd_hess + fd_hess.T) / 2) < 1e-6

    def test_dimension_mismatch(self):
        design = build_design(two_cause_records(), LINEAR, INTERCEPT_ONLY)
        with pytest.raises(ValueError):
            loglik_derivs(design, np.zeros(7))


def concave_quadratic(A, center):
    """Log-likelihood -(theta - c)' A (theta - c) / 2 with its exact derivatives."""
    def derivs(theta):
        r = theta - center
        return -0.5 * float(r @ A @ r), -A @ r, -A
    return derivs


class TestNewton:
    A = np.array([[2.0, 0.5, 0.3], [0.5, 1.5, -0.2], [0.3, -0.2, 1.0]])
    CENTER = np.array([1.0, -2.0, 0.5])

    def test_concave_quadratic_one_iteration(self):
        fit = newton(concave_quadratic(self.A, self.CENTER), np.zeros(3))
        assert fit.converged
        assert fit.iterations == 1
        assert fit.trace[0]["step_scale"] == 1.0
        assert np.allclose(fit.theta, self.CENTER, atol=1e-12)

    def test_pinned_coordinates_keep_start_values(self):
        free = np.array([True, False, True])
        theta0 = np.array([0.0, 5.0, 0.0])
        fit = newton(concave_quadratic(self.A, self.CENTER), theta0, free)
        assert fit.converged
        assert fit.theta[1] == 5.0
        assert fit.grad.shape == (2,) and fit.hess.shape == (2, 2)
        # the free block solves its score equation given the pinned value
        assert np.max(np.abs(concave_quadratic(self.A, self.CENTER)(fit.theta)[1][free])) < 1e-8

    @staticmethod
    def uphill_score(drop):
        """The score points uphill but every step lowers the log-likelihood; after
        40 halvings the step is 2**-39 and the drop about 1e-23 * drop."""
        return lambda theta: (-drop * float(theta @ theta), np.ones(2), -np.eye(2))

    def test_no_improving_step_negligible_drop(self):
        fit = newton(self.uphill_score(1.0), np.zeros(2))
        assert fit.converged
        assert fit.iterations == 1
        assert np.array_equal(fit.theta, np.zeros(2))
        assert fit.final_update_norm == 0.0

    def test_no_improving_step_raises(self):
        with pytest.raises(NotConvergedError):
            newton(self.uphill_score(1e30), np.zeros(2))

    def test_step_within_rounding_taken_in_full(self):
        # near the optimum the measured change is rounding noise, not a decrease
        def derivs(theta):
            return -1000.0 - (1e-13 if theta.any() else 0.0), np.full(2, 1e-6), -np.eye(2)

        fit = newton(derivs, np.zeros(2))
        assert fit.converged
        assert fit.trace[0]["step_scale"] == 1.0
        assert np.array_equal(fit.theta, np.full(2, 1e-6))

    def test_singular_information(self):
        with pytest.raises(NonIdentifiableError):
            newton(lambda theta: (0.0, np.ones(2), np.zeros((2, 2))), np.zeros(2))


class TestFitSieveBinary:
    def test_recovers_truth_small_mc(self, rng):
        base = ScenarioSpec(n=10_000, sigma_u=2.0)
        betas = []
        for r in range(12):
            ds, _ = simulate_cohort(ScenarioSpec(**{**base.to_dict(), "ve_basis": base.ve_basis,
                                                    "beta_true": base.beta_true, "seed": substream_seed(51, r)}))
            betas.append(fit_sieve_binary(ds, LINEAR).beta)
        mean = np.mean(betas, axis=0)
        assert np.allclose(mean, [-1.0, 0.0], atol=0.2)

    def test_only_one_cause(self):
        rows = [(f"p{i}", 0.01 * i, 0.1 + 0.01 * i, Cause.PREVENTABLE) for i in range(40)]
        with pytest.raises(OnlyOneCauseError):
            fit_sieve_binary(make_records(rows), LINEAR, alpha=INTERCEPT_ONLY)

    def test_separation_detected(self):
        rows = [(f"p{i}", 0.0, 0.1 + 0.01 * i, Cause.PREVENTABLE) for i in range(40)]
        rows += [(f"i{i}", None, 0.1 + 0.01 * i, Cause.IRRELEVANT) for i in range(40)]
        with pytest.raises((NonIdentifiableError,)):
            fit_sieve_binary(make_records(rows), VEBasisSpec("constant"), alpha=INTERCEPT_ONLY)

    def test_offset_invariance(self, small_cohort):
        _, ds, _ = small_cohort
        base = fit_sieve_binary(ds, LINEAR)
        shifted = fit_sieve_binary(ds, LINEAR, offset=ConstantFn(2.5))
        assert np.allclose(base.beta, shifted.beta, atol=1e-8)

    def test_time_translation_equivariance(self, small_cohort):
        _, ds, _ = small_cohort
        delta = 3.0
        a = ds.arrays()
        shifted = with_columns(ds, horizon=ds.horizon + delta, vax=a["vax"] + delta, time=a["time"] + delta)
        fit0 = fit_sieve_binary(ds, LINEAR)
        knots0 = np.asarray(fit0.diagnostics["knots"])
        b0 = fit0.diagnostics["boundary"]
        basis_shifted = BSplineBasis(3, tuple(knots0 + delta), (b0[0] + delta, b0[1] + delta))
        fit1 = fit_sieve_binary(shifted, LINEAR, alpha=basis_shifted)
        assert np.allclose(fit0.beta, fit1.beta, atol=1e-8)

    def test_monotone_ascent_endpoint(self, small_cohort):
        _, ds, _ = small_cohort
        fit = fit_sieve_binary(ds, LINEAR)
        design = build_design(ds, LINEAR, BSplineBasis(3, tuple(fit.diagnostics["knots"]),
                                                       tuple(fit.diagnostics["boundary"])))
        ll0 = loglik_derivs(design, np.zeros(design.n_params))[0]
        assert fit.diagnostics["loglik"] >= ll0
        assert fit.diagnostics["converged"]
        assert fit.diagnostics["score_max"] < 1e-6

    def test_ispl_product_equals_loglik(self, rng):
        # the individually-stratified partial likelihood, written directly
        sc = ScenarioSpec(n=1500, seed=29)
        ds, _ = simulate_cohort(sc)
        fit = fit_sieve_binary(ds, LINEAR)
        alpha_fn = fit.nuisance
        ll = 0.0
        for r in dataset_rows(ds):
            if r.cause == Cause.CENSORED:
                continue
            z = r.vax_time is not None and r.vax_time <= r.event_time
            f = fit.beta @ [1.0, r.event_time - r.vax_time] if z else 0.0
            eta = f + float(alpha_fn(r.event_time)[0])
            p = math.exp(eta) / (1 + math.exp(eta))
            ll += math.log(p if r.cause == Cause.PREVENTABLE else 1 - p)
        assert ll == pytest.approx(fit.diagnostics["loglik"], rel=1e-10)


def step_mixture():
    return VariantMix((0.25, 0.75), (1, 2), ((1.0, 0.0), (0.0, 1.0)))


class TestFitSieveMultinomial:
    def test_single_strain_degenerates_to_binary(self, small_cohort):
        _, ds, _ = small_cohort
        labeled = with_columns(ds, strain=np.where(ds.arrays()["cause"] == 1, 1, 0))
        mix = VariantMix((0.5,), (1,), ((1.0,),))
        multi = fit_sieve_multinomial(labeled, LINEAR, mix)
        binary = fit_sieve_binary(ds, LINEAR)
        assert np.allclose(multi.beta, binary.beta, atol=1e-8)
        assert np.allclose(multi.beta_cov, binary.beta_cov, atol=1e-8)

    def test_missing_strain_rejected(self, small_cohort):
        _, ds, _ = small_cohort
        with pytest.raises(VewaneError, match="impute"):
            fit_sieve_multinomial(ds, LINEAR, step_mixture())

    def test_zero_mixture_at_event_rejected(self):
        rows = [(f"p{i}", 0.0, 0.1 + 0.005 * i, Cause.PREVENTABLE, 2) for i in range(25)]
        rows += [(f"i{i}", None, 0.1 + 0.005 * i, Cause.IRRELEVANT) for i in range(25)]
        # strain-2 events all before 0.25 where p_2 = 0
        with pytest.raises(VewaneError, match="zero"):
            fit_sieve_multinomial(make_records(rows), LINEAR, step_mixture())

    def test_dead_strain_flagged_other_returned(self, small_cohort):
        _, ds, _ = small_cohort
        labeled = with_columns(ds, strain=np.where(ds.arrays()["cause"] == 1, 1, 0))
        mix = VariantMix((0.5,), (1, 2), ((0.6, 0.4),))
        fit = fit_sieve_multinomial(labeled, LINEAR, mix)
        assert fit.diagnostics["nonidentifiable_strains"] == [2]
        b1, _, _ = fit.strain_block(1)
        assert np.all(np.isfinite(b1))
        b2, _, _ = fit.strain_block(2)
        assert np.all(np.isnan(b2))
