import json

import numpy as np
import pytest

from vewane.core import Cause, FitResult, VEBasisSpec, VewaneError
from vewane.sieve import default_alpha_basis, fit_sieve_binary
from vewane.simulate import ScenarioSpec, simulate_cohort
from vewane import smoothing, tmle
from vewane.smoothing import KernelFn, _fitted_values, bspline_eval
from vewane.surveillance import VariantMix
from vewane.tmle import (
    eic_values,
    estimate_r,
    fit_tmle_binary,
    fit_tmle_multinomial,
)

from .conftest import make_records, with_columns
from .oracles import kernel_smooth_dense

LINEAR = VEBasisSpec("linear")
RAMP = VEBasisSpec("ramp", ramp_length=14 / 365)


class TestEstimateR:
    def test_constant_column_smooths_to_one(self, rng):
        T = np.sort(rng.uniform(0, 1, 300))
        vals = np.ones((300, 1))
        w = rng.uniform(0.1, 0.25, 300)
        for smoother in ("pspline", "kernel"):
            r = estimate_r(T, vals, w, smoother=smoother)[0]
            assert np.allclose(r(T), 1.0, atol=1e-8)

    def test_all_zero_columns_smooth_to_zero(self, rng):
        T = np.sort(rng.uniform(0, 1, 200))
        vals = np.zeros((200, 2))
        w = np.full(200, 0.2)
        for smoother in ("pspline", "kernel"):
            fns = estimate_r(T, vals, w, smoother=smoother)
            assert all(np.allclose(fn(T), 0.0, atol=1e-10) for fn in fns)

    def test_analytic_conditional_mean(self, rng):
        # V | T uniform on (0, T), everyone vaccinated: E[T - V | T] = T / 2
        n = 10_000
        T = rng.uniform(0.2, 1.0, n)
        V = T * rng.uniform(0, 1, n)
        tau = T - V
        w = np.full(n, 0.25)
        for smoother in ("pspline", "kernel"):
            r = estimate_r(T, tau[:, None], w, smoother=smoother)[0]
            grid = np.linspace(0.3, 0.9, 7)
            assert np.max(np.abs(r(grid) - grid / 2)) < 0.05

    def test_r_values_are_the_evaluated_fits(self, rng):
        # the GCV pass's B @ coef at T has the bits of fn(T), which rebuilds B
        T = rng.uniform(0.2, 1.3, 700)
        vals = np.column_stack([np.sin(3 * T), T**2, rng.normal(0, 1, 700)])
        w = rng.uniform(0.0, 0.25, 700)
        fns = estimate_r(T, vals, w)
        got = [_fitted_values(fn, T) for fn in fns]
        assert all(g.tobytes() == fn(T).tobytes() for g, fn in zip(got, fns))
        assert all(fn.to_dict() == smoothing.SplineFn(fn.basis, fn.coef, fn.gcv_lambda).to_dict() for fn in fns)
        for smoother in ("pspline", "kernel"):  # a second read, or a kernel fit, evaluates
            fn = estimate_r(T, vals[:, :1], w, smoother=smoother)[0]
            assert _fitted_values(fn, T).tobytes() == fn(T).tobytes()
            assert _fitted_values(fn, T).tobytes() == fn(T).tobytes()

    def test_fit_matches_evaluating_each_smooth(self, small_cohort, monkeypatch):
        _, ds, _ = small_cohort
        fast = fit_tmle_binary(ds, LINEAR)
        monkeypatch.setattr(tmle, "_fitted_values", lambda fn, x: fn(x))
        slow = fit_tmle_binary(ds, LINEAR)
        assert fast.beta.tobytes() == slow.beta.tobytes() and fast.beta_cov.tobytes() == slow.beta_cov.tobytes()
        assert fast.to_dict() == slow.to_dict()

    def test_fit_takes_the_gcv_values(self, small_cohort, monkeypatch):
        # each p-spline smooth the targeting loop reads at T is handed over, not rebuilt
        _, ds, _ = small_cohort
        taken = []

        def spy(fn, x):
            fitted = fn._fitted
            taken.append(fitted is not None and fitted[0] is x)
            return smoothing._fitted_values(fn, x)

        monkeypatch.setattr(tmle, "_fitted_values", spy)
        fit_tmle_binary(ds, LINEAR)
        assert taken and all(taken)

    def test_degenerate_weights_rejected(self):
        with pytest.raises(VewaneError):
            estimate_r(np.linspace(0, 1, 10), np.ones((10, 1)), np.zeros(10))


class TestFitTmleBinary:
    def test_pspline_targeting_noop_at_sieve(self, small_cohort):
        # r smoothed in the sieve's own span already solves the EIC equation
        _, ds, _ = small_cohort
        sieve = fit_sieve_binary(ds, LINEAR)
        tmle = fit_tmle_binary(ds, LINEAR, smoother="pspline")
        assert tmle.diagnostics["converged"]
        assert tmle.diagnostics["iterations"] == 1
        assert np.allclose(tmle.beta, sieve.beta, atol=1e-6)
        facts = tmle.diagnostics["smoother"]
        assert facts["kind"] == "pspline"
        assert len(facts["r"]) == LINEAR.dimension
        for spline in facts["r"] + [facts["alpha"]]:
            assert spline["knots"] >= 1 and spline["fallback"] is False
        assert all(r["gcv_lambda"] > 0 for r in facts["r"])
        assert json.loads(json.dumps(tmle.to_dict()))["diagnostics"]["smoother"] == facts

    def test_kernel_smoother_converges(self, small_cohort):
        _, ds, _ = small_cohort
        tmle = fit_tmle_binary(ds, LINEAR, smoother="kernel")
        assert tmle.diagnostics["converged"]
        assert tmle.diagnostics["eic_abs_mean_max"] < 1e-5
        facts = tmle.diagnostics["smoother"]
        assert facts["kind"] == "kernel" and facts["kernel"] == "epanechnikov"
        assert facts["bandwidth"] > 0 and "r" not in facts
        sieve = fit_sieve_binary(ds, LINEAR)
        assert np.allclose(tmle.beta, sieve.beta, atol=0.1)

    def test_eic_zero_mean_and_cov_identity(self, small_cohort):
        _, ds, _ = small_cohort
        fit = fit_tmle_binary(ds, LINEAR)
        eic = eic_values(fit, ds)
        assert np.max(np.abs(eic.mean(axis=0))) < 10 * fit.diagnostics["tol"]
        n = eic.shape[0]
        centered = eic - eic.mean(axis=0)
        want = centered.T @ centered / n**2
        assert np.allclose(want, fit.beta_cov, atol=1e-10)

    def test_kernel_fit_matches_dense_smoother(self, monkeypatch):
        ds, _ = simulate_cohort(ScenarioSpec(n=10_000, ve_basis=RAMP, beta_true=(-0.3, -1.0, 1.0), seed=7))
        fast = fit_tmle_binary(ds, RAMP, smoother="kernel")

        def dense(fn, t):
            return kernel_smooth_dense(fn.x, fn.y, fn.w, fn.kernel, fn.bandwidth, t)

        monkeypatch.setattr(KernelFn, "_eval", dense)
        slow = fit_tmle_binary(ds, RAMP, smoother="kernel")
        assert fast.diagnostics["converged"] and slow.diagnostics["converged"]
        assert fast.diagnostics["iterations"] == slow.diagnostics["iterations"]
        assert np.max(np.abs(fast.beta - slow.beta)) < 1e-10
        assert np.max(np.abs(fast.beta_cov - slow.beta_cov)) < 1e-10

    def test_eic_values_reads_older_fit_json(self, small_cohort):
        # older fits also stored r_fns, the clever covariates H and q_final
        _, ds, _ = small_cohort
        fit = fit_tmle_binary(ds, LINEAR)
        old = json.loads(json.dumps(fit.to_dict()))
        n, d = fit.nuisance.score_rows.shape
        old["nuisance"].update(
            r_fns=[[{"smooth_fn": "constant", "value": 0.25}] * d],
            H=np.ones((n, d)).tolist(),
            q_final=np.full((n, 1), 0.5).tolist(),
        )
        new = json.loads(json.dumps(fit.to_dict()))
        assert sorted(new["nuisance"]) == ["alpha", "free", "info_eff", "score_rows", "tmle_nuisance", "y"]
        want = eic_values(FitResult.from_dict(new), ds)
        assert np.array_equal(eic_values(FitResult.from_dict(old), ds), want)
        assert np.array_equal(eic_values(fit, ds), want)

    def test_eic_requires_matching_dataset(self, small_cohort):
        _, ds, _ = small_cohort
        fit = fit_sieve_binary(ds, LINEAR)
        with pytest.raises(VewaneError):
            eic_values(fit, ds)
        tfit = fit_tmle_binary(ds, LINEAR)
        other, _ = simulate_cohort(ScenarioSpec(n=4000, seed=1234))
        with pytest.raises(VewaneError):
            eic_values(tfit, other)

    def test_small_sample_guard(self):
        rows = [(f"p{i}", 0.01 * i, 0.1 + 0.01 * i, Cause.PREVENTABLE) for i in range(20)]
        rows += [(f"i{i}", None, 0.1 + 0.01 * i, Cause.IRRELEVANT) for i in range(20)]
        with pytest.raises(VewaneError, match="50"):
            fit_tmle_binary(make_records(rows), LINEAR)

    def test_score_orthogonal_to_calendar_splines(self, small_cohort):
        # the EIC direction H (J - p), i.e. the EIC up to its scaling matrix,
        # has vanishing covariance with any spline function of calendar time
        _, ds, _ = small_cohort
        fit = fit_tmle_binary(ds, LINEAR)
        scores = fit.nuisance.score_rows
        arr = ds.arrays()
        T = arr["time"][arr["cause"] >= 0]
        basis = default_alpha_basis(T, knots=4)
        phi = bspline_eval(basis, T)
        n = T.size
        for j in range(phi.shape[1]):
            g = phi[:, j] - phi[:, j].mean()
            for col in range(scores.shape[1]):
                cov = float(np.mean(scores[:, col] * g))
                assert abs(cov) < 5 / np.sqrt(n)

    def test_info_eff_close_to_sieve_information(self, small_cohort):
        _, ds, _ = small_cohort
        sieve = fit_sieve_binary(ds, LINEAR)
        tmle = fit_tmle_binary(ds, LINEAR)
        n = tmle.diagnostics["n_rows"]
        sigma_sieve = np.linalg.inv(sieve.beta_cov) / n
        sigma_tmle = tmle.nuisance.info_eff
        rel = np.linalg.norm(sigma_tmle - sigma_sieve) / np.linalg.norm(sigma_sieve)
        assert rel < 0.15

    def test_positivity_rarely_binds(self):
        from vewane.bench import preset_scenarios

        for name, sc in preset_scenarios("table-cover"):
            ds, _ = simulate_cohort(sc)
            fit = fit_tmle_binary(ds, LINEAR)
            assert fit.diagnostics["truncated_fraction_max"] < 0.001, name


def labeled_single_strain(ds):
    return with_columns(ds, strain=np.where(ds.arrays()["cause"] == 1, 1, 0))


class TestFitTmleMultinomial:
    def test_single_strain_matches_binary_kernel(self, small_cohort):
        _, ds, _ = small_cohort
        mix = VariantMix((0.5,), (1,), ((1.0,),))
        multi = fit_tmle_multinomial(labeled_single_strain(ds), LINEAR, mix, smoother="kernel")
        binary = fit_tmle_binary(ds, LINEAR, smoother="kernel")
        assert np.allclose(multi.beta, binary.beta, atol=1e-6)

    def test_dead_strain_other_block_returned(self, small_cohort):
        _, ds, _ = small_cohort
        mix = VariantMix((0.5,), (1, 2), ((0.6, 0.4),))
        fit = fit_tmle_multinomial(labeled_single_strain(ds), LINEAR, mix)
        assert fit.diagnostics["nonidentifiable_strains"] == [2]
        b1, c1, _ = fit.strain_block(1)
        assert np.all(np.isfinite(b1)) and np.all(np.isfinite(c1))
        b2, _, _ = fit.strain_block(2)
        assert np.all(np.isnan(b2))
