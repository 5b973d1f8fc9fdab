"""Acceptance gate: every criterion at its pinned tolerance.

Each criterion prints one `[criterion N] PASS/FAIL` line (run with -s to see
them as they complete).  The replication targets are the published comparator
values this build is expected to reproduce at 200 replicates and n = 10,000.
"""

import itertools
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import kendalltau, norm

from vewane.bench import DEFAULT_GRID, preset_scenarios, run_scenario, summarize
from vewane.core import Cause, VEBasisSpec, eval_ve_basis, validate_dataset
from vewane.cox import cox_partial_loglik
from vewane.sieve import (
    FixedOffset,
    build_design,
    default_alpha_basis,
    fit_sieve_binary,
    loglik_derivs,
)
from vewane.simulate import (
    ScenarioSpec,
    cumulative_hazard,
    invert_cumulative_hazard,
    sample_latents,
    simulate_cohort,
    substream_seed,
    _rng,
)
from vewane.smoothing import BSplineBasis, bspline_eval, pava_isotonic
from vewane.surveillance import SurveillanceSeries, sda_tt2_offset, tt1_offset
from vewane.tmle import eic_values, fit_tmle_binary

from .conftest import dataset_rows, event_times, workers
from .oracles import finite_diff_gradient, finite_diff_jacobian, isotonic_by_partition, max_rel_err
from .test_multinomial_mc import simulate_two_strain, MIX as TWO_STRAIN_MIX

ACCEPT_SEED = 20260809
N_REPS = 200
# the coverage-table criteria compare against published values whose gap to our
# (near-nominal) calibration runs 1.5-2 points; at 200 reps the Monte-Carlo
# standard error (~1.25 points) on top of that makes a pinned-seed check turn
# on luck, so those two fixtures use more replicates and the same +-3.5 band
N_REPS_COVERAGE = 600
LINEAR = VEBasisSpec("linear")
Z95 = norm.ppf(0.975)

# replication targets: coverage percentages per (cell, estimator)
EXPECTED_COVERAGE = {
    "random-low-const": {"cox": 93.8, "sieve": 96.9, "tmle": 96.9},
    "random-high-const": {"cox": 38.2, "sieve": 95.7, "tmle": 95.7},
    "disinhibition-const": {"cox": 0.4, "sieve": 96.8, "tmle": 96.8},
    "vulnerable-const": {"cox": 0.5, "sieve": 96.2, "tmle": 96.3},
    "random-low-wane": {"cox": 93.8, "sieve": 95.3, "tmle": 95.4},
    "random-high-wane": {"cox": 53.7, "sieve": 94.0, "tmle": 94.1},
    "disinhibition-wane": {"cox": 0.5, "sieve": 96.1, "tmle": 96.1},
    "vulnerable-wane": {"cox": 0.4, "sieve": 95.0, "tmle": 95.0},
}
COVERAGE_TOL = 3.5

FOI_CELLS = ["foi-lam0.03-sig2-const", "foi-lam0.06-sig2-const", "foi-lam0.12-sig2-const"]


def _criterion(num: int, passed: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {num}: {detail}"


def _run_cells(cells, n_reps, estimators=("cox", "sieve", "tmle")):
    out = {}
    for name, scenario in cells:
        raw = run_scenario(scenario, estimators, n_reps, ACCEPT_SEED, workers())
        truth = {"beta_true": list(scenario.beta_true), "basis": scenario.ve_basis.to_dict()}
        out[name] = {
            "raw": raw,
            "truth": truth,
            "scenario": scenario,
            "summary": {r.estimator: r for r in summarize(raw, truth, scenario_name=name)},
        }
    return out


@pytest.fixture(scope="session")
def cover_cells():
    return _run_cells(preset_scenarios("table-cover"), N_REPS_COVERAGE)


@pytest.fixture(scope="session")
def foi_cells():
    cells = [c for c in preset_scenarios("table-foi") if c[0] in FOI_CELLS]
    return _run_cells(cells, N_REPS_COVERAGE)


class TestCriterion1Coverage:
    def test_sieve_tmle_match_targets(self, cover_cells):
        deltas = {}
        for name, cell in cover_cells.items():
            for est in ("sieve", "tmle"):
                got = cell["summary"][est].coverage
                deltas[f"{name}/{est}"] = got - EXPECTED_COVERAGE[name][est]
        worst = max(deltas, key=lambda k: abs(deltas[k]))
        detail = f"max |coverage - target| = {abs(deltas[worst]):.2f} at {worst} (tol {COVERAGE_TOL})"
        _criterion(1, all(abs(d) <= COVERAGE_TOL for d in deltas.values()), detail)

    def test_cox_failure_modes(self, cover_cells):
        checks = {}
        for name in ("disinhibition-const", "disinhibition-wane", "vulnerable-const", "vulnerable-wane"):
            checks[name] = cover_cells[name]["summary"]["cox"].coverage
        high = cover_cells["random-high-const"]["summary"]["cox"].coverage
        ok = all(v < 10.0 for v in checks.values()) and high < 55.0
        detail = (
            "cox coverage: "
            + ", ".join(f"{k}={v:.1f}" for k, v in checks.items())
            + f", random-high-const={high:.1f} (<10 / <55 required)"
        )
        _criterion(1, ok, detail)


class TestCriterion2MseOrdering:
    def test_cox_mse_dominates(self, cover_cells):
        ratios = {}
        for name in ("disinhibition-const", "disinhibition-wane", "vulnerable-const", "vulnerable-wane"):
            s = cover_cells[name]["summary"]
            ratios[name] = (s["cox"].mse / s["sieve"].mse, s["cox"].mse / s["tmle"].mse)
        ok = all(r[0] >= 5.0 and r[1] >= 5.0 for r in ratios.values())
        detail = "cox/slr MSE ratios: " + ", ".join(
            f"{k}=({a:.1f}x,{b:.1f}x)" for k, (a, b) in ratios.items()
        )
        _criterion(2, ok, detail)


class TestCriterion3ForceOfInfection:
    def test_cox_ordering_and_slr_floor(self, foi_cells):
        cox = [foi_cells[c]["summary"]["cox"].coverage for c in FOI_CELLS]
        slr_min = min(
            foi_cells[c]["summary"][est].coverage for c in FOI_CELLS for est in ("sieve", "tmle")
        )
        ok = cox[0] > cox[1] > cox[2] and slr_min >= 92.0
        detail = f"cox coverage {cox[0]:.1f} > {cox[1]:.1f} > {cox[2]:.1f}; min SLR {slr_min:.1f} (>=92)"
        _criterion(3, ok, detail)


def _small_event_heavy_dataset(seed):
    scenario = ScenarioSpec(
        n=int(120 + (seed % 5) * 20),
        lambda00=0.5,
        lambda01=0.8,
        sigma_u=1.0,
        beta_true=(-0.7, 0.4),
        seed=seed,
    )
    ds, _ = simulate_cohort(scenario)
    return ds


def _ispl_log_product(fit, dataset):
    """The individually-stratified partial likelihood, written from its formula."""
    total = 0.0
    alpha_fn = fit.nuisance
    for r in dataset_rows(dataset):
        if r.cause is Cause.CENSORED:
            continue
        z = r.vax_time is not None and r.vax_time <= r.event_time
        f = float(fit.beta @ [1.0, r.event_time - r.vax_time]) if z else 0.0
        eta = f + float(alpha_fn(r.event_time)[0])
        p = math.exp(eta) / (1.0 + math.exp(eta))
        total += math.log(p if r.cause is Cause.PREVENTABLE else 1.0 - p)
    return total


def _profiled_full_loglik(dataset, knots, boundary, theta):
    """Full-data likelihood with per-individual scalar baseline-hazard nuisances,
    each profiled out numerically by golden-section search on the log scale."""
    basis = BSplineBasis(3, knots, boundary)
    rows = [r for r in dataset_rows(dataset) if r.cause is not Cause.CENSORED]
    T = np.array([r.event_time for r in rows])
    z = np.array([r.vax_time is not None and r.vax_time <= r.event_time for r in rows])
    tau = np.array([r.event_time - r.vax_time if zz else 0.0 for r, zz in zip(rows, z)])
    j = np.array([1.0 if r.cause is Cause.PREVENTABLE else 0.0 for r in rows])
    beta, alpha = theta[:2], theta[2:]
    g = z * (eval_ve_basis(LINEAR, tau) @ beta) + bspline_eval(basis, T) @ alpha
    eg = np.exp(g)

    # J=1: ll(h) = log h + g - h (1 + e^g);  J=0: ll(h) = log h - h (1 + e^g)
    lo = np.full(len(rows), -25.0)
    hi = np.full(len(rows), 10.0)
    phi = (math.sqrt(5.0) - 1.0) / 2.0

    def value(log_h):
        h = np.exp(log_h)
        return j * g + log_h - h * (1.0 + eg)

    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = value(c), value(d)
    for _ in range(80):
        swap = fc < fd
        a = np.where(swap, c, a)
        b = np.where(~swap, d, b)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = value(c), value(d)
    return float(np.sum(np.maximum(fc, fd)))


class TestCriterion4LikelihoodEquivalence:
    def test_ispl_and_profile_equivalence(self):
        worst_rel = 0.0
        worst_beta = 0.0
        for k in range(50):
            ds = _small_event_heavy_dataset(substream_seed(ACCEPT_SEED + 4, k))
            events = event_times(ds)
            boundary = (float(events.min()), float(events.max()))
            knots = (float(np.median(events)),)
            basis = BSplineBasis(3, knots, boundary)
            fit = fit_sieve_binary(ds, LINEAR, alpha=basis)

            ispl = _ispl_log_product(fit, ds)
            rel = abs(ispl - fit.diagnostics["loglik"]) / abs(fit.diagnostics["loglik"])
            worst_rel = max(worst_rel, rel)

            dim = 2 + basis.dimension
            res = minimize(
                lambda th: -_profiled_full_loglik(ds, knots, boundary, th),
                np.zeros(dim),
                method="BFGS",
                options={"gtol": 1e-8, "maxiter": 400},
            )
            worst_beta = max(worst_beta, float(np.max(np.abs(res.x[:2] - fit.beta))))
        ok = worst_rel < 1e-10 and worst_beta < 1e-4
        _criterion(
            4,
            ok,
            f"ISPL vs logistic loglik max rel diff {worst_rel:.2e} (<1e-10); "
            f"profiled full-likelihood beta max diff {worst_beta:.2e} (<1e-4)",
        )


class TestCriterion5Derivatives:
    def test_finite_differences(self):
        worst = 0.0
        rng = np.random.default_rng(ACCEPT_SEED + 5)
        for k in range(34):  # binary sieve
            ds = _small_event_heavy_dataset(substream_seed(ACCEPT_SEED + 50, k))
            design = build_design(
                ds, LINEAR, default_alpha_basis(event_times(ds), knots=2),
            )
            theta = rng.normal(0, 0.3, design.n_params)
            _, grad, hess = loglik_derivs(design, theta)
            fd_g = finite_diff_gradient(lambda t: loglik_derivs(design, t)[0], theta)
            fd_h = finite_diff_jacobian(lambda t: loglik_derivs(design, t)[1], theta)
            worst = max(worst, max_rel_err(grad, fd_g), max_rel_err(hess, (fd_h + fd_h.T) / 2))
        for k in range(33):  # multinomial sieve
            ds = simulate_two_strain(substream_seed(ACCEPT_SEED + 51, k))
            head = {name: column[:1200] for name, column in ds.arrays().items()}
            sub = validate_dataset(dict(head, id=ds.ids[:1200]), ds.horizon)
            alpha = default_alpha_basis(event_times(sub), knots=2)
            design = build_design(sub, LINEAR, alpha, mixture=TWO_STRAIN_MIX)
            theta = rng.normal(0, 0.3, design.n_params)
            _, grad, hess = loglik_derivs(design, theta)
            fd_g = finite_diff_gradient(lambda t: loglik_derivs(design, t)[0], theta)
            fd_h = finite_diff_jacobian(lambda t: loglik_derivs(design, t)[1], theta)
            worst = max(worst, max_rel_err(grad, fd_g), max_rel_err(hess, (fd_h + fd_h.T) / 2))
        bases = [VEBasisSpec("constant"), LINEAR, VEBasisSpec("ramp", ramp_length=0.15)]
        for k in range(33):  # cox partial likelihood
            ds = _small_event_heavy_dataset(substream_seed(ACCEPT_SEED + 52, k))
            basis = bases[k % 3]
            beta = rng.normal(0, 0.4, basis.dimension)
            _, grad, hess = cox_partial_loglik(ds, basis, beta)
            fd_g = finite_diff_gradient(lambda b: cox_partial_loglik(ds, basis, b)[0], beta)
            fd_h = finite_diff_jacobian(lambda b: cox_partial_loglik(ds, basis, b)[1], beta)
            worst = max(worst, max_rel_err(grad, fd_g), max_rel_err(hess, (fd_h + fd_h.T) / 2))
        _criterion(5, worst < 1e-6, f"max relative derivative error {worst:.2e} (<1e-6)")


class TestCriterion6Targeting:
    def test_eic_means_on_presets(self):
        worst = 0.0
        worst_name = ""
        cells = (
            preset_scenarios("table-cover")
            + preset_scenarios("table-foi")
            + preset_scenarios("example-app")
        )
        for name, scenario in cells:
            ds, _ = simulate_cohort(
                ScenarioSpec(**{**scenario.to_dict(), "ve_basis": scenario.ve_basis,
                                "beta_true": scenario.beta_true,
                                "seed": substream_seed(ACCEPT_SEED, 0)})
            )
            fit = fit_tmle_binary(ds, scenario.ve_basis)
            eic = eic_values(fit, ds)
            m = float(np.max(np.abs(eic.mean(axis=0))))
            if m > worst:
                worst, worst_name = m, name
        _criterion(6, worst < 1e-5, f"max |EIC column mean| {worst:.2e} at {worst_name} (<1e-5)")

    def test_tmle_close_to_sieve(self, cover_cells):
        cell = cover_cells["random-low-const"]
        psi = eval_ve_basis(LINEAR, DEFAULT_GRID)
        diffs = []
        for rep in cell["raw"][:100]:
            bs = rep["fits"]["sieve"]
            bt = rep["fits"]["tmle"]
            if bs["error"] or bt["error"]:
                continue
            diffs.append(np.mean(np.abs(psi @ bs["beta"] - psi @ bt["beta"])))
        mean_diff = float(np.mean(diffs))
        _criterion(6, mean_diff < 0.05, f"mean |f_tmle - f_sieve| over grid {mean_diff:.4f} (<0.05)")


class TestCriterion7Smoothers:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(ACCEPT_SEED + 7)
        worst = 0.0
        draws = 0
        while draws < 10_000:
            degree = int(rng.integers(0, 4))
            k = int(rng.integers(0, 6))
            interior = tuple(np.unique(np.round(np.sort(rng.uniform(0.1, 0.9, k)), 3)))
            basis = BSplineBasis(degree, interior, (0.0, 1.0))
            t = rng.uniform(0, 1, 250)
            vals = bspline_eval(basis, t)
            worst = max(worst, float(np.max(np.abs(vals.sum(axis=1) - 1.0))))
            draws += t.size
        _criterion(7, worst < 1e-10, f"partition-of-unity max deviation {worst:.2e} (<1e-10)")

    def test_pava_exhaustive_grid(self):
        levels = np.array([-1.0, 0.0, 0.5, 2.0])
        worst = 0.0
        rng = np.random.default_rng(ACCEPT_SEED + 71)
        for n in range(1, 7):
            for values in itertools.product(range(len(levels)), repeat=n):
                y = levels[list(values)]
                got = pava_isotonic(y)
                want = isotonic_by_partition(y)
                worst = max(worst, float(np.max(np.abs(got - want))))
            # weighted spot checks at each length
            for _ in range(30):
                y = levels[rng.integers(0, len(levels), n)]
                w = rng.uniform(0.25, 4.0, n)
                worst = max(
                    worst,
                    float(np.max(np.abs(pava_isotonic(y, w) - isotonic_by_partition(y, w)))),
                )
        _criterion(7, worst < 1e-9, f"PAVA vs exhaustive projection max diff {worst:.2e} (<1e-9)")

    def test_monotonized_error_never_worse(self, cover_cells):
        # nondecreasing truth: every waning-VE replicate
        psi = eval_ve_basis(LINEAR, DEFAULT_GRID)
        violations = 0
        total = 0
        for name, cell in cover_cells.items():
            if not name.endswith("-wane"):
                continue
            f_true = psi @ np.asarray(cell["truth"]["beta_true"])
            for rep in cell["raw"]:
                fitrec = rep["fits"]["sieve"]
                if fitrec["error"]:
                    continue
                f_hat = psi @ fitrec["beta"]
                se = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", psi, fitrec["cov"], psi), 1e-12, None))
                total += 1
                mono_eq = pava_isotonic(f_hat)
                if np.mean((mono_eq - f_true) ** 2) > np.mean((f_hat - f_true) ** 2) + 1e-12:
                    violations += 1
                w = 1.0 / se**2
                mono_w = pava_isotonic(f_hat, w)
                if np.average((mono_w - f_true) ** 2, weights=w) > np.average(
                    (f_hat - f_true) ** 2, weights=w
                ) + 1e-12:
                    violations += 1
        _criterion(
            7, violations == 0, f"monotonized error never worse: {violations} violations in {total} replicates"
        )


def _bin_series(dataset, n_bins=26):
    arr = dataset.arrays()
    edges = np.linspace(0.0, 1.0, n_bins + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    d1 = np.histogram(arr["time"][arr["cause"] == 1], bins=edges)[0]
    d0 = np.histogram(arr["time"][arr["cause"] == 0], bins=edges)[0]
    return SurveillanceSeries(tuple(mids), tuple(int(x) for x in d1), tuple(int(x) for x in d0))


def _anchor_rep_tt1(seed):
    study_sc = ScenarioSpec(n=10_000, beta_true=(-1.0, 0.4), seed=seed)
    ext_sc = ScenarioSpec(n=100_000, vax_upper=1e9, seed=seed + 1)
    study, _ = simulate_cohort(study_sc)
    external, _ = simulate_cohort(ext_sc)
    offset = tt1_offset(_bin_series(external))
    fit = fit_sieve_binary(study, LINEAR, alpha=FixedOffset(offset=offset))
    se = np.sqrt(np.diag(fit.beta_cov))
    return np.abs(fit.beta - np.array(study_sc.beta_true)) <= Z95 * se


def _anchor_rep_sda(seed):
    base = dict(baseline_shape="constant", baseline_amplitude=0.0)
    study_sc = ScenarioSpec(n=10_000, beta_true=(-1.0, 0.4), seed=seed, **base)
    ext_sc = ScenarioSpec(n=100_000, vax_upper=1e9, seed=seed + 1, **base)
    study, _ = simulate_cohort(study_sc)
    external, _ = simulate_cohort(ext_sc)
    fn, wants_free = sda_tt2_offset(_bin_series(external))
    fit = fit_sieve_binary(study, LINEAR, alpha=FixedOffset(offset=fn, free_intercept=wants_free))
    se = np.sqrt(np.diag(fit.beta_cov))
    return np.abs(fit.beta - np.array(study_sc.beta_true)) <= Z95 * se


class TestCriterion8SurveillanceAnchoring:
    def test_tt1_anchored_coverage(self):
        seeds = [substream_seed(ACCEPT_SEED + 8, r) for r in range(N_REPS)]
        with ProcessPoolExecutor(max_workers=workers()) as pool:
            hits = np.array(list(pool.map(_anchor_rep_tt1, seeds, chunksize=8)))
        cov = 100.0 * hits.mean(axis=0)
        ok = bool(np.all(cov >= 90.0))
        _criterion(8, ok, f"TT1-anchored per-component beta coverage {np.round(cov, 1).tolist()} (>=90)")

    def test_sda_tt2_anchored_coverage(self):
        seeds = [substream_seed(ACCEPT_SEED + 80, r) for r in range(N_REPS)]
        with ProcessPoolExecutor(max_workers=workers()) as pool:
            hits = np.array(list(pool.map(_anchor_rep_sda, seeds, chunksize=8)))
        cov = 100.0 * hits.mean(axis=0)
        ok = bool(np.all(cov >= 90.0))
        _criterion(8, ok, f"SDA+TT2 per-component beta coverage {np.round(cov, 1).tolist()} (>=90)")


class TestCriterion9SimulationFidelity:
    def test_fidelity(self):
        sc = ScenarioSpec(n=100_000, seed=ACCEPT_SEED + 9)
        lat = sample_latents(sc, _rng(sc.seed))
        frac = float(lat.vaccinated.mean())
        frac_ok = abs(frac - 1 / 1.15) <= 0.01

        scv = ScenarioSpec(n=100_000, vax_law="vulnerable-first", seed=ACCEPT_SEED + 90)
        latv = sample_latents(scv, _rng(scv.seed))
        tau = kendalltau(latv.u_pre, latv.v_raw).statistic
        tau_want = (2 / math.pi) * math.asin(-0.7)
        tau_ok = abs(tau - tau_want) <= 0.02

        heavy = ScenarioSpec(n=20_000, sigma_u=2.0, lambda01=0.12,
                             beta_true=(-1.0, 1.0), seed=ACCEPT_SEED + 91)
        lat_h = sample_latents(heavy, _rng(heavy.seed))
        rng = np.random.default_rng(7)
        resid_max = 0.0
        for cause in (0, 1):
            e = rng.exponential(size=20_000) * 0.5 + 1e-6
            t = invert_cumulative_hazard(heavy, lat_h, cause, e)
            ok_rows = ~np.isnan(t)
            lam = cumulative_hazard(heavy, lat_h.take(ok_rows), cause, t[ok_rows])
            resid_max = max(resid_max, float(np.max(np.abs(lam - e[ok_rows]))))
        resid_ok = resid_max < 1e-10

        _criterion(
            9,
            frac_ok and tau_ok and resid_ok,
            f"vaccinated fraction {frac:.4f} (target {1/1.15:.4f} +-0.01); "
            f"Kendall tau {tau:.4f} (target {tau_want:.4f} +-0.02); "
            f"max inversion residual {resid_max:.2e} (<1e-10)",
        )
