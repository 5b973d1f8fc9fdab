"""The three benchmark workloads: set-up, one op, and the checks on an op's output.

Each op runs in the calling process from one closed-loop client.  A workload's
ops repeat a mix of `cycle` kinds (scenario cells or fit methods), and the timed
loop runs whole cycles, so every run sees the same mix.  Module functions are
looked up at call time (``vewane.cli.run``, not a bound ``run``) so the tracer's
patches see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np

import vewane.bench
import vewane.cli
import vewane.cox
import vewane.report
import vewane.sieve
import vewane.surveillance
import vewane.tmle
from vewane.core import FitResult, VEBasisSpec, write_events_csv
from vewane.simulate import ScenarioSpec, simulate_cohort, simulate_cohort_views, substream_seed

EIC_BOUND = 1e-5
BETA_TOL = 1e-6
WARM_UP_INDEX = 1_000_000  # op index of the untimed warm-up op, far from the timed ones


def fit_problems(label: str, beta, cov, converged: bool, eic_abs_mean=None) -> list[str]:
    """Why a fit cannot be trusted: not converged, non-finite beta or covariance,
    a covariance that is not PSD, or (TMLE) an EIC equation left unsolved."""
    beta = np.asarray(beta, dtype=float)
    cov = np.asarray(cov, dtype=float)
    problems = []
    if not converged:
        problems.append(f"{label}: not converged")
    if not np.all(np.isfinite(beta)):
        problems.append(f"{label}: non-finite beta")
    if not np.all(np.isfinite(cov)):
        problems.append(f"{label}: non-finite covariance")
    else:
        sym = (cov + cov.T) / 2
        if float(np.min(np.linalg.eigvalsh(sym))) < -1e-10 * max(1.0, float(np.max(np.abs(sym)))):
            problems.append(f"{label}: covariance is not positive semidefinite")
    if eic_abs_mean is not None and not eic_abs_mean < EIC_BOUND:
        problems.append(f"{label}: |mean EIC| {eic_abs_mean:.3g} >= {EIC_BOUND:g}")
    return problems


def beta_problems(betas: dict, expected: dict | None) -> list[str]:
    """Estimators whose beta differs from the committed reference, if there is one."""
    problems = []
    for est, ref in (expected or {}).items():
        got = np.asarray(betas.get(est, []), dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape or not np.allclose(got, ref, rtol=0.0, atol=BETA_TOL):
            problems.append(f"{est}: beta {got.tolist()} differs from reference {ref.tolist()}")
    return problems


class Replicate:
    """One replication-harness replicate per op, cycling the table-cover cells."""

    name = "replicate-10k"
    estimators = ("cox", "sieve", "tmle")
    reference_ops = 400  # more than one run reaches; later ops skip the beta comparison

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def build(self) -> None:
        cells = vewane.bench.preset_scenarios("table-cover")
        self.cells = [sc if not self.smoke else replace(sc, n=3000) for _, sc in cells]
        self.cycle = len(self.cells)

    def key(self, i: int) -> str:
        return str(i)

    def op(self, i: int):
        scenario = self.cells[i % self.cycle]
        return vewane.bench.run_scenario(scenario, self.estimators, n_reps=1, seed=self.seed + i, workers=1)[0]

    def check(self, i: int, out) -> tuple[dict, dict, list[str]]:
        """(beta per estimator, per-op counts, problems) of one op's output."""
        betas, problems = {}, []
        for est in self.estimators:
            fit = out["fits"][est]
            if fit["error"] is not None:
                problems.append(f"{est}: {fit['error']}")
                continue
            eic = fit["eic_abs_mean"] if est == "tmle" else None
            problems += fit_problems(est, fit["beta"], fit["cov"], fit["converged"], eic)
            betas[est] = np.asarray(fit["beta"]).tolist()
        return betas, {}, problems


class Analysis:
    """The analyst's CLI path on one large cohort: `fit` then `curve --monotone --mono-ci mc`."""

    name = "analysis-100k"
    methods = ("sieve", "tmle", "cox")
    cycle = reference_ops = len(methods)

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.n = 10_000 if smoke else 100_000

    def build(self) -> None:
        scenario = ScenarioSpec(n=self.n, beta_true=(-1.0, 1.0), seed=self.seed)
        dataset, _ = simulate_cohort(scenario)
        self.events = os.path.join(self.workdir, "events.csv")
        write_events_csv(dataset, self.events)

    def key(self, i: int) -> str:
        return self.methods[i % self.cycle]

    def _paths(self, i: int):
        return os.path.join(self.workdir, f"fit-{i}.json"), os.path.join(self.workdir, f"curve-{i}.csv")

    def op(self, i: int):
        method = self.methods[i % self.cycle]
        fit_path, curve_path = self._paths(i)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_fit = vewane.cli.run(["fit", "--method", method, "--events", self.events, "--out", fit_path])
            rc_curve = vewane.cli.run(
                ["curve", "--fit", fit_path, "--monotone", "--mono-ci", "mc", "--out", curve_path]
            )
        return rc_fit, rc_curve

    def check(self, i: int, out) -> tuple[dict, dict, list[str]]:
        method = self.methods[i % self.cycle]
        fit_path, curve_path = self._paths(i)
        if out != (0, 0):
            return {}, {}, [f"{method}: exit codes {out}"]
        fit_bytes = os.path.getsize(fit_path)
        with open(fit_path) as fh:
            fit = FitResult.from_dict(json.load(fh))
        diag = fit.diagnostics
        eic = diag["eic_abs_mean_max"] if method == "tmle" else None
        problems = fit_problems(method, fit.beta, fit.beta_cov, diag["converged"], eic)
        curve = vewane.report.read_curve(curve_path)
        columns = [curve.f_hat, curve.f_se, curve.ve, curve.ve_lo, curve.ve_hi]
        if not curve.has_monotone:
            problems.append(f"{method}: curve CSV lacks the monotone columns")
        else:
            columns += [curve.ve_mono, curve.ve_mono_lo, curve.ve_mono_hi]
            if np.any(np.diff(curve.ve_mono) > 0):
                problems.append(f"{method}: monotone VE curve increases")
        if curve.tau_grid.size < 2 or not all(np.all(np.isfinite(c)) for c in columns):
            problems.append(f"{method}: curve CSV is empty or holds a non-finite value")
        os.remove(fit_path)
        os.remove(curve_path)
        return {method: fit.beta.tolist()}, {"fit_json_bytes": fit_bytes}, problems


RAMP = VEBasisSpec("ramp", ramp_length=14 / 365)
STEP_MIX = vewane.surveillance.VariantMix((0.0, 0.5), (1, 2), ((1.0, 0.0), (0.4, 0.6)))


class NuisanceRamp:
    """Cox with the ramp basis, kernel-smoothed TMLE, and the two-strain sieve fit on 14-day-ramp cohorts.

    The two-strain fit is `fit_sieve_multinomial`, not `fit_tmle_multinomial`:
    the multinomial TMLE leaves its own EIC equation unsolved (|mean EIC| of
    0.01-0.2), so each of its fits fails the EIC check and no run could be
    correct.  The sieve fit loads the same multinomial likelihood and Newton
    solver; `test_perfbench.py` keeps the TMLE defect in view.

    Each op takes a fresh cohort. In about one cohort in twenty, `fit_cox_tv`
    spends 10-22 extra step-halving evaluations at convergence, which makes
    that op 2-3 times slower. Spread over many cohorts, such an op costs a run
    a few percent. Repeated over a few cohorts, it costs a third of the run.
    """

    name = "nuisance-ramp-10k"
    n_cohorts = reference_ops = 18  # more than one run at --seconds 30 reaches
    cycle = 1  # every op is the same kind of work

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.n = 3000 if smoke else 10_000

    def build(self) -> None:
        self.cohorts = []
        for k in range(self.n_cohorts):
            cohort_seed = substream_seed(self.seed, k)
            scenario = ScenarioSpec(n=self.n, ve_basis=RAMP, beta_true=(-0.3, -1.0, 1.0), seed=cohort_seed)
            first, followup, _ = simulate_cohort_views(scenario)
            first.arrays()
            followup.arrays()
            self.cohorts.append((first, followup, cohort_seed))

    def key(self, i: int) -> str:
        return str(i % self.n_cohorts)

    def op(self, i: int):
        first, followup, cohort_seed = self.cohorts[i % self.n_cohorts]
        cox = vewane.cox.fit_cox_tv(followup, RAMP)
        tmle = vewane.tmle.fit_tmle_binary(first, RAMP, smoother="kernel")
        labelled = vewane.surveillance.impute_strains(first, STEP_MIX, cohort_seed)
        multi = vewane.sieve.fit_sieve_multinomial(labelled, RAMP, STEP_MIX)
        return {"cox": cox, "tmle": tmle, "sieve-multinomial": multi}

    def check(self, i: int, out) -> tuple[dict, dict, list[str]]:
        betas, problems = {}, []
        for label, fit in out.items():
            diag = fit.diagnostics
            eic = diag["eic_abs_mean_max"] if label.startswith("tmle") else None
            problems += fit_problems(label, fit.beta, fit.beta_cov, diag["converged"], eic)
            betas[label] = fit.beta.tolist()
        return betas, {}, problems


WORKLOADS = {w.name: w for w in (Replicate, Analysis, NuisanceRamp)}
