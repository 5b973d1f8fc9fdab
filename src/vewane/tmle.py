"""Targeted maximum likelihood estimation of the VE parameters.

Starting from the sieve MLE, each iteration re-estimates the conditional-mean
nuisance r(t), forms the clever covariate H = Z psi(tau) - r(T), fluctuates the
fitted probabilities along H via an offset (multinomial) logistic regression,
and profile-re-smooths alpha(t).  The final targeted probabilities solve the
efficient-influence-curve equation to solver precision; the covariance is the
n-scaled empirical covariance of the estimated EIC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp, logit

from .core import (
    Dataset,
    FitResult,
    NonIdentifiableError,
    VEBasisSpec,
    VewaneError,
)
from .sieve import (
    SieveDesign,
    _alpha_fn,
    _block_slices,
    _free_parameters,
    _resolve_alpha,
    build_design,
    class_probs,
    fit_design_theta,
    logistic_derivs,
    newton,
)
from .smoothing import (
    BSplineBasis,
    SmoothFn,
    SplineFn,
    _fitted_values,
    kernel_smooth,
    silverman_bandwidth,
    weighted_spline_smooth,
)

POSITIVITY_DELTA = 1e-6
DEGENERATE_WEIGHT = 1e-12
FLUCTUATION_SCORE_TOL = 1e-11
FLUCTUATION_MAX_ITER = 60


@dataclass
class TmleNuisance:
    """What `eic_values` needs of the targeted fit: the efficient score rows and
    information, and the class codes that pair the fit with its dataset."""

    alpha_fn: SmoothFn
    score_rows: np.ndarray  # (n, D) efficient score at the targeted fit
    info_eff: np.ndarray  # (D, D) derivation-form efficient information
    y: np.ndarray  # class codes, used to check fit/dataset pairing
    free: np.ndarray  # identifiable beta coordinates

    def to_dict(self) -> dict:
        return {
            "tmle_nuisance": True,
            "alpha": self.alpha_fn.to_dict(),
            "score_rows": self.score_rows.tolist(),
            "info_eff": self.info_eff.tolist(),
            "y": self.y.tolist(),
            "free": self.free.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "TmleNuisance":
        """Also reads older fits, whose r_fns, H and q_final entries it skips."""
        from .smoothing import smooth_fn_from_dict

        return TmleNuisance(
            alpha_fn=smooth_fn_from_dict(d["alpha"]),
            score_rows=np.asarray(d["score_rows"]),
            info_eff=np.asarray(d["info_eff"]),
            y=np.asarray(d["y"]),
            free=np.asarray(d["free"], dtype=bool),
        )


def estimate_r(
    T,
    values,
    weights,
    smoother: str = "pspline",
    kernel: str = "epanechnikov",
    bandwidth=None,
    n_knots=None,
) -> list[SmoothFn]:
    """Weighted smooth of each column of `values` against T.

    Using the same weights in numerator and denominator enforces the ratio form
    E[value * w | T] / E[w | T].
    """
    values = np.atleast_2d(np.asarray(values, dtype=float).T).T
    weights = np.asarray(weights, dtype=float)
    if np.max(weights) < DEGENERATE_WEIGHT:
        raise VewaneError("degenerate probability weights: nothing to smooth")
    if smoother == "pspline":
        return weighted_spline_smooth(T, values, weights, n_knots=n_knots)
    if smoother == "kernel":
        return [kernel_smooth(T, col, weights, kernel=kernel, bandwidth=bandwidth) for col in values.T]
    raise ValueError(f"unknown smoother {smoother!r}")


def _fluctuation_fit(eta: np.ndarray, H_blocks: list[np.ndarray], y: np.ndarray, free: np.ndarray):
    """Offset (multinomial) logistic regression of the class labels on the clever
    covariates, with the current predictors as offsets; returns the stacked
    fluctuation coefficients and the log-likelihood at them."""
    no_shared = np.zeros((eta.shape[0], 0))
    fit = newton(
        lambda e: logistic_derivs(y, H_blocks, no_shared, eta, e),
        np.zeros(sum(h.shape[1] for h in H_blocks)),
        free,
        max_iter=FLUCTUATION_MAX_ITER,
        score_tol=FLUCTUATION_SCORE_TOL,
    )
    return fit.theta, fit.loglik


def _efficient_scores(design: SieveDesign, Q: np.ndarray, r_vals: list[np.ndarray]):
    """Per-row efficient score S and the derivation-form information P_n[E(SS'|V,T)].

    S_s = Z psi_s (Y_s - Q_s) - r_s(T) (J - Q);  the conditional second moment
    uses Cov(Y_s, Y_r | V, T) = Q_s (1{s=r} - Q_r).
    """
    n, m = Q.shape
    dims = design.d_blocks
    D = sum(dims)
    slices = _block_slices(dims)
    qtot = Q.sum(axis=1)
    J = (design.y > 0).astype(float)

    S = np.zeros((n, D))
    for k in range(m):
        yk = (design.y == k + 1).astype(float)
        S[:, slices[k]] = design.X_ve[k] * (yk - Q[:, k])[:, None] - r_vals[k] * (J - qtot)[:, None]

    info = np.zeros((D, D))
    u = np.zeros((n, D))  # sum_s Q_s G_s rows
    v = np.zeros((n, D))  # sum_s Q_s (1 - Q) G_s rows
    a = np.zeros((n, D))  # stacked r_s(T)
    for k in range(m):
        Gk = design.X_ve[k]
        info[slices[k], slices[k]] += (Gk.T * Q[:, k]) @ Gk
        u[:, slices[k]] = Q[:, k][:, None] * Gk
        v[:, slices[k]] = (Q[:, k] * (1.0 - qtot))[:, None] * Gk
        a[:, slices[k]] = r_vals[k]
    info -= u.T @ u
    info -= v.T @ a + a.T @ v
    info += (a.T * (qtot * (1.0 - qtot))) @ a
    return S, info / n


def _smoother_facts(smoother, kernel, bandwidth, r_fns, alpha_fn) -> dict:
    """The nuisance smoothers of the last targeting iteration: the kernel and its
    bandwidth, or per r component (in beta order) the spline's interior-knot
    count, GCV lambda and mean fallback; the same for a spline alpha."""

    def spline(fn):
        if not isinstance(fn, SplineFn):
            return None
        lam = None if fn.gcv_lambda is None else float(fn.gcv_lambda)
        return {"knots": len(fn.basis.interior_knots), "gcv_lambda": lam, "fallback": bool(fn.fallback)}

    facts = {"kind": smoother}
    if smoother == "kernel":
        facts.update(kernel=kernel, bandwidth=float(bandwidth))
    else:
        facts["r"] = [spline(fn) for block in r_fns for fn in block]
    facts["alpha"] = spline(alpha_fn)
    return facts


def _tmle_engine(
    design: SieveDesign,
    theta0: np.ndarray,
    free: np.ndarray,
    smoother: str,
    kernel: str,
    bandwidth,
    tol: float,
    max_iter: int,
    delta: float,
    update_alpha: bool,
    alpha_fn0: SmoothFn,
):
    m = design.n_classes
    dims = design.d_blocks
    D = sum(dims)
    slices = _block_slices(dims)
    T = design.T
    y = design.y
    betas = [theta0[s].copy() for s in slices]
    c_vec = design.X_alpha @ theta0[D:] if design.X_alpha.shape[1] else np.zeros(design.n_rows)
    alpha_fn = alpha_fn0

    if bandwidth is None and smoother == "kernel":
        bandwidth = silverman_bandwidth(T)

    def predictors():
        eta = np.empty((design.n_rows, m))
        for k in range(m):
            eta[:, k] = design.X_ve[k] @ betas[k] + c_vec + design.offsets[:, k]
        return eta

    truncated_max = 0
    eps_norm = np.inf
    converged = False
    iterations = 0
    eta = predictors()
    for it in range(1, max_iter + 1):
        iterations = it
        Q = class_probs(eta)[0]
        qtot = Q.sum(axis=1)
        clipped = np.clip(qtot, delta, 1.0 - delta)
        truncated_max = max(truncated_max, int(np.sum(clipped != qtot)))
        b = clipped * (1.0 - clipped)
        if np.max(b) < DEGENERATE_WEIGHT:
            raise VewaneError("degenerate probability weights")

        r_fns, r_vals, H_blocks = [], [], []
        with np.errstate(invalid="ignore"):
            ratio = np.where(b > 0, 1.0 / b, 0.0)
        for k in range(m):
            scale = (Q[:, k] * (1.0 - qtot)) * ratio
            vals = design.X_ve[k] * scale[:, None]
            fns = estimate_r(T, vals, b, smoother, kernel, bandwidth)
            rv = np.column_stack([_fitted_values(fn, T) for fn in fns])
            r_fns.append(fns)
            r_vals.append(rv)
            H_blocks.append(design.X_ve[k] - rv)

        eps, loglik = _fluctuation_fit(eta, H_blocks, y, free)
        eps_norm = float(np.max(np.abs(eps))) if eps.size else 0.0
        eta_star = eta.copy()
        for k in range(m):
            betas[k] = betas[k] + eps[slices[k]]
            eta_star[:, k] += H_blocks[k] @ eps[slices[k]]
        q_star = class_probs(eta_star)[0]

        if eps_norm < tol:
            converged = True
            Q_final, r_vals_final, r_fns_final = q_star, r_vals, r_fns
            break

        if update_alpha:
            # profile update: shift alpha so the total-preventable odds match the
            # fluctuated fit, then re-smooth over calendar time
            qs_tot = np.clip(q_star.sum(axis=1), delta, 1.0 - delta)
            eta_beta = np.empty_like(eta)
            for k in range(m):
                eta_beta[:, k] = design.X_ve[k] @ betas[k] + design.offsets[:, k]
            log_denom = logsumexp(eta_beta, axis=1)
            target = logit(qs_tot) - log_denom
            w_star = qs_tot * (1.0 - qs_tot)
            fn = weighted_spline_smooth(T, target, w_star)
            alpha_fn = fn
            c_vec = _fitted_values(fn, T)
        eta = predictors()
        Q_final, r_vals_final, r_fns_final = q_star, r_vals, r_fns

    S, info = _efficient_scores(design, Q_final, r_vals_final)
    info_free = info[np.ix_(free, free)]
    if info_free.size and np.linalg.cond(info_free) > 1e12:
        raise NonIdentifiableError("singular efficient information")
    eic = np.full((design.n_rows, D), np.nan)
    beta_cov = np.full((D, D), np.nan)
    if info_free.size:
        eic_free = S[:, free] @ np.linalg.inv(info_free)
        eic[:, free] = eic_free
        centered = eic_free - eic_free.mean(axis=0)
        beta_cov[np.ix_(free, free)] = (centered.T @ centered) / design.n_rows**2

    return {
        "beta": np.concatenate(betas) if betas else np.zeros(0),
        "beta_cov": beta_cov,
        "eic": eic,
        "score_rows": S,
        "info_eff": info,
        "free": free,
        "smoother": _smoother_facts(smoother, kernel, bandwidth, r_fns_final, alpha_fn),
        "alpha_fn": alpha_fn,
        "iterations": iterations,
        "loglik": loglik,
        "last_eps_norm": eps_norm,
        "converged": converged,
        "truncated_rows_max": truncated_max,
    }


def _finish_fit(design, engine, init_iterations, tol):
    eic_free = engine["eic"][:, engine["free"]]
    diag = {
        "iterations": engine["iterations"],
        "final_update_norm": engine["last_eps_norm"],
        "loglik": engine["loglik"],
        "converged": engine["converged"],
        "n_rows": design.n_rows,
        "n_dropped_censored": design.n_dropped_censored,
        "tol": tol,
        "truncated_rows_max": engine["truncated_rows_max"],
        "truncated_fraction_max": engine["truncated_rows_max"] / design.n_rows,
        "eic_abs_mean_max": float(np.max(np.abs(eic_free.mean(axis=0)))) if eic_free.size else 0.0,
        "init_iterations": init_iterations,
        "smoother": engine["smoother"],
    }
    nuis = TmleNuisance(
        alpha_fn=engine["alpha_fn"],
        score_rows=engine["score_rows"],
        info_eff=engine["info_eff"],
        y=design.y,
        free=engine["free"],
    )
    return diag, nuis


def _fit_tmle(
    dataset, ve_basis, mixture, smoother, kernel, bandwidth, knots, alpha, offset, tol, max_iter, delta, knot_placement
) -> FitResult:
    """Targeting of the m-class model from its sieve MLE; mixture=None is the
    binary model (m = 1)."""
    alpha_struct = _resolve_alpha(dataset, alpha, knots, knot_placement)
    design = build_design(dataset, ve_basis, alpha_struct, mixture=mixture, extra_offset=offset)
    free_theta, dead = _free_parameters(design)
    if design.n_rows < 50:
        raise VewaneError(f"targeting needs at least 50 events, got {design.n_rows}")
    free_beta = free_theta[: design.d_total]

    init = fit_design_theta(design, free_theta)
    engine = _tmle_engine(
        design,
        init.theta,
        free_beta,
        smoother,
        kernel,
        bandwidth,
        tol,
        max_iter,
        delta,
        update_alpha=isinstance(design.alpha, BSplineBasis),
        alpha_fn0=_alpha_fn(design, init.theta),
    )
    beta = np.where(free_beta, engine["beta"], np.nan)
    diag, nuis = _finish_fit(design, engine, init.iterations, tol)
    common = dict(beta=beta, beta_cov=engine["beta_cov"], nuisance=nuis, diagnostics=diag)
    if mixture is None:
        return FitResult(method="tmle", basis=ve_basis, **common)
    diag["nonidentifiable_strains"] = [design.strains[k] for k in dead]
    return FitResult(method="tmle-multinomial", basis=list(design.ve_basis), strains=design.strains, **common)


def fit_tmle_binary(
    dataset: Dataset,
    ve_basis: VEBasisSpec,
    smoother: str = "pspline",
    kernel: str = "epanechnikov",
    bandwidth=None,
    knots=None,
    alpha="spline",
    offset: SmoothFn | None = None,
    tol: float = 1e-6,
    max_iter: int = 50,
    delta: float = POSITIVITY_DELTA,
    knot_placement: str = "quantile",
) -> FitResult:
    """Iterative targeting of the binary VE model initialized at the sieve MLE:
    the one-strain case of `fit_tmle_multinomial`."""
    return _fit_tmle(
        dataset, ve_basis, None, smoother, kernel, bandwidth, knots, alpha, offset, tol, max_iter, delta,
        knot_placement,
    )


def fit_tmle_multinomial(
    dataset: Dataset,
    ve_bases,
    mixture,
    kernel: str = "epanechnikov",
    bandwidth=None,
    smoother: str = "kernel",
    knots=None,
    alpha="spline",
    offset: SmoothFn | None = None,
    tol: float = 1e-6,
    max_iter: int = 50,
    delta: float = POSITIVITY_DELTA,
    knot_placement: str = "quantile",
) -> FitResult:
    """Per-strain targeting with NW kernel nuisance estimates and class offsets log p_s(t)."""
    return _fit_tmle(
        dataset, ve_bases, mixture, smoother, kernel, bandwidth, knots, alpha, offset, tol, max_iter, delta,
        knot_placement,
    )


def eic_values(fit: FitResult, dataset: Dataset) -> np.ndarray:
    """Per-observation efficient influence curve rows of a TMLE fit on its dataset."""
    if not fit.method.startswith("tmle"):
        raise VewaneError(f"eic_values needs a TMLE fit, got method {fit.method!r}")
    nuis = fit.nuisance
    if isinstance(nuis, dict):
        nuis = TmleNuisance.from_dict(nuis)
    if not isinstance(nuis, TmleNuisance):
        raise VewaneError("fit carries no TMLE nuisance state")
    arr = dataset.arrays()
    cause = arr["cause"][arr["cause"] >= 0]
    if cause.shape[0] != nuis.y.shape[0]:
        raise VewaneError("dataset does not match the fitted rows")
    j_data = (cause == 1).astype(np.int64)
    j_fit = (nuis.y > 0).astype(np.int64)
    if not np.array_equal(j_data, j_fit):
        raise VewaneError("dataset does not match the fitted rows")
    out = np.full(nuis.score_rows.shape, np.nan)
    free = nuis.free
    info_free = nuis.info_eff[np.ix_(free, free)]
    out[:, free] = nuis.score_rows[:, free] @ np.linalg.inv(info_free)
    return out
