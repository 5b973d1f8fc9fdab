"""Maximum likelihood for the semiparametric logistic VE model with a B-spline sieve.

Only infected participants contribute; each row is a Bernoulli (or categorical)
contrast between the preventable and irrelevant cause with linear predictor
Z * beta' psi(T-V) + alpha(T), where alpha is a spline expansion, a free scalar,
or a fixed surveillance-derived offset.  The binary model is the one-strain
case of the m-class model; its likelihood (`logistic_derivs`) and the Newton
solver (`newton`) also serve the TMLE fluctuation and the Cox fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FitResult,
    NonIdentifiableError,
    NotConvergedError,
    OnlyOneCauseError,
    VEBasisSpec,
    VewaneError,
    eval_ve_basis,
)
from .smoothing import (
    BSplineBasis,
    ConstantFn,
    SmoothFn,
    SumFn,
    bspline_eval,
    knot_rule,
    place_knots,
)

_LOG_ZERO = -700.0  # exp() underflows to exactly 0.0 below this
SEPARATION_BOUND = 30.0
CONDITION_BOUND = 1e12
SCORE_TOL = 1e-8
LOGLIK_TOL = 1e-10
LOGLIK_ROUNDING = 16 * np.finfo(float).eps  # relative rounding error of a log-likelihood sum
MAX_ITER = 100


@dataclass(frozen=True)
class FixedOffset:
    """alpha(t) pinned to a known function, optionally plus a free scalar intercept."""

    offset: SmoothFn | None = None
    free_intercept: bool = False
    fixed_value: float = 0.0


@dataclass
class SieveDesign:
    y: np.ndarray  # 0 = irrelevant, 1..m = preventable (strain code)
    X_ve: list[np.ndarray]  # per strain block of Z * psi_s(tau) columns
    X_alpha: np.ndarray  # spline columns, a lone intercept column, or empty
    offsets: np.ndarray  # (n, m) fixed per-class offsets
    T: np.ndarray
    ve_basis: VEBasisSpec | list[VEBasisSpec] | None
    alpha: BSplineBasis | FixedOffset
    strains: list[int] | None
    n_dropped_censored: int

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    @property
    def n_classes(self) -> int:
        return self.offsets.shape[1]

    @property
    def d_blocks(self) -> list[int]:
        return [x.shape[1] for x in self.X_ve]

    @property
    def d_total(self) -> int:
        return sum(self.d_blocks)

    @property
    def n_params(self) -> int:
        return self.d_total + self.X_alpha.shape[1]


def _infected_arrays(dataset: Dataset):
    arr = dataset.arrays()
    keep = arr["cause"] >= 0
    n_dropped = int((~keep).sum())
    T = arr["time"][keep]
    vax = arr["vax"][keep]
    Z = np.where(np.isnan(vax), False, vax <= T)
    tau = np.where(Z, T - np.where(np.isnan(vax), 0.0, vax), 0.0)
    return T, Z.astype(float), tau, arr["cause"][keep], arr["strain"][keep], n_dropped


def default_alpha_basis(
    event_times: np.ndarray,
    knots: int | None = None,
    placement: str = "quantile",
    degree: int = 3,
) -> BSplineBasis:
    """Cubic spline over the event-time range, K = floor(n**(1/3.5)) quantile knots."""
    lo, hi = float(event_times.min()), float(event_times.max())
    k = knot_rule(len(event_times)) if knots is None else int(knots)
    if k < 0:
        raise VewaneError(f"knots must be >= 0, got {knots}")
    return BSplineBasis(degree, place_knots(event_times, k, (lo, hi), placement), (lo, hi))


def build_design(
    dataset: Dataset,
    ve_basis: VEBasisSpec | list[VEBasisSpec] | None,
    alpha: BSplineBasis | FixedOffset,
    mixture=None,
    extra_offset: SmoothFn | None = None,
) -> SieveDesign:
    """Rows for every infected participant; censored records are dropped and counted."""
    T, Z, tau, cause, strain, n_dropped = _infected_arrays(dataset)
    if T.size == 0:
        raise VewaneError("no infected participants")

    if mixture is None:
        strains = None
        y = (cause == 1).astype(np.int64)
        bases = [ve_basis] if ve_basis is not None else []
    else:
        strains = list(mixture.strains)
        y = np.zeros(T.size, dtype=np.int64)
        prevent = cause == 1
        if np.any(prevent & (strain == 0)):
            raise VewaneError("strain label missing on a preventable record; impute first")
        for k, s in enumerate(strains, start=1):
            y[prevent & (strain == s)] = k
        unknown = prevent & (y == 0)
        if np.any(unknown):
            bad = set(strain[unknown].tolist())
            raise VewaneError(f"strain labels {sorted(bad)} not present in the mixture")
        if isinstance(ve_basis, VEBasisSpec) or ve_basis is None:
            bases = [ve_basis or VEBasisSpec("linear")] * len(strains)
        else:
            bases = list(ve_basis)
            if len(bases) != len(strains):
                raise VewaneError("need one VE basis per strain")

    X_ve = [Z[:, None] * eval_ve_basis(b, tau) for b in bases] if bases else [np.zeros((T.size, 0))]

    if isinstance(alpha, BSplineBasis):
        lo, hi = alpha.boundary
        if T.min() < lo or T.max() > hi:
            raise VewaneError("event time outside spline boundary")
        X_alpha = bspline_eval(alpha, T)
        base_offset = np.zeros(T.size)
    elif isinstance(alpha, FixedOffset):
        X_alpha = np.ones((T.size, 1)) if alpha.free_intercept else np.zeros((T.size, 0))
        base_offset = np.full(T.size, alpha.fixed_value)
        if alpha.offset is not None:
            base_offset = base_offset + alpha.offset(T)
    else:
        raise TypeError("alpha must be a BSplineBasis or FixedOffset")
    if extra_offset is not None:
        base_offset = base_offset + extra_offset(T)

    n_classes = 1 if mixture is None else len(strains)
    offsets = np.tile(base_offset[:, None], (1, n_classes))
    if mixture is not None:
        for k, s in enumerate(strains):
            p = mixture.proportions_at(T, s)
            rows_s = y == k + 1
            if np.any(p[rows_s] <= 0):
                raise VewaneError(f"mixture proportion is zero at an observed strain-{s} event")
            offsets[:, k] += np.where(p > 0, np.log(np.maximum(p, 1e-320)), _LOG_ZERO)

    if not np.all(np.isfinite(np.concatenate([x.ravel() for x in X_ve] + [offsets.ravel()]))):
        raise VewaneError("non-finite covariate or offset values")

    return SieveDesign(
        y=y,
        X_ve=X_ve,
        X_alpha=X_alpha,
        offsets=offsets,
        T=T,
        ve_basis=ve_basis if mixture is None else bases,
        alpha=alpha,
        strains=strains,
        n_dropped_censored=n_dropped,
    )


def _block_slices(dims: list[int]) -> list[slice]:
    out, pos = [], 0
    for d in dims:
        out.append(slice(pos, pos + d))
        pos += d
    return out


def _class_predictors(X_blocks, X_shared, offsets, theta) -> np.ndarray:
    """(n, m) per-class predictors X_k beta_k + X_shared alpha + offsets[:, k]."""
    dims = [X.shape[1] for X in X_blocks]
    eta = offsets.copy()
    if X_shared.shape[1]:
        eta += (X_shared @ theta[sum(dims) :])[:, None]
    for k, (X, s) in enumerate(zip(X_blocks, _block_slices(dims))):
        if X.shape[1]:
            eta[:, k] += X @ theta[s]
    return eta


def class_probs(eta: np.ndarray):
    """Class probabilities Q (n, m) against the baseline class 0 (predictor 0),
    and the log normalizer log(1 + sum_k exp(eta_k)) per row."""
    lse = np.zeros(eta.shape[0])
    for k in range(eta.shape[1]):
        lse = np.logaddexp(lse, eta[:, k])
    return np.exp(eta - lse[:, None]), lse


def logistic_derivs(y, X_blocks, X_shared, offsets, theta):
    """Log-likelihood, score and hessian of the m-class logistic model.

    Class 0 is the baseline with predictor 0; class k = 1..m has predictor
    X_blocks[k-1] beta_k + X_shared alpha + offsets[:, k-1], and theta stacks
    (beta_1, ..., beta_m, alpha).  With m = 1 this is the binary logistic model.
    """
    theta = np.asarray(theta, dtype=float)
    eta = _class_predictors(X_blocks, X_shared, offsets, theta)
    Q, lse = class_probs(eta)
    q0 = np.exp(-lse)  # baseline probability, 1 - sum_k Q_k without cancellation
    picked = np.where(y > 0, np.take_along_axis(eta, np.maximum(y - 1, 0)[:, None], axis=1)[:, 0], 0.0)
    ll = float(np.sum(picked - lse))

    dims = [X.shape[1] for X in X_blocks]
    slices = _block_slices(dims)
    shared = slice(sum(dims), theta.shape[0])
    grad = np.empty(theta.shape[0])
    hess = np.empty((theta.shape[0], theta.shape[0]))
    for k, (Xk, sk) in enumerate(zip(X_blocks, slices)):
        grad[sk] = Xk.T @ ((y == k + 1) - Q[:, k])
        # Cov(Y_k, Y_l) = Q_k (1{k=l} - Q_l); Cov(Y_k, J) = Q_k Q_0
        for l in range(k, len(X_blocks)):
            w = Q[:, k] * (1.0 - Q[:, k]) if l == k else -Q[:, k] * Q[:, l]
            hess[sk, slices[l]] = -(Xk.T * w) @ X_blocks[l]
            hess[slices[l], sk] = hess[sk, slices[l]].T
        hess[sk, shared] = -(Xk.T * (Q[:, k] * q0)) @ X_shared
        hess[shared, sk] = hess[sk, shared].T
    qtot = 1.0 - q0
    grad[shared] = X_shared.T @ ((y > 0) - qtot)
    hess[shared, shared] = -(X_shared.T * (qtot * q0)) @ X_shared
    return ll, grad, hess


def loglik_derivs(design: SieveDesign, theta):
    """Exact log-likelihood, gradient, and hessian of the (multinomial) logistic
    model at the full stacked parameter vector: the VE blocks, then the alpha
    coefficients."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != design.n_params:
        raise ValueError(f"expected {design.n_params} parameters, got {theta.shape[0]}")
    return logistic_derivs(design.y, design.X_ve, design.X_alpha, design.offsets, theta)


@dataclass
class NewtonResult:
    theta: np.ndarray  # full vector; coordinates outside `free` keep their start values
    loglik: float
    grad: np.ndarray  # score over the free coordinates
    hess: np.ndarray  # hessian over the free coordinates
    converged: bool
    trace: list[dict]  # per iteration: loglik, score_max, step_scale, update_norm

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def final_update_norm(self) -> float:
        return self.trace[-1]["update_norm"] if self.trace else 0.0


def newton(derivs, theta0, free=None, max_iter=MAX_ITER, score_tol=SCORE_TOL) -> NewtonResult:
    """Newton-Raphson with step-halving over the `free` coordinates of theta.

    `derivs(theta)` returns the log-likelihood, score and hessian at the full
    theta; coordinates outside the boolean mask `free` (default: all free)
    stay at `theta0`.  Each iteration halves the Newton step up to 40 times
    until the log-likelihood does not decrease by more than its rounding error,
    LOGLIK_ROUNDING * |loglik|: near the optimum the gain of a Newton step is
    below that error, so a strict comparison would reject it at random.

    The fit is converged when max |score| < score_tol, or when an accepted
    step raises the log-likelihood by less than LOGLIK_TOL, or when every
    halving fails but the last one changes it by less than LOGLIK_TOL (the
    trace then records a zero step).  Otherwise a failed halving raises
    NotConvergedError, and a singular or ill-conditioned information
    (condition number above CONDITION_BOUND) raises NonIdentifiableError.
    Reaching max_iter returns with converged False.
    """
    theta = np.array(theta0, dtype=float)
    free = np.ones(theta.shape[0], dtype=bool) if free is None else np.asarray(free, dtype=bool)

    def at(th):
        ll, g, h = derivs(th)
        return ll, g[free], h[np.ix_(free, free)]

    ll, grad, hess = at(theta)
    trace = []
    converged = grad.size == 0 or float(np.max(np.abs(grad))) < score_tol
    while not converged and len(trace) < max_iter:
        neg_h = -hess
        if not np.all(np.isfinite(neg_h)) or np.linalg.cond(neg_h) > CONDITION_BOUND:
            raise NonIdentifiableError("singular or ill-conditioned observed information")
        step = np.linalg.solve(neg_h, grad)
        scale = 1.0
        for _ in range(40):
            cand = theta.copy()
            cand[free] += scale * step
            ll_new, grad_new, hess_new = at(cand)
            if np.isfinite(ll_new) and ll_new >= ll - LOGLIK_ROUNDING * abs(ll):
                break
            scale *= 0.5
        else:
            if not (np.isfinite(ll_new) and abs(ll_new - ll) < LOGLIK_TOL):
                raise NotConvergedError("step-halving failed to improve the log-likelihood")
            scale, cand, ll_new, grad_new, hess_new = 0.0, theta, ll, grad, hess  # no step taken
        delta_ll = ll_new - ll
        theta, ll, grad, hess = cand, ll_new, grad_new, hess_new
        score_max = float(np.max(np.abs(grad)))
        update_norm = float(np.max(np.abs(scale * step)))
        trace.append({"loglik": ll, "score_max": score_max, "step_scale": scale, "update_norm": update_norm})
        converged = score_max < score_tol or delta_ll < LOGLIK_TOL
    return NewtonResult(theta, ll, grad, hess, converged, trace)


def _check_identification(design: SieveDesign, theta: np.ndarray, ll: float | None = None) -> None:
    # fixed offsets (surveillance anchors, log-mixture terms) are data, not
    # parameters, so separation is judged on the parametric predictor part
    eta = _class_predictors(design.X_ve, design.X_alpha, design.offsets, theta) - design.offsets
    if np.max(np.abs(eta)) > SEPARATION_BOUND:
        raise NonIdentifiableError(
            f"separation: |linear predictor| exceeds {SEPARATION_BOUND} at the optimum"
        )
    # a numerically perfect fit means the optimizer was chasing an infinite MLE
    if ll is not None and ll > -1e-6:
        raise NonIdentifiableError("separation: the likelihood is saturated at the optimum")


def _alpha_fn(design: SieveDesign, theta: np.ndarray) -> SmoothFn:
    """The fitted alpha(t) as an evaluable function, fixed offsets included."""
    alpha_coefs = theta[design.d_total :]
    if isinstance(design.alpha, BSplineBasis):
        from .smoothing import SplineFn

        return SplineFn(design.alpha, alpha_coefs)
    parts = []
    if design.alpha.offset is not None:
        parts.append(design.alpha.offset)
    const = design.alpha.fixed_value + (float(alpha_coefs[0]) if alpha_coefs.size else 0.0)
    parts.append(ConstantFn(const))
    return SumFn(parts) if len(parts) > 1 else parts[0]


def _resolve_alpha(dataset, alpha, knots, knot_placement):
    if alpha == "spline" or alpha is None:
        return default_alpha_basis(_infected_arrays(dataset)[0], knots, knot_placement)
    return alpha


def _fit_diagnostics(design, fit: NewtonResult):
    diag = {
        "iterations": fit.iterations,
        "final_update_norm": fit.final_update_norm,
        "loglik": fit.loglik,
        "score_max": float(np.max(np.abs(fit.grad))) if fit.grad.size else 0.0,
        "converged": bool(fit.converged),
        "n_rows": design.n_rows,
        "n_dropped_censored": design.n_dropped_censored,
    }
    if isinstance(design.alpha, BSplineBasis):
        diag["alpha_mode"] = "spline"
        diag["knots"] = list(design.alpha.interior_knots)
        diag["boundary"] = list(design.alpha.boundary)
    else:
        diag["alpha_mode"] = "offset"
        diag["free_intercept"] = design.alpha.free_intercept
    return diag


def fit_design_theta(design: SieveDesign, free: np.ndarray | None = None) -> NewtonResult:
    """Newton MLE over the free parameters of a design, starting from zero."""
    if free is None:
        free = np.ones(design.n_params, dtype=bool)
    if design.n_rows < int(free.sum()) + 1:
        raise VewaneError(f"{design.n_rows} events cannot support {int(free.sum())} parameters")
    fit = newton(lambda theta: loglik_derivs(design, theta), np.zeros(design.n_params), free)
    _check_identification(design, fit.theta, fit.loglik)
    return fit


def _free_parameters(design: SieveDesign):
    """Mask of the free parameters and the classes without events, whose VE
    coefficients are pinned at zero; raises unless both causes occur."""
    m = design.n_classes
    class_counts = np.bincount(design.y, minlength=m + 1)
    if class_counts[0] == 0 or class_counts[1:].sum() == 0:
        if design.strains is None:
            raise OnlyOneCauseError("need events of both causes")
        raise OnlyOneCauseError("need both irrelevant and preventable events")
    dead = [k for k in range(m) if class_counts[k + 1] == 0]
    free = np.ones(design.n_params, dtype=bool)
    slices = _block_slices(design.d_blocks)
    for k in dead:
        free[slices[k]] = False
    return free, dead


def _fit_sieve(dataset, ve_basis, mixture, knots, alpha, offset, knot_placement) -> FitResult:
    """Sieve MLE of the m-class model; mixture=None is the binary model (m = 1)."""
    alpha = _resolve_alpha(dataset, alpha, knots, knot_placement)
    design = build_design(dataset, ve_basis, alpha, mixture=mixture, extra_offset=offset)
    free, dead = _free_parameters(design)
    fit = fit_design_theta(design, free)
    cov_full = np.full((design.n_params, design.n_params), np.nan)
    cov_full[np.ix_(free, free)] = np.linalg.inv(-fit.hess)
    d = design.d_total
    beta = np.where(free[:d], fit.theta[:d], np.nan)
    diag = _fit_diagnostics(design, fit)
    common = dict(beta=beta, beta_cov=cov_full[:d, :d], nuisance=_alpha_fn(design, fit.theta), diagnostics=diag)
    if mixture is None:
        basis = ve_basis if ve_basis is not None else VEBasisSpec("constant")
        return FitResult(method="sieve", basis=basis, **common)
    diag["nonidentifiable_strains"] = [design.strains[k] for k in dead]
    return FitResult(method="sieve-multinomial", basis=list(design.ve_basis), strains=design.strains, **common)


def fit_sieve_binary(
    dataset: Dataset,
    ve_basis: VEBasisSpec | None,
    knots=None,
    alpha="spline",
    offset: SmoothFn | None = None,
    knot_placement: str = "quantile",
) -> FitResult:
    """Newton MLE of (beta, alpha); covariance is the beta block of the inverse
    full observed information (profile covariance).  The one-class case of
    `fit_sieve_multinomial`."""
    return _fit_sieve(dataset, ve_basis, None, knots, alpha, offset, knot_placement)


def fit_sieve_multinomial(
    dataset: Dataset,
    ve_bases,
    mixture,
    knots=None,
    alpha="spline",
    offset: SmoothFn | None = None,
    knot_placement: str = "quantile",
) -> FitResult:
    """Stacked per-strain Newton MLE with log p_s(T) entering as class offsets.

    Strains without events are flagged non-identifiable: their coefficients are
    pinned at zero during optimization and reported as NaN.
    """
    return _fit_sieve(dataset, ve_bases, mixture, knots, alpha, offset, knot_placement)
