"""Cause-specific Cox partial likelihood for the preventable outcome.

The single time-varying covariate vector is x_i(t) = Z_i(t) * psi(t - V_i);
irrelevant-cause events and administrative censoring both censor.  Ties use the
Breslow approximation.  Constant and linear bases run through an O(n log n)
prefix-sum evaluation; the ramp basis falls back to the direct risk-set scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Dataset,
    FitResult,
    NonIdentifiableError,
    VEBasisSpec,
    VewaneError,
    eval_ve_basis,
)
from .sieve import CONDITION_BOUND, SEPARATION_BOUND, newton


@dataclass
class _CoxData:
    T: np.ndarray  # all subjects, ascending
    V: np.ndarray  # aligned vaccination times (nan = never)
    event_times: np.ndarray  # distinct preventable times, ascending
    tie_counts: np.ndarray
    ev_t: np.ndarray  # per preventable event: its time
    ev_v: np.ndarray  # per preventable event: vaccination time (nan = never)


def _prepare(dataset: Dataset) -> _CoxData:
    arr = dataset.arrays()
    order = np.argsort(arr["time"], kind="stable")
    T = arr["time"][order]
    V = arr["vax"][order]
    prevent = arr["cause"] == 1
    if not np.any(prevent):
        raise VewaneError("no preventable events")
    ev_t = arr["time"][prevent]
    ev_v = arr["vax"][prevent]
    times, counts = np.unique(ev_t, return_counts=True)
    return _CoxData(T, V, times, counts, ev_t, ev_v)


def _event_covariates(data: _CoxData, basis: VEBasisSpec) -> np.ndarray:
    z = ~np.isnan(data.ev_v) & (data.ev_v <= data.ev_t)
    tau = np.where(z, data.ev_t - np.where(np.isnan(data.ev_v), 0.0, data.ev_v), 0.0)
    return z[:, None] * eval_ve_basis(basis, tau)


def _derivs_scan(data: _CoxData, basis: VEBasisSpec, beta: np.ndarray):
    """Direct risk-set evaluation, any basis."""
    d = basis.dimension
    ll = 0.0
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    x_events = _event_covariates(data, basis)
    ev_ptr = 0
    for t, ties in zip(data.event_times, data.tie_counts):
        pos = int(np.searchsorted(data.T, t, side="left"))
        v = data.V[pos:]
        z = ~np.isnan(v) & (v <= t)
        tau = np.where(z, t - np.where(np.isnan(v), 0.0, v), 0.0)
        x = z[:, None] * eval_ve_basis(basis, tau)
        eta = x @ beta
        w = np.exp(eta)
        a = float(w.sum())
        xbar = (w @ x) / a
        xxw = (x.T * w) @ x / a
        for _ in range(int(ties)):
            xe = x_events[ev_ptr]
            ll += float(xe @ beta)
            grad += xe
            ev_ptr += 1
        ll -= ties * np.log(a)
        grad -= ties * xbar
        hess -= ties * (xxw - np.outer(xbar, xbar))
    return ll, grad, hess


class _PrefixTables:
    """Prefix sums enabling O(log n) risk-set moments for constant/linear bases.

    For the evaluation weight g_k(V) = V^k * exp(-b1 (V - c)) the sums
    S_k(t) = sum over {V_i <= t, T_i >= t} split into all-vaccinated prefix
    minus departed subjects; departures activate strictly after T_i when
    V_i <= T_i and at V_i otherwise.
    """

    def __init__(self, data: _CoxData, b1: float, center: float, n_moments: int):
        vaxed = ~np.isnan(data.V)
        V = data.V[vaxed]
        T = data.T[vaxed]
        self.n_total = data.T.shape[0]
        self.all_T = data.T
        self.center = center
        g = np.exp(-b1 * (V - center))

        self.v_sorted = np.sort(V)
        order_v = np.argsort(V, kind="stable")
        ga = (T >= V)  # group A departs after own event time; group B at V
        self.m = n_moments

        def prefixes(values, keys_order):
            out = []
            for k in range(n_moments):
                vals = values ** k * g if k else g
                out.append(np.concatenate([[0.0], np.cumsum(vals[keys_order])]))
            cnt = np.concatenate([[0.0], np.cumsum(np.ones(len(keys_order)))])
            return out, cnt

        self.pref_all, self.cnt_all = prefixes(V, order_v)

        a_idx = np.nonzero(ga)[0]
        order_a = a_idx[np.argsort(T[a_idx], kind="stable")]
        self.ta_sorted = T[order_a]
        self.pref_a, self.cnt_a = prefixes(V, order_a)

        b_idx = np.nonzero(~ga)[0]
        order_b = b_idx[np.argsort(V[b_idx], kind="stable")]
        self.vb_sorted = V[order_b]
        self.pref_b, self.cnt_b = prefixes(V, order_b)

    def moments(self, t: np.ndarray):
        """(S_0..S_{m-1}, vaccinated count, unvaccinated count) on the risk sets at t."""
        ia = np.searchsorted(self.v_sorted, t, side="right")
        id_a = np.searchsorted(self.ta_sorted, t, side="left")
        id_b = np.searchsorted(self.vb_sorted, t, side="right")
        s = [self.pref_all[k][ia] - self.pref_a[k][id_a] - self.pref_b[k][id_b] for k in range(self.m)]
        cnt_vax = self.cnt_all[ia] - self.cnt_a[id_a] - self.cnt_b[id_b]
        n_risk = self.n_total - np.searchsorted(self.all_T, t, side="left")
        return s, cnt_vax, n_risk - cnt_vax


def _derivs_fast(data: _CoxData, basis: VEBasisSpec, beta: np.ndarray):
    """Prefix-sum evaluation for the constant (d=1) and linear (d=2) bases."""
    t = data.event_times
    ties = data.tie_counts.astype(float)
    b0 = float(beta[0])
    b1 = float(beta[1]) if basis.kind == "linear" else 0.0
    vaxed = ~np.isnan(data.V)
    center = float(np.median(data.V[vaxed])) if np.any(vaxed) else 0.0
    d = basis.dimension
    tables = _PrefixTables(data, b1, center, n_moments=d + 1)
    s, cnt_vax, cnt_unvax = tables.moments(t)

    phi = np.exp(b0 + b1 * (t - center))
    a0 = phi * s[0]
    A = cnt_unvax + a0
    g1 = a0
    if d == 2:
        g2 = phi * (t * s[0] - s[1])
        g22 = phi * (t * t * s[0] - 2.0 * t * s[1] + s[2])

    x_events = _event_covariates(data, basis)
    ev_sums = x_events.sum(axis=0)

    ll = float((x_events @ beta).sum() - (ties * np.log(A)).sum())
    xbar1 = g1 / A
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    grad[0] = float(ev_sums[0] - (ties * xbar1).sum())
    hess[0, 0] = -float((ties * (g1 / A - xbar1 * xbar1)).sum())
    if d == 2:
        xbar2 = g2 / A
        grad[1] = float(ev_sums[1] - (ties * xbar2).sum())
        hess[0, 1] = hess[1, 0] = -float((ties * (g2 / A - xbar1 * xbar2)).sum())
        hess[1, 1] = -float((ties * (g22 / A - xbar2 * xbar2)).sum())
    return ll, grad, hess


def cox_partial_loglik(dataset: Dataset, ve_basis: VEBasisSpec, beta, fast: bool | None = None):
    """Breslow log partial likelihood with exact gradient and hessian."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ve_basis.dimension,):
        raise ValueError(f"beta must have shape ({ve_basis.dimension},)")
    data = _prepare(dataset)
    if fast is None:
        fast = ve_basis.kind in ("constant", "linear")
    if fast and ve_basis.kind not in ("constant", "linear"):
        raise ValueError("fast path only supports constant/linear bases")
    with np.errstate(over="ignore"):
        return (_derivs_fast if fast else _derivs_scan)(data, ve_basis, beta)


def fit_cox_tv(dataset: Dataset, ve_basis: VEBasisSpec) -> FitResult:
    """Newton fit; beta_cov is the inverse observed information."""
    data = _prepare(dataset)
    if not np.any(~np.isnan(data.V)):
        raise NonIdentifiableError("all subjects unvaccinated: no covariate contrast")
    x_events = _event_covariates(data, ve_basis)
    use_fast = ve_basis.kind in ("constant", "linear")

    def derivs(b):
        with np.errstate(over="ignore"):
            return (_derivs_fast if use_fast else _derivs_scan)(data, ve_basis, b)

    fit = newton(derivs, np.zeros(ve_basis.dimension))
    beta, hess = fit.theta, fit.hess
    if np.max(np.abs(x_events @ beta)) > SEPARATION_BOUND:
        raise NonIdentifiableError("separation in the partial likelihood")
    if not np.all(np.isfinite(hess)) or np.linalg.cond(-hess) > CONDITION_BOUND:
        raise NonIdentifiableError("singular information at the optimum")

    cov = np.linalg.inv(-hess)
    return FitResult(
        method="cox",
        beta=beta,
        beta_cov=cov,
        basis=ve_basis,
        nuisance=None,
        diagnostics={
            "iterations": fit.iterations,
            "final_update_norm": fit.final_update_norm,
            "loglik": fit.loglik,
            "score_max": float(np.max(np.abs(fit.grad))),
            "converged": bool(fit.converged),
            "n_events": int(data.ev_t.shape[0]),
            "ties": "breslow",
        },
    )
