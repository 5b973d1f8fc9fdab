"""Cause-specific Cox partial likelihood for the preventable outcome.

The single time-varying covariate vector is x_i(t) = Z_i(t) * psi(t - V_i);
irrelevant-cause events and administrative censoring both censor.  Ties use the
Breslow approximation.  Every basis runs through one O(n log n) prefix-sum
evaluation: psi is affine in t - V on each piece of `ve_basis_pieces`, and a
subject sits in a piece's risk set over one run of event times, so each
risk-set moment is a running sum of subjects entering minus subjects leaving.
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
    ve_basis_pieces,
)
from .sieve import CONDITION_BOUND, SEPARATION_BOUND, newton


@dataclass
class _RiskSets:
    """The beta-free part of the partial likelihood, built once per dataset and basis.

    Times are shifted by the median vaccination time so that the moments
    t S0 - S1 and t^2 S0 - 2 t S1 + S2 do not cancel.
    """

    t: np.ndarray  # distinct preventable event times, ascending, shifted
    ties: np.ndarray  # events at each time
    n_unvax: np.ndarray  # at risk and not yet vaccinated, at each time
    pieces: list  # per basis piece: (a, c, entry-then-exit event indices, shifted V)
    x_events: np.ndarray  # covariate of each preventable event


def _sorted_search(times: np.ndarray, keys: np.ndarray, order: np.ndarray, side: str = "left") -> np.ndarray:
    """np.searchsorted(times, keys, side), searched in the `order` that sorts keys
    and scattered back: numpy starts each search from the last one's result when
    the keys ascend, which is several times faster on thousands of keys."""
    k = np.empty(keys.shape[0], dtype=np.intp)
    k[order] = np.searchsorted(times, keys[order], side=side)
    return k


def _first_reached(times: np.ndarray, v: np.ndarray, order: np.ndarray, start: float) -> np.ndarray:
    """Per v, the first index k with fl(times[k] - v) >= start (len(times) if none).

    This is the test `eval_ve_basis` applies to tau = fl(t - v); fl(v + start)
    can round to either side of it, so the searchsorted guess is moved until
    the exact test agrees (fl(t - v) is monotone in t, so the moves are few).
    `order` sorts v, and so v + start.
    """
    k = _sorted_search(times, v + start, order)
    last = times.shape[0] - 1
    while True:
        down = (k > 0) & (times[np.maximum(k - 1, 0)] - v >= start)
        up = (k <= last) & (times[np.minimum(k, last)] - v < start)
        if not (down.any() or up.any()):
            return k
        k = k - down + up


def _running_sum(ends: np.ndarray, w: np.ndarray, n_times: int) -> np.ndarray:
    """Per event index k, the sum of w over subjects with entry <= k < exit.

    Entries minus exits cancel: the subjects that have left can outweigh those
    still in by many orders of magnitude.  So w is split into a part on a grid
    of 2^-30 max|w|, whose sums are exact (below 2^53 grid steps for n < 2^23),
    and a remainder below half a step, whose rounding then stays negligible.
    `ends` holds the entries, then the exits: each part enters as x and leaves
    as -x (the split is sign-symmetric, so this is the split of -w).
    """
    step = 2.0 ** (np.frexp(np.max(np.abs(w), initial=0.0))[1] - 30)
    coarse = np.round(w / step) * step

    def prefix(x):
        return np.bincount(ends, np.concatenate([x, -x]), minlength=n_times + 1)[:n_times].cumsum()

    return prefix(coarse) + prefix(w - coarse)


def _risk_sets(dataset: Dataset, basis: VEBasisSpec) -> _RiskSets:
    arr = dataset.arrays()
    time, vax = arr["time"], arr["vax"]
    prevent = arr["cause"] == 1
    if not np.any(prevent):
        raise VewaneError("no preventable events")
    times, ties = np.unique(time[prevent], return_counts=True)
    n_times = times.shape[0]
    vaxed = ~np.isnan(vax)
    v = vax[vaxed]
    by_v = np.argsort(v)
    # np.median(v): the mean of the middle one or two of the sorted values
    center = float(np.mean(v[by_v[(v.size - 1) // 2 : v.size // 2 + 1]])) if v.size else 0.0
    t_vaxed = time[vaxed]
    at_risk_until = _sorted_search(times, t_vaxed, np.argsort(t_vaxed), side="right")
    n_unvax = (time.shape[0] - np.searchsorted(np.sort(time), times)).astype(float)
    spec = ve_basis_pieces(basis)
    pieces = []
    for (start, a, c), stop in zip(spec, [s for s, _, _ in spec[1:]] + [None]):
        # a subject leaves a piece at its next start, or the risk set (the last piece never ends)
        entry = _first_reached(times, v, by_v, start)
        exit_ = at_risk_until if stop is None else np.minimum(_first_reached(times, v, by_v, stop), at_risk_until)
        exit_ = np.maximum(exit_, entry)
        keep = entry < exit_
        ends = np.concatenate([entry[keep], exit_[keep]])
        n_unvax -= _running_sum(ends, np.ones(int(keep.sum())), n_times)
        pieces.append((a, c, ends, v[keep] - center))
    ev_v = vax[prevent]
    z = ~np.isnan(ev_v) & (ev_v <= time[prevent])
    tau = np.where(z, time[prevent] - np.where(z, ev_v, 0.0), 0.0)
    x_events = z[:, None] * eval_ve_basis(basis, tau)
    return _RiskSets(times - center, ties.astype(float), n_unvax, pieces, x_events)


def _derivs(rs: _RiskSets, beta: np.ndarray):
    """Log partial likelihood, score and hessian from per-piece running sums.

    On a piece psi = a + c tau, so a subject's weight is phi(t) g(V) with
    phi = exp(beta.a + (beta.c) t) and g = exp(-(beta.c) V); with
    S_m = sum g V^m over the piece's risk set the risk-set sums are
    A = n_unvax + sum phi S0, G = sum phi [a S0 + c (t S0 - S1)] and
    H = sum phi [a a' S0 + (a c' + c a')(t S0 - S1) + c c' (t^2 S0 - 2 t S1 + S2)].
    """
    t, ties = rs.t, rs.ties
    A = rs.n_unvax.copy()
    G = np.zeros((t.shape[0], beta.shape[0]))
    moments = []
    for a, c, ends, u in rs.pieces:
        b = float(c @ beta)
        phi = np.exp(float(a @ beta) + b * t)
        g = np.exp(-b * u)
        s0, s1, s2 = (phi * _running_sum(ends, w, t.shape[0]) for w in (g, g * u, g * u * u))
        d1 = t * s0 - s1
        d2 = t * t * s0 - 2.0 * t * s1 + s2
        A += s0
        G += np.outer(s0, a) + np.outer(d1, c)
        moments.append((a, c, s0, d1, d2))
    xbar = G / A[:, None]
    r = ties / A
    hess = (xbar.T * ties) @ xbar
    for a, c, s0, d1, d2 in moments:
        ac = np.outer(a, c)
        hess -= np.outer(a, a) * (r @ s0) + (ac + ac.T) * (r @ d1) + np.outer(c, c) * (r @ d2)
    x_sum = rs.x_events.sum(axis=0)
    ll = float(x_sum @ beta - ties @ np.log(A))
    return ll, x_sum - ties @ xbar, hess


def cox_partial_loglik(dataset: Dataset, ve_basis: VEBasisSpec, beta):
    """Breslow log partial likelihood with exact gradient and hessian."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ve_basis.dimension,):
        raise ValueError(f"beta must have shape ({ve_basis.dimension},)")
    rs = _risk_sets(dataset, ve_basis)
    with np.errstate(over="ignore"):
        return _derivs(rs, beta)


def fit_cox_tv(dataset: Dataset, ve_basis: VEBasisSpec) -> FitResult:
    """Newton fit; beta_cov is the inverse observed information."""
    rs = _risk_sets(dataset, ve_basis)
    if np.all(np.isnan(dataset.arrays()["vax"])):
        raise NonIdentifiableError("all subjects unvaccinated: no covariate contrast")

    def derivs(b):
        with np.errstate(over="ignore"):
            return _derivs(rs, b)

    fit = newton(derivs, np.zeros(ve_basis.dimension))
    beta, hess = fit.theta, fit.hess
    if np.max(np.abs(rs.x_events @ beta)) > SEPARATION_BOUND:
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
            "n_events": int(rs.x_events.shape[0]),
            "ties": "breslow",
        },
    )
