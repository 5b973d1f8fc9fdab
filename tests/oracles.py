"""Independent reference implementations used to check the production code.

These are deliberately naive: direct textbook recursions and exhaustive
searches, written before the implementations they verify.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

from vewane.core import _CAUSE_CODE, DatasetValidationError, Violation, eval_ve_basis, validate_dataset


def naive_bspline_value(knots, j, degree, t, t_max):
    """Textbook Cox-de Boor recursion for a single basis function B_{j,degree}(t)."""
    if degree == 0:
        # half-open spans, except the last span which closes at t_max
        if knots[j] <= t < knots[j + 1]:
            return 1.0
        if t == t_max and knots[j] < knots[j + 1] <= t_max and knots[j + 1] == t_max:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[j + degree] - knots[j]
    if den > 0:
        left = (t - knots[j]) / den * naive_bspline_value(knots, j, degree - 1, t, t_max)
    right = 0.0
    den = knots[j + degree + 1] - knots[j + 1]
    if den > 0:
        right = (
            (knots[j + degree + 1] - t)
            / den
            * naive_bspline_value(knots, j + 1, degree - 1, t, t_max)
        )
    return left + right


def naive_bspline_row(degree, interior, boundary, t):
    lo, hi = boundary
    knots = np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])
    m = len(interior) + degree + 1
    return np.array([naive_bspline_value(knots, j, degree, t, hi) for j in range(m)])


def isotonic_by_partition(y, w=None):
    """Exact weighted isotonic projection by exhaustive search over consecutive
    block partitions (the optimum is piecewise constant at block means)."""
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if w is None else np.asarray(w, dtype=float)
    n = len(y)
    best_obj, best_z = np.inf, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        z = np.empty(n)
        means = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            mu = np.average(y[a:b], weights=w[a:b])
            means.append(mu)
            z[a:b] = mu
        if any(m2 < m1 - 1e-12 for m1, m2 in zip(means[:-1], means[1:])):
            continue
        obj = float(np.sum(w * (y - z) ** 2))
        if obj < best_obj - 1e-15:
            best_obj, best_z = obj, z
    return best_z


def pava_loop(y, w=None):
    """Pool adjacent violators on one vector: push each point as a block, then
    merge the top two blocks while their means do not increase."""
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if w is None else np.asarray(w, dtype=float)
    if len(y) != len(w) or len(y) < 1:
        raise ValueError("y and w must be nonempty and of equal length")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    means = np.empty(len(y))
    weights = np.empty(len(y))
    counts = np.empty(len(y), dtype=np.int64)
    top = 0
    for yi, wi in zip(y, w):
        means[top], weights[top], counts[top] = yi, wi, 1
        top += 1
        while top > 1 and means[top - 2] >= means[top - 1]:
            wtot = weights[top - 2] + weights[top - 1]
            means[top - 2] = (
                weights[top - 2] * means[top - 2] + weights[top - 1] * means[top - 1]
            ) / wtot
            weights[top - 2] = wtot
            counts[top - 2] += counts[top - 1]
            top -= 1
    return np.repeat(means[:top], counts[:top])


def read_events_csv_rows(path, horizon=None, time_unit="years"):
    """The events CSV read row by row with `csv.reader`, then column by column."""
    required = {"id", "vax_time", "event_time", "cause"}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not required.issubset(header):
            raise DatasetValidationError(
                [Violation(-1, "header", f"events CSV needs columns {sorted(required)}")]
            )
        rows = [row for row in reader if row]  # blank lines are skipped
    col = {name: k for k, name in enumerate(header)}
    codes = {c.value: code for c, code in _CAUSE_CODE.items()}
    cause = [codes.get(row[col["cause"]].strip()) for row in rows]
    if None in cause:
        k = cause.index(None)
        raise DatasetValidationError([Violation(k, "cause", f"unknown cause {rows[k][col['cause']]!r}")])
    i_strain = col.get("strain")
    strain = ["" if i_strain is None or i_strain >= len(row) else row[i_strain].strip() for row in rows]
    vax = [row[col["vax_time"]].strip() for row in rows]
    columns = {
        "id": [row[col["id"]] for row in rows],
        "vax": [float(v) if v else math.nan for v in vax],
        "time": [float(row[col["event_time"]]) for row in rows],
        "cause": cause,
        "strain": [int(s) if s else 0 for s in strain],
    }
    if horizon is None:
        horizon = max(columns["time"], default=0.0)
    return validate_dataset(columns, horizon, time_unit)


def logistic_loglik_reference(eta, y):
    """Direct Bernoulli log likelihood, no numerical tricks."""
    p = 1.0 / (1.0 + np.exp(-np.asarray(eta, dtype=float)))
    y = np.asarray(y, dtype=float)
    return float(np.sum(y * np.log(p) + (1 - y) * np.log1p(-p)))


def finite_diff_gradient(fun, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def finite_diff_jacobian(fun, x, h=1e-6):
    """Central differences of a vector-valued function; rows index fun outputs."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fun(x))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        jac[:, i] = (np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2 * h)
    return jac


def max_rel_err(a, b, floor=1.0):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / scale))


def cox_derivs_scan(dataset, basis, beta):
    """Breslow log partial likelihood, score and hessian by a direct scan of
    every risk set: O(events x n), any basis."""
    arr = dataset.arrays()
    order = np.argsort(arr["time"], kind="stable")
    T = arr["time"][order]
    V = arr["vax"][order]
    prevent = arr["cause"] == 1
    ev_t = arr["time"][prevent]
    ev_v = arr["vax"][prevent]
    event_times, tie_counts = np.unique(ev_t, return_counts=True)
    z = ~np.isnan(ev_v) & (ev_v <= ev_t)
    tau = np.where(z, ev_t - np.where(np.isnan(ev_v), 0.0, ev_v), 0.0)
    x_events = z[:, None] * eval_ve_basis(basis, tau)

    d = basis.dimension
    ll = 0.0
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    ev_ptr = 0
    for t, ties in zip(event_times, tie_counts):
        pos = int(np.searchsorted(T, t, side="left"))
        v = V[pos:]
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


def kernel_smooth_dense(x, y, w, kernel, h, t):
    """Nadaraya-Watson smoother from the full (n_eval x n_data) kernel matrix;
    where no data point has kernel weight, the y of the nearest point."""
    x, y, w = (np.asarray(a, dtype=float) for a in (x, y, w))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    kw = np.subtract(x[None, :], t[:, None])
    with np.errstate(over="ignore"):
        kw /= h
        if kernel == "epanechnikov":
            np.abs(kw, out=kw)
            outside = ~(kw <= 1.0)  # NaN too
            np.minimum(kw, 1.0, out=kw)
            np.square(kw, out=kw)
            np.subtract(1.0, kw, out=kw)
            kw *= 0.75
            kw[outside] = 0.0
        else:
            np.square(kw, out=kw)
            np.minimum(kw, 1e6, out=kw)
            kw *= -0.5
            np.exp(kw, out=kw)
    kw *= w[None, :]
    den = kw.sum(axis=1)
    num = kw @ y
    out = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    dead = den <= 0
    if np.any(dead):
        order = np.argsort(x)
        xs, ys = x[order], y[order]
        idx = np.clip(np.searchsorted(xs, t[dead]), 1, len(xs) - 1)
        nearer = np.abs(xs[idx] - t[dead]) < np.abs(xs[idx - 1] - t[dead])
        out[dead] = np.where(nearer, ys[idx], ys[idx - 1])
    return out


def invert_by_bisection(scenario, latent, cause, e):
    """Smallest t with Lambda_j(t) >= e: 45 halvings of [0, horizon] on the
    quadrature `cumulative_hazard` at every level; NaN when no event."""
    from vewane.simulate import cumulative_hazard

    e = np.asarray(e, dtype=float)
    n = e.shape[0]
    out = np.full(n, np.nan)
    lam_end = cumulative_hazard(scenario, latent, cause, np.full(n, scenario.horizon))
    hit = lam_end >= e
    if not np.any(hit):
        return out
    idx = np.nonzero(hit)[0]
    sub = latent.take(idx)
    target = e[idx]
    lo = np.zeros(idx.size)
    hi = np.full(idx.size, scenario.horizon)
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        above = cumulative_hazard(scenario, sub, cause, mid) >= target
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    out[idx] = hi
    return out


def spline_smooth_one_column(x, y, w, n_knots=None, penalty_order=2, degree=3, placement="quantile"):
    """`smoothing.weighted_spline_smooth` of one column y, with its own basis,
    hat traces and GCV loop: the form it had before it shared them across columns."""
    from vewane.smoothing import (
        LAMBDA_GRID,
        BSplineBasis,
        SplineFn,
        _second_difference,
        bspline_eval,
        knot_rule,
        place_knots,
    )

    x, y, w = (np.asarray(a, dtype=float) for a in (x, y, w))
    lo, hi = float(x.min()), float(x.max())
    if not lo < hi:
        return SplineFn(BSplineBasis(0, (), (lo, lo + 1.0)), np.array([np.average(y, weights=w)]), None, True)
    active = w > 0
    if n_knots is None:
        n_knots = max(1, knot_rule(int(active.sum())))
    basis = BSplineBasis(degree, place_knots(x[active], n_knots, (lo, hi), placement), (lo, hi))
    m = basis.dimension
    if int(active.sum()) < m:
        return SplineFn(basis, np.full(m, np.average(y, weights=w)), None, True)
    B = bspline_eval(basis, np.clip(x, lo, hi))
    BW = B * w[:, None]
    btb = B.T @ BW
    bty = BW.T @ y
    D = _second_difference(m, penalty_order)
    P = D.T @ D
    n = len(x)
    best = None
    for lam in LAMBDA_GRID:
        A = btb + lam * P
        try:
            coef = np.linalg.solve(A, bty)
            hat_trace = float(np.trace(np.linalg.solve(A, btb)))
        except np.linalg.LinAlgError:
            continue
        resid = y - B @ coef
        rss = float(np.sum(w * resid * resid)) / n
        denom = max(1.0 - hat_trace / n, 1e-10)
        gcv = rss / denom**2
        if best is None or gcv < best[0] - 1e-15:
            best = (gcv, lam, coef)
    if best is None:
        return SplineFn(basis, np.full(m, np.average(y, weights=w)), None, True)
    return SplineFn(basis, best[2], best[1], False)


def running_sum_by_sum(ends, w, n_times):
    """`cox._running_sum` with its two prefix sums added by `sum()` over a
    generator (so after a leading integer 0)."""
    w = np.concatenate([w, -w])
    step = 2.0 ** (np.frexp(np.max(np.abs(w), initial=0.0))[1] - 30)
    coarse = np.round(w / step) * step
    return sum(np.bincount(ends, x, minlength=n_times + 1)[:n_times].cumsum() for x in (coarse, w - coarse))


def running_sum_concat(ends, w, n_times):
    """`cox._running_sum` splitting the concatenated entries w and exits -w."""
    w = np.concatenate([w, -w])
    step = 2.0 ** (np.frexp(np.max(np.abs(w), initial=0.0))[1] - 30)
    coarse = np.round(w / step) * step

    def prefix(x):
        return np.bincount(ends, x, minlength=n_times + 1)[:n_times].cumsum()

    return prefix(coarse) + prefix(w - coarse)


def participant_ids(n):
    """The ids a simulated cohort of n rows reads as, built as a list of strings."""
    return ("p%06d\n" * n % tuple(range(n))).split()
