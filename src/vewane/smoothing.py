"""Shared numerical smoothers: B-spline bases, penalized splines, kernel smoothing, PAVA."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAMBDA_GRID = np.logspace(-6, 6, 25)  # fixed GCV grid keeps fits deterministic


@dataclass(frozen=True)
class BSplineBasis:
    """Clamped B-spline basis of `degree` with sorted interior knots inside `boundary`."""

    degree: int
    interior_knots: tuple[float, ...]
    boundary: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.boundary
        if not (lo < hi):
            raise ValueError("boundary must satisfy lo < hi")
        ks = np.asarray(self.interior_knots, dtype=float)
        if ks.size and (np.any(np.diff(ks) <= 0) or ks[0] <= lo or ks[-1] >= hi):
            raise ValueError("interior knots must be strictly increasing inside boundary")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")

    @property
    def dimension(self) -> int:
        return len(self.interior_knots) + self.degree + 1

    @property
    def knot_vector(self) -> np.ndarray:
        lo, hi = self.boundary
        return np.concatenate(
            [np.full(self.degree + 1, lo), self.interior_knots, np.full(self.degree + 1, hi)]
        )

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "interior_knots": list(self.interior_knots),
            "boundary": list(self.boundary),
        }

    @staticmethod
    def from_dict(d: dict) -> "BSplineBasis":
        return BSplineBasis(d["degree"], tuple(d["interior_knots"]), tuple(d["boundary"]))


def bspline_eval(basis: BSplineBasis, t) -> np.ndarray:
    """Design matrix of basis values at t via the Cox-de Boor recursion.

    Output shape (len(t), M); rows are nonnegative and sum to one.  Points
    outside the boundary raise (no extrapolation).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    lo, hi = basis.boundary
    if np.any(t < lo) or np.any(t > hi):
        raise ValueError(f"evaluation points outside boundary [{lo}, {hi}]")
    v = basis.degree
    knots = basis.knot_vector
    M = basis.dimension
    span = np.searchsorted(knots, t, side="right") - 1
    span = np.clip(span, v, M - 1)

    npts = t.shape[0]
    N = np.zeros((npts, v + 1))
    N[:, 0] = 1.0
    left = np.empty((npts, v + 1))
    right = np.empty((npts, v + 1))
    for d in range(1, v + 1):
        left[:, d] = t - knots[span + 1 - d]
        right[:, d] = knots[span + d] - t
        saved = np.zeros(npts)
        for r in range(d):
            denom = right[:, r + 1] + left[:, d - r]
            temp = N[:, r] / denom
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, d - r] * temp
        N[:, d] = saved

    out = np.zeros((npts, M))
    cols = span[:, None] - v + np.arange(v + 1)[None, :]
    np.put_along_axis(out, cols, N, axis=1)
    return out


def knot_rule(n: int) -> int:
    """Interior-knot count from the event count: floor(n**(1/3.5))."""
    if n < 1:
        raise ValueError("need at least one event")
    # guard the float power against 8**(1/3.5)-style representation slop
    return int(math.floor(n ** (1.0 / 3.5) + 1e-12))


def place_knots(x: np.ndarray, k: int, boundary: tuple[float, float], placement: str = "quantile"):
    """K interior knots at equally spaced quantiles of x (or equally spaced in time)."""
    lo, hi = boundary
    if placement == "even":
        knots = np.linspace(lo, hi, k + 2)[1:-1]
    elif placement == "quantile":
        knots = np.quantile(np.asarray(x, dtype=float), np.arange(1, k + 1) / (k + 1))
    else:
        raise ValueError(f"unknown placement {placement!r}")
    eps = 1e-9 * (hi - lo)
    knots = np.clip(knots, lo + eps, hi - eps)
    knots = np.unique(knots)
    return tuple(float(v) for v in knots)


# -- evaluable smooth-function representations --


class SmoothFn:
    """A univariate function over a domain; subclasses implement _eval."""

    domain: tuple[float, float]

    def __call__(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return self._eval(t)

    def _eval(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


@dataclass
class SplineFn(SmoothFn):
    basis: BSplineBasis
    coef: np.ndarray
    gcv_lambda: float | None = None
    fallback: bool = False  # true when the fit degraded to a global weighted mean
    _fitted = None  # (x, B @ coef at x), kept by the GCV pass for one `_fitted_values(fn, x)`

    def __post_init__(self):
        self.coef = np.asarray(self.coef, dtype=float)
        self.domain = self.basis.boundary

    def __getstate__(self):  # copies and pickles leave the GCV pass's values behind
        return {k: v for k, v in self.__dict__.items() if k != "_fitted"}

    def _eval(self, t):
        lo, hi = self.domain
        pad = 1e-9 * (hi - lo)
        t = np.clip(t, lo, hi) if np.all((t >= lo - pad) & (t <= hi + pad)) else t
        return bspline_eval(self.basis, t) @ self.coef

    def to_dict(self):
        return {
            "smooth_fn": "spline",
            "basis": self.basis.to_dict(),
            "coef": self.coef.tolist(),
            "gcv_lambda": self.gcv_lambda,
            "fallback": self.fallback,
        }


@dataclass
class KernelFn(SmoothFn):
    """Nadaraya-Watson smoother: the Epanechnikov-weighted mean of y around each point.

    Where the kernel puts no weight on any data point, the value is the y of
    the nearest data point.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        self.w = np.asarray(self.w, dtype=float)
        self.domain = (float(self.x.min()), float(self.x.max()))

    def _eval(self, t):
        order = np.argsort(self.x)
        xs, ys, ws = self.x[order], self.y[order], self.w[order]
        num, den = _epanechnikov_sums(xs, ys, ws, self.bandwidth, t)
        out = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
        dead = den <= 0
        if np.any(dead):
            # no kernel mass: fall back to the value at the nearest supported point
            idx = np.clip(np.searchsorted(xs, t[dead]), 1, len(xs) - 1)
            nearer = np.abs(xs[idx] - t[dead]) < np.abs(xs[idx - 1] - t[dead])
            out[dead] = np.where(nearer, ys[idx], ys[idx - 1])
        return out

    def to_dict(self):
        return {
            "smooth_fn": "kernel",
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "w": self.w.tolist(),
            "kernel": "epanechnikov",
            "bandwidth": self.bandwidth,
        }


KERNEL_CHUNK = 2**20  # Epanechnikov edge-window weights held at once


def _window_sums(xs, ys, ws, h, t, lo, hi):
    """Epanechnikov numerator and denominator of each t from the points of its
    index window [lo, hi) one by one, rounded as the kernel matrix rounds them."""
    size = hi - lo
    q = np.repeat(np.arange(t.size), size)
    i = np.arange(q.size) + np.repeat(lo - (np.cumsum(size) - size), size)
    u = (xs[i] - t[q]) / h
    k = 0.75 * (1.0 - u * u) * ws[i]
    return np.bincount(q, k * ys[i], t.size), np.bincount(q, k, t.size)


def _prefix_length(xs, t, h, holds, edge):
    """Per t, the length of the prefix of sorted xs on which holds((x - t) / h),
    a test that switches where x - t crosses edge.  searchsorted brackets the
    switch to within a few ulps; bisection inside the bracket then applies the
    test itself, so the offset rounds as the kernel's own does."""
    with np.errstate(invalid="ignore"):
        slack = 8.0 * np.finfo(float).eps * (np.abs(t) + h)
        lo = np.searchsorted(xs, (t + edge) - slack, side="left")
        hi = np.searchsorted(xs, (t + edge) + slack, side="right")
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        mid = (lo + hi) // 2
        with np.errstate(over="ignore"):
            ok = holds((xs[np.minimum(mid, xs.size - 1)] - t) / h)
        open_ = lo < hi
        lo, hi = np.where(open_ & ok, mid + 1, lo), np.where(open_ & ~ok, mid, hi)
    return lo


def _epanechnikov_sums(xs, ys, ws, h, t):
    """Numerator and denominator of the Epanechnikov smoother from running sums
    over x-sorted data, in O((n + m) log n) time and O(n + m) memory.

    The support of t is the index window of points with |x - t| / h < 1, tested
    with the rounding of the kernel itself, so points where the kernel is zero
    fall outside it.  The points are binned into cells of width h, each anchored at its
    centre a.  A window meets at most three cells (a fourth only by rounding,
    where the kernel vanishes), and on a cell
    1 - ((x - t)/h)^2 = (1 - d^2) - 2 d u - u^2 with |u| = |x - a|/h <= 0.5 and
    |d| = |a - t|/h < 1.5.  So running sums of w u^k and w y u^k, k <= 2, give
    each window's sums without the cancellation of a global origin, where
    (t/h)^2 is in the hundreds (Fan & Marron 1994).
    """
    n = xs.size
    lo = _prefix_length(xs, t, h, lambda s: s <= -1.0, -h)
    hi = _prefix_length(xs, t, h, lambda s: s < 1.0, h)
    has = np.flatnonzero(hi > lo)
    lo, hi, tw = lo[has], hi[has], t[has]

    # cells restart after each gap wider than 2h, which no window spans, so a
    # cell index stays below 2n however small h is
    run_start = np.concatenate([[True], np.diff(xs) > 2.0 * h])
    origin = xs[run_start][np.cumsum(run_start) - 1]
    cell = np.floor((xs - origin) / h)
    anchor = origin + (cell + 0.5) * h
    u = (xs - anchor) / h
    boundary = np.append(run_start, True)
    boundary[1:-1] |= np.diff(cell) != 0
    starts = np.flatnonzero(boundary)
    cell_end = np.append(np.repeat(starts[1:], np.diff(starts)), n)

    terms = np.stack([ws, ws * u, ws * u * u])
    terms = np.concatenate([terms, terms * ys])
    # each row splits into multiples of 2^-30 of its largest term, whose running
    # sums and their differences are exact for fewer than 2^23 points, and a
    # remainder below half that step: a window's sum keeps its own accuracy
    # however much weight lies before it
    step = 2.0 ** (np.frexp(np.max(np.abs(terms), axis=1, initial=0.0))[1] - 30)[:, None]
    coarse = np.round(terms / step) * step
    running = np.zeros((n + 1, 12))
    np.cumsum(np.concatenate([coarse, terms - coarse]).T, axis=0, out=running[1:])

    acc = np.zeros((2, tw.size))
    weight = np.zeros(tw.size)
    start = lo
    for _ in range(3):
        end = np.minimum(cell_end[start], hi)
        diff = running[end] - running[start]
        s = (diff[:, :6] + diff[:, 6:]).T
        d = (anchor[np.minimum(start, hi - 1)] - tw) / h
        acc += (1.0 - d * d) * s[0::3] - 2.0 * d * s[1::3] - s[2::3]
        weight += s[0]
        start = end
    num = np.zeros(t.shape)
    den = np.zeros(t.shape)
    den[has] = 0.75 * acc[0]
    num[has] = 0.75 * acc[1]
    # the sums are accurate to a few ulps of the window's weight, which the
    # kernel mass matches unless that weight sits at the window's edges; below
    # 1/64 of it the window is summed point by point, a bounded block at a time
    edge = acc[0] < weight / 64.0
    lo, hi, tw, edge = lo[edge], hi[edge], tw[edge], has[edge]
    rows = max(1, KERNEL_CHUNK // int(np.max(hi - lo, initial=1)))
    for first in range(0, edge.size, rows):
        part = slice(first, first + rows)
        num[edge[part]], den[edge[part]] = _window_sums(xs, ys, ws, h, tw[part], lo[part], hi[part])
    return num, den


@dataclass
class TableFn(SmoothFn):
    """Linear interpolation through (x, value) with constant extrapolation at the ends."""

    x: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.domain = (float(self.x.min()), float(self.x.max()))

    def _eval(self, t):
        return np.interp(t, self.x, self.values)

    def to_dict(self):
        return {"smooth_fn": "table", "x": self.x.tolist(), "values": self.values.tolist()}


@dataclass
class ConstantFn(SmoothFn):
    value: float
    domain: tuple[float, float] = (-np.inf, np.inf)

    def _eval(self, t):
        return np.full_like(t, self.value)

    def to_dict(self):
        return {"smooth_fn": "constant", "value": self.value}


@dataclass
class SumFn(SmoothFn):
    parts: list

    def __post_init__(self):
        self.domain = (
            max(p.domain[0] for p in self.parts),
            min(p.domain[1] for p in self.parts),
        )

    def _eval(self, t):
        out = np.zeros_like(t)
        for p in self.parts:
            out = out + p(t)
        return out

    def to_dict(self):
        return {"smooth_fn": "sum", "parts": [p.to_dict() for p in self.parts]}


def smooth_fn_from_dict(d: dict) -> SmoothFn:
    kind = d["smooth_fn"]
    if kind == "spline":
        return SplineFn(
            BSplineBasis.from_dict(d["basis"]),
            np.asarray(d["coef"]),
            d.get("gcv_lambda"),
            d.get("fallback", False),
        )
    if kind == "kernel":
        if d["kernel"] != "epanechnikov":
            raise ValueError(f"unknown kernel {d['kernel']!r}")
        return KernelFn(np.asarray(d["x"]), np.asarray(d["y"]), np.asarray(d["w"]), d["bandwidth"])
    if kind == "table":
        return TableFn(np.asarray(d["x"]), np.asarray(d["values"]))
    if kind == "constant":
        return ConstantFn(d["value"])
    if kind == "sum":
        return SumFn([smooth_fn_from_dict(p) for p in d["parts"]])
    raise ValueError(f"unknown smooth fn {kind!r}")


def weighted_spline_smooth(x, y, w=None, n_knots: int | None = None) -> SmoothFn | list[SmoothFn]:
    """Penalized weighted least-squares cubic B-spline fit on the range of x, with
    GCV-chosen penalty.

    Minimizes sum w_i (y_i - g(x_i))^2 + lam * ||D2 coef||^2 over the fixed
    log-spaced lambda grid.  Knots sit at quantiles of the positively weighted
    x, `knot_rule` of their count unless `n_knots` is given.  Degenerate inputs
    (too few weighted points for the basis) fall back to the global weighted
    mean, flagged on the result.  A y of shape (n, k) gives a list of k fits,
    one per column, that share the basis and the per-lambda hat traces; each
    column chooses its own lambda.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    if y.ndim not in (1, 2) or not (len(x) == len(y) == len(w)):
        raise ValueError("x, y, w must have equal length, y of shape (n,) or (n, k)")
    if len(x) < 4:
        raise ValueError("need at least 4 points")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    wsum = w.sum()
    if wsum <= 0:
        raise ValueError("all weights are zero")
    columns = [y] if y.ndim == 1 else list(y.T)
    fits = _spline_fits(x, columns, w, n_knots)
    return fits[0] if y.ndim == 1 else fits


def _spline_fits(x, columns, w, n_knots) -> list[SplineFn]:
    def mean_fits(basis):
        return [SplineFn(basis, np.full(basis.dimension, np.average(y, weights=w)), None, True) for y in columns]

    lo, hi = float(x.min()), float(x.max())
    if not lo < hi:
        return mean_fits(BSplineBasis(0, (), (lo, lo + 1.0)))
    active = w > 0
    if n_knots is None:
        n_knots = max(1, knot_rule(int(active.sum())))
    basis = BSplineBasis(3, place_knots(x[active], n_knots, (lo, hi)), (lo, hi))
    m = basis.dimension
    if int(active.sum()) < m:
        return mean_fits(basis)

    B = bspline_eval(basis, x)
    BW = B * w[:, None]
    btb = B.T @ BW
    btys = [BW.T @ y for y in columns]
    D = np.diff(np.eye(m), n=2, axis=0)
    P = D.T @ D
    n = len(x)

    best = [None] * len(columns)
    for lam in LAMBDA_GRID:
        A = btb + lam * P
        try:
            coefs = [np.linalg.solve(A, bty) for bty in btys]
            hat_trace = float(np.trace(np.linalg.solve(A, btb)))
        except np.linalg.LinAlgError:
            continue
        denom = max(1.0 - hat_trace / n, 1e-10)
        for j, (y, coef) in enumerate(zip(columns, coefs)):
            fitted = B @ coef
            resid = y - fitted
            rss = float(np.sum(w * resid * resid)) / n
            gcv = rss / denom**2
            if best[j] is None or gcv < best[j][0] - 1e-15:
                best[j] = (gcv, lam, coef, fitted)
    if None in best:  # a singular system fails every column alike
        return mean_fits(basis)
    fits = []
    for _, lam, coef, fitted in best:
        fn = SplineFn(basis, coef, lam, False)
        fn._fitted = (x, fitted)
        fits.append(fn)
    return fits


def _fitted_values(fn: SmoothFn, x) -> np.ndarray:
    """fn(x).  A p-spline fit hands over its GCV pass's B @ coef once, when x
    is the very array (unchanged since) that the fit was made on: the same
    bits, as the fit's boundary is the range of x, so fn(x) would rebuild the
    same B.  Any other call evaluates fn(x)."""
    fitted = fn.__dict__.pop("_fitted", None)
    return fitted[1] if fitted is not None and fitted[0] is x else fn(x)


def silverman_bandwidth(x, w=None) -> float:
    """0.9 * min(weighted sd, IQR/1.34) * n**(-1/5)."""
    x = np.asarray(x, dtype=float)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    mean = np.average(x, weights=w)
    sd = math.sqrt(max(np.average((x - mean) ** 2, weights=w), 0.0))
    q75, q25 = np.percentile(x, [75, 25])
    spread = min(sd, (q75 - q25) / 1.34) if q75 > q25 else sd
    return 0.9 * spread * len(x) ** (-0.2)


def kernel_smooth(x, y, w=None, bandwidth=None) -> KernelFn:
    """Nadaraya-Watson weighted Epanechnikov kernel regression of y on x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(x) if w is None else np.asarray(w, dtype=float)
    if x.size == 0:
        raise ValueError("empty data")
    if bandwidth is None:
        bandwidth = silverman_bandwidth(x, w)
        if bandwidth <= 0:
            # degenerate spread: nearest-point semantics via an infinitesimal window
            bandwidth = 1e-300
    elif not 0 < bandwidth < np.inf:
        raise ValueError("bandwidth must be positive and finite")
    return KernelFn(x, y, w, float(bandwidth))


def pava_isotonic(y, w=None) -> np.ndarray:
    """Weighted least-squares projection onto nondecreasing vectors (pool adjacent
    violators), of one vector y of shape (g,) or of each row of shape (n, g); the
    g weights are shared by all rows."""
    y = np.asarray(y, dtype=float)
    rows = np.atleast_2d(y)
    n, g = rows.shape[0], rows.shape[-1]
    w = np.ones(g) if w is None else np.asarray(w, dtype=float)
    if y.ndim not in (1, 2) or w.shape != (g,) or g < 1:
        raise ValueError("y must have shape (g,) or (n, g) with g >= 1 and w shape (g,)")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")

    # per row a stack of blocks (mean, weight, count) from flat index base,
    # merged while means decrease; a block merged into the one below keeps count 0
    means = np.empty(n * g)
    weights = np.empty(n * g)
    counts = np.zeros(n * g, dtype=np.int64)
    base = np.arange(n) * g
    top = np.zeros(n, dtype=np.intp)
    for i in range(g):
        slot = base + top
        means[slot], weights[slot], counts[slot] = rows[:, i], w[i], 1
        top += 1
        live = np.flatnonzero(top > 1)
        while live.size:
            b = base[live] + top[live] - 1
            a = b - 1
            merge = means[a] >= means[b]
            live, a, b = live[merge], a[merge], b[merge]
            wtot = weights[a] + weights[b]
            means[a] = (weights[a] * means[a] + weights[b] * means[b]) / wtot
            weights[a] = wtot
            counts[a] += counts[b]
            counts[b] = 0
            top[live] -= 1
            live = live[top[live] > 1]
    out = np.repeat(means, counts)
    return out if y.ndim == 1 else out.reshape(n, g)
