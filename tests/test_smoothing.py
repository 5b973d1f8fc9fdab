import copy
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vewane.smoothing import (
    BSplineBasis,
    KernelFn,
    SplineFn,
    _fitted_values,
    bspline_eval,
    kernel_smooth,
    knot_rule,
    pava_isotonic,
    place_knots,
    silverman_bandwidth,
    smooth_fn_from_dict,
    weighted_spline_smooth,
)

from vewane.core import VEBasisSpec, eval_ve_basis

from .oracles import (
    isotonic_by_partition,
    kernel_smooth_dense,
    max_rel_err,
    naive_bspline_row,
    pava_loop,
    spline_smooth_one_column,
)


class TestBSpline:
    def test_degree_zero_constant(self):
        basis = BSplineBasis(0, (), (0.0, 1.0))
        assert np.allclose(bspline_eval(basis, [0.0, 0.3, 1.0]), 1.0)

    def test_partition_of_unity_cubic(self):
        basis = BSplineBasis(3, (0.2, 0.5, 0.7), (0.0, 1.0))
        t = np.linspace(0, 1, 101)
        vals = bspline_eval(basis, t)
        assert np.all(vals >= 0)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_naive_recursion_at_half(self):
        # cubic on [0,1] with one interior knot, evaluated at the knot itself
        basis = BSplineBasis(3, (0.5,), (0.0, 1.0))
        got = bspline_eval(basis, 0.5)[0]
        want = naive_bspline_row(3, [0.5], (0.0, 1.0), 0.5)
        assert np.allclose(got, want, atol=1e-13)

    def test_matches_naive_recursion_random(self, rng):
        for _ in range(25):
            degree = int(rng.integers(0, 5))
            k = int(rng.integers(0, 5))
            interior = np.sort(rng.uniform(0.05, 0.95, size=k))
            interior = np.unique(np.round(interior, 4))
            basis = BSplineBasis(degree, tuple(interior), (0.0, 1.0))
            ts = np.concatenate([rng.uniform(0, 1, 7), [0.0, 1.0], interior])
            got = bspline_eval(basis, ts)
            for i, t in enumerate(ts):
                want = naive_bspline_row(degree, interior, (0.0, 1.0), t)
                assert np.allclose(got[i], want, atol=1e-12), (degree, interior, t)

    def test_matches_scipy(self, rng):
        from scipy.interpolate import BSpline

        basis = BSplineBasis(3, (0.25, 0.6), (0.0, 1.0))
        t = rng.uniform(0, 1, 50)
        got = bspline_eval(basis, t)
        want = BSpline.design_matrix(t, basis.knot_vector, 3).toarray()
        assert np.allclose(got, want, atol=1e-12)

    def test_outside_boundary_rejected(self):
        basis = BSplineBasis(3, (0.5,), (0.0, 1.0))
        with pytest.raises(ValueError):
            bspline_eval(basis, 1.2)
        with pytest.raises(ValueError):
            bspline_eval(basis, -0.1)

    def test_partition_of_unity_bulk(self, rng):
        # 10^4 random (basis, t) draws
        count = 0
        while count < 10_000:
            degree = int(rng.integers(0, 4))
            k = int(rng.integers(0, 6))
            interior = tuple(np.unique(np.round(np.sort(rng.uniform(0.1, 0.9, k)), 3)))
            basis = BSplineBasis(degree, interior, (0.0, 1.0))
            t = rng.uniform(0, 1, 200)
            vals = bspline_eval(basis, t)
            assert np.max(np.abs(vals.sum(axis=1) - 1.0)) < 1e-10
            count += t.size


class TestKnotRule:
    @pytest.mark.parametrize("n,k", [(10_000, 13), (1, 1), (20_404, 17), (900, 6)])
    def test_examples(self, n, k):
        assert knot_rule(n) == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            knot_rule(0)

    def test_quantile_placement(self):
        x = np.linspace(0, 1, 101)
        knots = place_knots(x, 3, (0.0, 1.0))
        assert np.allclose(knots, [0.25, 0.5, 0.75], atol=1e-9)


class TestWeightedSplineSmooth:
    def test_constant_reproduced(self, rng):
        x = rng.uniform(0, 1, 60)
        fn = weighted_spline_smooth(x, np.full(60, 3.25), rng.uniform(0.5, 2, 60))
        assert np.allclose(fn(np.linspace(x.min(), x.max(), 11)), 3.25, atol=1e-9)

    def test_line_reproduced(self, rng):
        x = np.sort(rng.uniform(0, 1, 80))
        y = 0.7 + 2.5 * x
        fn = weighted_spline_smooth(x, y, np.ones(80))
        assert np.allclose(fn(x), y, atol=1e-8)

    def test_noisy_sine_beats_raw_variance(self, rng):
        x = np.sort(rng.uniform(0, 1, 500))
        y = np.sin(2 * np.pi * x) + rng.normal(0, 0.3, 500)
        fn = weighted_spline_smooth(x, y, np.ones(500))
        resid = y - fn(x)
        assert np.mean(resid**2) < np.var(y)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_spline_smooth(np.arange(5.0), np.arange(5.0), np.zeros(5))

    def test_fallback_to_mean_when_too_few_points(self):
        x = np.array([0.0, 0.3, 0.6, 1.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([1.0, 1.0, 0.0, 0.0])
        fn = weighted_spline_smooth(x, y, w, n_knots=6)
        assert isinstance(fn, SplineFn) and fn.fallback
        assert np.allclose(fn(0.5), np.average(y, weights=w))

    def test_permutation_invariance(self, rng):
        x = rng.uniform(0, 1, 120)
        y = np.cos(3 * x) + rng.normal(0, 0.1, 120)
        w = rng.uniform(0.2, 1.5, 120)
        fn1 = weighted_spline_smooth(x, y, w)
        perm = rng.permutation(120)
        fn2 = weighted_spline_smooth(x[perm], y[perm], w[perm])
        grid = np.linspace(x.min(), x.max(), 17)
        assert np.allclose(fn1(grid), fn2(grid), atol=1e-9)


def assert_same_spline(got, want):
    assert isinstance(got, SplineFn) and got.basis == want.basis
    assert got.coef.tobytes() == want.coef.tobytes()
    assert (got.gcv_lambda, got.fallback) == (want.gcv_lambda, want.fallback)


def _spline_cases():
    rng = np.random.default_rng(7)
    n = 400
    x = rng.uniform(0, 1, n)
    y = np.column_stack([np.sin(4 * x) + rng.normal(0, 0.3, n), rng.normal(0, 1, n), np.zeros(n)])
    w = rng.uniform(0.05, 0.25, n)
    tied = np.round(x, 1)
    zero_w = np.where(rng.random(n) < 0.4, 0.0, w)
    return {
        "random": (x, y, w, None),
        "tied x": (tied, y, w, None),
        "zero weights": (x, y, zero_w, None),
        "tied x, zero weights, 6 knots": (tied, y, zero_w, 6),
        "lo == hi": (np.full(n, 0.3), y, w, None),
        "too few active points": (x[:8], y[:8], np.r_[1.0, 1.0, np.zeros(6)], 6),
        "one column": (x, y[:, :1], w, None),
    }


class TestMultiColumnSpline:
    """A y of shape (n, k) shares the basis and the GCV hat traces across its
    columns; each fit equals the one-column oracle bit for bit."""

    @pytest.mark.parametrize("case", list(_spline_cases()))
    def test_columns_match_one_column_oracle(self, case):
        x, y, w, n_knots = _spline_cases()[case]
        fits = weighted_spline_smooth(x, y, w, n_knots=n_knots)
        assert isinstance(fits, list) and len(fits) == y.shape[1]
        for j, fit in enumerate(fits):
            assert_same_spline(fit, spline_smooth_one_column(x, y[:, j], w, n_knots=n_knots))
            assert_same_spline(weighted_spline_smooth(x, y[:, j], w, n_knots=n_knots), fit)

    @pytest.mark.parametrize("case", list(_spline_cases()))
    def test_fitted_values_are_the_evaluated_fits(self, case):
        x, y, w, n_knots = _spline_cases()[case]
        for fn in weighted_spline_smooth(x, y, w, n_knots=n_knots):
            want = fn(x)
            assert _fitted_values(fn, x).tobytes() == want.tobytes()
            assert _fitted_values(fn, x).tobytes() == want.tobytes()  # handed over once, then evaluated

    def test_fitted_values_at_another_x_are_evaluated(self):
        # the GCV pass's values belong to the array the fit was made on, not to its length
        x, y, w, _ = _spline_cases()["random"]
        for other in (np.sort(x), x.copy()):
            fn = weighted_spline_smooth(x, y[:, 0], w)
            assert _fitted_values(fn, other).tobytes() == fn(other).tobytes()
            assert _fitted_values(fn, x).tobytes() == fn(x).tobytes()
        fn = weighted_spline_smooth(x, y[:, 0], w)
        fitted = fn._fitted[1]
        assert _fitted_values(fn, x) is fitted  # handed over at the very array

    def test_copies_leave_the_fitted_values_behind(self):
        x, y, w, _ = _spline_cases()["random"]
        fn = weighted_spline_smooth(x, y[:, 0], w)
        for twin in (copy.copy(fn), copy.deepcopy(fn), pickle.loads(pickle.dumps(fn))):
            assert "_fitted" not in twin.__dict__
            assert twin.to_dict() == fn.to_dict()
            assert _fitted_values(twin, x).tobytes() == fn(x).tobytes()
        assert "_fitted" in fn.__dict__

    def test_fallback_cases_fall_back(self):
        cases = _spline_cases()
        for case in ("lo == hi", "too few active points"):
            x, y, w, n_knots = cases[case]
            assert all(fn.fallback for fn in weighted_spline_smooth(x, y, w, n_knots=n_knots))

    def test_bad_shapes_rejected(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            weighted_spline_smooth(x, np.ones((9, 2)), np.ones(10))
        with pytest.raises(ValueError):
            weighted_spline_smooth(x, np.ones((10, 2, 1)), np.ones(10))


class TestKernelSmooth:
    def test_single_point(self):
        fn = kernel_smooth([0.4], [2.5])
        assert np.allclose(fn([0.0, 0.4, 1.0]), 2.5)

    def test_constant(self, rng):
        x = rng.uniform(0, 1, 50)
        fn = kernel_smooth(x, np.full(50, -1.5), bandwidth=0.2)
        assert np.allclose(fn(np.linspace(0, 1, 9)), -1.5)

    def test_two_point_symmetry(self):
        fn = kernel_smooth([0.0, 1.0], [0.0, 1.0], bandwidth=1.0)
        assert fn([0.5])[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_bandwidth_rejected(self):
        for bandwidth in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                kernel_smooth([0.0, 1.0], [0.0, 1.0], bandwidth=bandwidth)

    def test_silverman_formula(self, rng):
        x = rng.normal(0, 1, 400)
        h = silverman_bandwidth(x)
        sd = x.std()
        iqr = np.subtract(*np.percentile(x, [75, 25]))
        assert h == pytest.approx(0.9 * min(sd, iqr / 1.34) * 400 ** (-0.2), rel=1e-12)

    def test_far_query_uses_nearest_point(self):
        fn = kernel_smooth([0.0, 0.1, 1.0], [5.0, 7.0, 9.0], bandwidth=0.05)
        assert fn([0.5])[0] == pytest.approx(7.0)  # nearest supported point
        assert fn([2.0])[0] == pytest.approx(9.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        # half the points on a 1/64 grid: ties, and with dyadic bandwidths
        # evaluation points exactly at |x - t| = h
        x = np.concatenate([np.round(rng.uniform(0, 1, 150) * 64) / 64, rng.uniform(0, 1, 150)])
        y = rng.normal(0, 1, 300)
        w = rng.uniform(0.05, 2.0, 300)
        w[rng.uniform(size=300) < 0.2] = 0.0
        # far from the origin (t/h up to 128), and a sparse tail weighing 1e-6
        # per point after a cluster weighing 2000
        tail = np.concatenate([rng.uniform(0, 0.5, 2000), rng.uniform(0.5, 1, 20)])
        datasets = [
            (x, y, w),
            (x + 3.0, y, w),
            (tail, rng.normal(0, 1, 2020), np.concatenate([np.ones(2000), np.full(20, 1e-6)])),
        ]
        for x, y, w in datasets:
            for h in (1 / 32, 1 / 8, 0.05, 2.0):
                t = np.concatenate(
                    [
                        np.linspace(x.min() - 0.2, x.max() + 0.2, 57),
                        x,
                        x[:150] + h,
                        x[:150] - h,
                        [np.nan, np.inf, -np.inf, 7.5, -3.0],
                    ]
                )
                got = KernelFn(x, y, w, h)(t)
                want = kernel_smooth_dense(x, y, w, h, t)
                assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
                assert max_rel_err(got, want) < 1e-12, h

    def test_window_of_edge_points_takes_nearest_point(self):
        x = np.array([0.0, 0.25, 0.75, 1.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones(4)
        # both neighbours of 0.5 sit exactly on the window's edge: no kernel mass
        fn = kernel_smooth(x, y, w, bandwidth=0.25)
        assert fn([0.5])[0] == 2.0 == kernel_smooth_dense(x, y, w, 0.25, [0.5])[0]
        # one ulp wider, both carry the same rounding-level mass
        h = np.nextafter(0.25, 1.0)
        fn = kernel_smooth(x, y, w, bandwidth=h)
        assert fn([0.5])[0] == pytest.approx(2.5, abs=1e-12)
        assert max_rel_err(fn([0.5, 0.125]), kernel_smooth_dense(x, y, w, h, [0.5, 0.125])) < 1e-12
        # the points sit at fl(t - h) and fl(t + h), which the kernel's own
        # rounding puts just inside the window
        t, h = 0.6369616873214543, 0.08823814699152238
        x = np.array([0.548723540329932, 0.7251998343129766])
        fn = kernel_smooth(x, y[:2], w[:2], bandwidth=h)
        want = kernel_smooth_dense(x, y[:2], w[:2], h, [t])
        assert 1.0 < want[0] < 2.0 and max_rel_err(fn([t]), want) < 1e-12

    def test_degenerate_bandwidth(self):
        # zero weighted spread gives the infinitesimal window of 1e-300
        cases = [
            (np.full(6, 0.3), np.arange(6.0), np.ones(6)),
            (np.array([0.0, 0.5, 0.5, 1.0, 2.0]), np.arange(5.0), np.array([0.0, 1.0, 1.0, 0.0, 0.0])),
        ]
        for x, y, w in cases:
            fn = kernel_smooth(x, y, w)
            assert fn.bandwidth == 1e-300
            t = np.concatenate([x, [0.25, 0.3, np.nextafter(0.5, 1.0), 5.0, np.nan]])
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                got = fn(t)
            assert max_rel_err(got, kernel_smooth_dense(x, y, w, 1e-300, t)) < 1e-12

    def test_memory_bounded(self):
        rng = np.random.default_rng(5)
        n = 20_000
        x = rng.uniform(0, 1, n)
        fn = kernel_smooth(x, rng.normal(0, 1, n), rng.uniform(0.1, 1.0, n), bandwidth=0.05)
        tracemalloc.start()
        try:
            vals = fn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(vals))
        assert peak < 64 * 2**20  # the dense (m x n) matrix would take 3.2 GB

    def test_saved_form_names_the_kernel(self, rng):
        x = rng.uniform(0, 1, 40)
        fn = kernel_smooth(x, np.sin(x), bandwidth=0.2)
        saved = fn.to_dict()
        assert saved["kernel"] == "epanechnikov"
        assert smooth_fn_from_dict(saved)(x).tobytes() == fn(x).tobytes()
        with pytest.raises(ValueError, match="gaussian"):
            smooth_fn_from_dict(dict(saved, kernel="gaussian"))

    def test_permutation_invariance(self, rng):
        x = rng.uniform(0, 1, 80)
        y = rng.normal(0, 1, 80)
        w = rng.uniform(0.5, 2, 80)
        perm = rng.permutation(80)
        f1 = kernel_smooth(x, y, w, bandwidth=0.15)
        f2 = kernel_smooth(x[perm], y[perm], w[perm], bandwidth=0.15)
        grid = np.linspace(0, 1, 13)
        assert np.allclose(f1(grid), f2(grid), atol=1e-12)


def _pava_rows() -> dict:
    """Name -> (rows, shared weights or None) for the row-wise PAVA checks."""
    rng = np.random.default_rng(41)
    g = 41
    tau = np.linspace(0.0, 0.5, g)
    lines = rng.normal(-1.0, 0.5, (60, 1)) + rng.normal(0.0, 2.0, (60, 1)) * tau
    ramp = VEBasisSpec("ramp", ramp_length=14 / 365)
    ramp_draws = rng.normal((-0.3, -1.0, 1.0), (0.3, 0.3, 1.5), (60, 3)) @ eval_ve_basis(ramp, tau).T
    noisy = lines + rng.normal(0.0, 0.3, lines.shape)
    with_nan = noisy.copy()
    with_nan[rng.random(noisy.shape) < 0.05] = np.nan
    weights = rng.uniform(0.2, 3.0, g)
    return {
        "increasing": (np.abs(lines[:, :1]) * tau + lines[:, :1], None),
        "decreasing": (-np.abs(lines[:, :1]) * tau + lines[:, :1], None),
        "constant": (np.repeat(lines[:, :1], g, axis=1), None),
        "lines": (lines, None),
        "ramp draws": (ramp_draws, None),
        "ties": (rng.integers(0, 3, (60, g)).astype(float), None),
        "noisy": (noisy, None),
        "cumulative": (np.cumsum(rng.normal(0.0, 1.0, (60, g)), axis=1), None),
        "weighted noisy": (noisy, weights),
        "weighted ties": (rng.integers(0, 3, (60, g)).astype(float), weights),
        "nan entries": (with_nan, None),
        "one row": (noisy[:1], weights),
        "one column": (noisy[:, :1], weights[:1]),
    }


PAVA_ROWS = _pava_rows()


class TestPava:
    def test_already_monotone(self):
        assert np.allclose(pava_isotonic([1.0, 2.0, 3.0]), [1, 2, 3])

    def test_pool_of_three(self):
        assert np.allclose(pava_isotonic([3.0, 1.0, 2.0]), [2, 2, 2])

    def test_weighted_pool(self):
        assert np.allclose(pava_isotonic([1.0, 0.0], [1.0, 3.0]), [0.25, 0.25])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            pava_isotonic([1.0, 2.0], [1.0, 0.0])

    def test_matches_partition_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            y = np.round(rng.uniform(-2, 2, n), 2)
            w = np.round(rng.uniform(0.25, 3, n), 2)
            want = isotonic_by_partition(y, w)
            got = pava_isotonic(y, w)
            assert np.allclose(got, want, atol=1e-9), (y.tolist(), w.tolist())

    def test_bad_shapes_rejected(self):
        for y, w in [
            (np.ones((3, 4)), np.ones(3)),
            (np.ones(4), np.ones(5)),
            (np.ones((3, 0)), None),
            (np.ones(0), None),
            (np.ones((2, 3, 4)), None),
            (1.0, None),
        ]:
            with pytest.raises(ValueError):
                pava_isotonic(y, w)
        with pytest.raises(ValueError):
            pava_isotonic(np.ones((3, 2)), [1.0, -1.0])

    @pytest.mark.parametrize("case", sorted(PAVA_ROWS))
    def test_rows_match_loop_oracle(self, case):
        y, w = PAVA_ROWS[case]
        want = np.array([pava_loop(row, w) for row in y])
        got = pava_isotonic(y, w)
        assert got.shape == y.shape and np.array_equal(got, want, equal_nan=True)
        for row, want_row in zip(y[:5], want):
            assert np.array_equal(pava_isotonic(row, w), want_row, equal_nan=True)

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=12),
        st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_nondecreasing_and_idempotent(self, y, seed):
        w = np.random.default_rng(seed).uniform(0.1, 2.0, len(y))
        z = pava_isotonic(y, w)
        assert np.all(np.diff(z) >= -1e-12)
        assert np.allclose(pava_isotonic(z, w), z, atol=1e-12)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving(self, y):
        y = np.asarray(y)
        b = y + np.abs(np.sin(np.arange(len(y)))) + 0.1
        za = pava_isotonic(y)
        zb = pava_isotonic(b)
        assert np.all(za <= zb + 1e-12)
