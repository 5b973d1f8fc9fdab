import numpy as np
import pytest

import vewane.report
from vewane.core import FitResult, NonIdentifiableError, VEBasisSpec, VewaneError
from vewane.report import (
    VECurve,
    monotone_ci_mc,
    monotonize_curve,
    read_curve,
    ve_curve,
    write_curve,
)

from .oracles import isotonic_by_partition, pava_loop

LINEAR = VEBasisSpec("linear")


def make_fit(beta, cov, basis=LINEAR):
    return FitResult(method="sieve", beta=np.asarray(beta, float),
                     beta_cov=np.asarray(cov, float), basis=basis)


class TestVeCurve:
    def test_waned_to_zero(self):
        fit = make_fit([-1.0, 1.0], np.zeros((2, 2)))
        curve = ve_curve(fit, [1.0])
        assert curve.f_hat[0] == pytest.approx(0.0)
        assert curve.ve[0] == pytest.approx(0.0)

    def test_identity_cov_se(self):
        fit = make_fit([0.0, 0.0], np.eye(2))
        curve = ve_curve(fit, [1.0])
        assert curve.f_se[0] == pytest.approx(np.sqrt(2.0))

    def test_zero_cov_degenerate_band(self):
        fit = make_fit([-0.5, 0.2], np.zeros((2, 2)))
        curve = ve_curve(fit, np.linspace(0, 1, 5))
        assert np.allclose(curve.ve_lo, curve.ve)
        assert np.allclose(curve.ve_hi, curve.ve)

    def test_bands_ordered(self, rng):
        cov = rng.normal(size=(2, 2))
        cov = cov @ cov.T
        fit = make_fit([-1.0, 0.5], cov)
        curve = ve_curve(fit, np.linspace(0, 1, 31))
        assert np.all(curve.ve_lo <= curve.ve + 1e-12)
        assert np.all(curve.ve <= curve.ve_hi + 1e-12)

    def test_non_psd_cov_rejected(self):
        fit = make_fit([0.0, 0.0], [[1.0, 0.0], [0.0, -0.5]])
        with pytest.raises(VewaneError):
            ve_curve(fit, [0.5])

    def test_strain_required_for_multinomial(self):
        fit = FitResult(method="sieve-multinomial", beta=np.zeros(4), beta_cov=np.eye(4),
                        basis=[LINEAR, LINEAR], strains=[1, 2])
        with pytest.raises(VewaneError):
            ve_curve(fit, [0.5])
        curve = ve_curve(fit, [0.5], strain=2)
        assert curve.meta["strain"] == 2


class TestMonotonize:
    def _curve(self, f_hat, se):
        f_hat = np.asarray(f_hat, float)
        se = np.asarray(se, float)
        z = 1.959963984540054
        return VECurve(
            tau_grid=np.linspace(0, 1, len(f_hat)),
            f_hat=f_hat,
            f_se=se,
            ve=1 - np.exp(f_hat),
            ve_lo=1 - np.exp(f_hat + z * se),
            ve_hi=1 - np.exp(f_hat - z * se),
            meta={"level": 0.95},
        )

    def test_already_monotone_unchanged(self):
        curve = monotonize_curve(self._curve([-2.0, -1.0, 0.0], [0.5, 0.5, 0.5]))
        assert np.allclose(curve.f_mono, curve.f_hat)
        assert np.allclose(curve.ve_mono, curve.ve)

    def test_pools_first_two(self):
        curve = monotonize_curve(self._curve([-1.0, -1.5, -0.5], [1.0, 1.0, 1.0]))
        assert np.allclose(curve.f_mono, [-1.25, -1.25, -0.5])

    def test_strictly_decreasing_pools_to_weighted_mean(self):
        f = np.array([0.4, 0.1, -0.3])
        curve = monotonize_curve(self._curve(f, [1.0, 1.0, 1.0]))
        assert np.allclose(curve.f_mono, f.mean())

    def test_monotone_bands_stay_ordered(self, rng):
        for _ in range(20):
            f = rng.normal(0, 1, 9)
            se = rng.uniform(0.1, 1.0, 9)
            curve = monotonize_curve(self._curve(f, se))
            assert np.all(curve.ve_mono_lo <= curve.ve_mono + 1e-12)
            assert np.all(curve.ve_mono <= curve.ve_mono_hi + 1e-12)
            assert np.all(np.diff(curve.f_mono) >= -1e-12)

    def test_precision_weighting_matches_partition_oracle(self, rng):
        f = rng.normal(0, 1, 6)
        se = rng.uniform(0.2, 2.0, 6)
        curve = monotonize_curve(self._curve(f, se))
        want = isotonic_by_partition(f, 1.0 / se**2)
        assert np.allclose(curve.f_mono, want, atol=1e-9)

    def test_zero_se_rejected(self):
        with pytest.raises(VewaneError):
            monotonize_curve(self._curve([0.0, 1.0], [0.0, 1.0]))


class TestMonotoneCiMc:
    def test_zero_cov_bands_collapse_to_pava(self):
        fit = make_fit([-1.0, -0.5], np.zeros((2, 2)))
        grid = np.linspace(0, 1, 11)
        lo, hi = monotone_ci_mc(fit, grid, n_draws=50, seed=4)
        from vewane.smoothing import pava_isotonic

        want = pava_isotonic(fit.beta[0] + fit.beta[1] * grid)
        assert np.allclose(lo, want) and np.allclose(hi, want)

    def test_seed_determinism(self):
        fit = make_fit([-1.0, 0.5], [[0.05, 0.0], [0.0, 0.2]])
        grid = np.linspace(0, 1, 7)
        a = monotone_ci_mc(fit, grid, n_draws=300, seed=11)
        b = monotone_ci_mc(fit, grid, n_draws=300, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_bands_contain_pava_point_estimate(self, rng):
        from vewane.smoothing import pava_isotonic

        hits = 0
        total = 0
        for k in range(20):
            cov = rng.normal(size=(2, 2)) * 0.3
            cov = cov @ cov.T + 0.01 * np.eye(2)
            fit = make_fit(rng.normal(0, 1, 2), cov)
            grid = np.linspace(0, 1, 9)
            lo, hi = monotone_ci_mc(fit, grid, n_draws=500, seed=k)
            point = pava_isotonic(fit.beta[0] + fit.beta[1] * grid)
            total += len(grid)
            hits += int(np.sum((point >= lo - 1e-12) & (point <= hi + 1e-12)))
        assert hits / total >= 0.99


def two_strain_fit():
    """A two-strain fit whose strain 2 is flagged non-identifiable, as the
    multinomial fits flag a strain without events: NaN coefficients and covariance."""
    beta = np.array([-1.0, 0.5, np.nan, np.nan])
    cov = np.full((4, 4), np.nan)
    cov[:2, :2] = [[0.05, 0.01], [0.01, 0.2]]
    return FitResult(method="sieve-multinomial", beta=beta, beta_cov=cov, basis=[LINEAR, LINEAR], strains=[1, 2])


def _curve_f(fit, strain):
    curve = ve_curve(fit, np.linspace(0, 1, 5), strain=strain)
    return curve.f_hat, curve.f_se


BLOCK_USERS = {
    "ve_curve": _curve_f,
    "monotone_ci_mc": lambda fit, strain: monotone_ci_mc(fit, np.linspace(0, 1, 5), n_draws=50, strain=strain),
}


@pytest.mark.parametrize("user", BLOCK_USERS)
class TestStrainBlock:
    def test_non_identifiable_strain_rejected(self, user):
        with pytest.raises(NonIdentifiableError):
            BLOCK_USERS[user](two_strain_fit(), 2)

    def test_strain_with_a_binary_fit_rejected(self, user):
        with pytest.raises(VewaneError, match="non-multinomial"):
            BLOCK_USERS[user](make_fit([-1.0, 0.5], np.eye(2) * 0.1), 1)

    @pytest.mark.parametrize("strain", [None, 3])
    def test_multinomial_fit_needs_one_of_its_strains(self, user, strain):
        with pytest.raises(VewaneError):
            BLOCK_USERS[user](two_strain_fit(), strain)

    def test_strain_block_reads_as_its_binary_fit(self, user):
        fit = two_strain_fit()
        got = BLOCK_USERS[user](fit, 1)
        want = BLOCK_USERS[user](make_fit(fit.beta[:2], fit.beta_cov[:2, :2]), None)
        assert all(np.all(np.isfinite(a)) for a in got)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def _pava_per_row(y, w=None):
    return np.array([pava_loop(row, w) for row in y])


class TestRowWisePava:
    """One row-wise PAVA call gives the bands that one call per row gave."""

    FITS = [
        make_fit([-1.0, 0.5], [[0.05, 0.01], [0.01, 0.2]]),
        make_fit([0.2, -0.4], [[0.3, -0.1], [-0.1, 0.4]]),
        make_fit([-0.3, -1.0, 1.0], np.diag([0.04, 0.02, 0.5]), VEBasisSpec("ramp", ramp_length=14 / 365)),
    ]

    def _both(self, monkeypatch, compute):
        got = compute()
        monkeypatch.setattr(vewane.report, "pava_isotonic", _pava_per_row)
        want = compute()
        monkeypatch.undo()
        return got, want

    @pytest.mark.parametrize("k", range(len(FITS)))
    def test_mc_bands_match_per_draw_loop(self, k, monkeypatch):
        grid = np.linspace(0.0, 0.6, 31)
        got, want = self._both(monkeypatch, lambda: monotone_ci_mc(self.FITS[k], grid, n_draws=400, seed=k))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("k", range(len(FITS)))
    def test_monotonized_curve_matches_per_row_loop(self, k, monkeypatch):
        curve = ve_curve(self.FITS[k], np.linspace(0.0, 0.6, 31))
        got, want = self._both(monkeypatch, lambda: monotonize_curve(curve))
        for field in ("f_mono", "ve_mono", "ve_mono_lo", "ve_mono_hi"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        fit = make_fit([-1.0, 0.3], [[0.04, 0.01], [0.01, 0.09]])
        curve = monotonize_curve(ve_curve(fit, np.linspace(0, 1, 17)))
        path = tmp_path / "curve.csv"
        write_curve(curve, path)
        back = read_curve(path)
        for field in ("tau_grid", "f_hat", "f_se", "ve", "ve_lo", "ve_hi",
                      "f_mono", "ve_mono", "ve_mono_lo", "ve_mono_hi"):
            assert np.array_equal(getattr(back, field), getattr(curve, field)), field

    def test_empty_grid_header_only(self, tmp_path):
        fit = make_fit([-1.0, 0.3], np.eye(2) * 0.01)
        curve = ve_curve(fit, np.zeros(0))
        path = tmp_path / "empty.csv"
        write_curve(curve, path)
        assert path.read_text().strip().count("\n") == 0
        assert read_curve(path).tau_grid.size == 0

    def test_three_point_curve_four_lines(self, tmp_path):
        fit = make_fit([-1.0, 0.3], np.eye(2) * 0.01)
        path = tmp_path / "c.csv"
        write_curve(ve_curve(fit, [0.1, 0.2, 0.3]), path)
        assert len(path.read_text().strip().splitlines()) == 4


class TestNeverWorse:
    def test_equal_weight_projection_never_worse(self, rng):
        # nondecreasing truth: projection cannot increase the plain MSE
        from vewane.smoothing import pava_isotonic

        grid = np.linspace(0, 1, 15)
        truth = -1.0 + grid
        for _ in range(200):
            f_hat = truth + rng.normal(0, 0.3, grid.size)
            mono = pava_isotonic(f_hat)
            assert np.mean((mono - truth) ** 2) <= np.mean((f_hat - truth) ** 2) + 1e-12

    def test_weighted_projection_never_worse_in_its_norm(self, rng):
        from vewane.smoothing import pava_isotonic

        grid = np.linspace(0, 1, 15)
        truth = -1.0 + grid
        for _ in range(200):
            f_hat = truth + rng.normal(0, 0.3, grid.size)
            w = rng.uniform(0.2, 5.0, grid.size)
            mono = pava_isotonic(f_hat, w)
            lhs = np.average((mono - truth) ** 2, weights=w)
            rhs = np.average((f_hat - truth) ** 2, weights=w)
            assert lhs <= rhs + 1e-12
