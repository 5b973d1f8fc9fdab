import math

import numpy as np
import pytest

from vewane.core import Cause, VEBasisSpec, VewaneError
from vewane.sieve import FixedOffset, fit_sieve_binary
from vewane.smoothing import ConstantFn
from vewane.surveillance import (
    SurveillanceSeries,
    VariantMix,
    impute_strains,
    load_offset,
    read_mixture_csv,
    read_surveillance_csv,
    save_offset,
    sda_tt2_offset,
    sensitivity_offset,
    tt1_offset,
)

from .conftest import dataset_rows, make_records


class TestTt1Offset:
    def test_two_to_one(self):
        series = SurveillanceSeries((0.5,), (100,), (50,))
        fn = tt1_offset(series)
        assert fn(0.5)[0] == pytest.approx(math.log(100.5 / 50.5))

    def test_equal_counts_zero(self):
        series = SurveillanceSeries((0.1, 0.5, 0.9), (7, 30, 4), (7, 30, 4))
        fn = tt1_offset(series)
        assert np.allclose(fn([0.1, 0.3, 0.9]), 0.0)

    def test_zero_count_correction(self):
        series = SurveillanceSeries((0.5,), (0,), (10,))
        assert tt1_offset(series)(0.5)[0] == pytest.approx(math.log(0.5 / 10.5))

    def test_antisymmetry(self):
        d1, d0 = (4, 90, 12), (9, 33, 0)
        t = (0.2, 0.5, 0.8)
        fwd = tt1_offset(SurveillanceSeries(t, d1, d0))
        rev = tt1_offset(SurveillanceSeries(t, d0, d1))
        grid = np.linspace(0, 1, 21)
        assert np.allclose(fwd(grid), -rev(grid), atol=1e-12)

    def test_requires_both_columns(self):
        with pytest.raises(VewaneError):
            tt1_offset(SurveillanceSeries((0.5,), (10,)))

    def test_empty_series_rejected(self):
        with pytest.raises(VewaneError):
            SurveillanceSeries((), ())

    def test_interpolation_and_constant_extension(self):
        series = SurveillanceSeries((0.25, 0.75), (10, 30), (10, 10))
        fn = tt1_offset(series)
        v1, v2 = math.log(10.5 / 10.5), math.log(30.5 / 10.5)
        assert fn(0.5)[0] == pytest.approx((v1 + v2) / 2)
        assert fn(0.0)[0] == pytest.approx(v1)
        assert fn(1.0)[0] == pytest.approx(v2)


class TestSdaTt2Offset:
    def test_constant_series_zero(self):
        fn, free = sda_tt2_offset(SurveillanceSeries((0.2, 0.5, 0.8), (40, 40, 40)))
        assert free is True
        assert np.allclose(fn([0.2, 0.5, 0.8]), 0.0, atol=1e-12)

    def test_log_geomean_centering(self):
        c = 20.0
        d2 = round(c * math.exp(2) + (math.exp(2) - 1) / 2)  # corrected counts (c+1/2, (c+1/2)e^2)
        fn, _ = sda_tt2_offset(SurveillanceSeries((0.25, 0.75), (20, d2)))
        vals = fn([0.25, 0.75])
        assert vals[0] == pytest.approx(-1.0, abs=1e-3)
        assert vals[1] == pytest.approx(1.0, abs=1e-3)

    def test_single_bin_zero(self):
        fn, _ = sda_tt2_offset(SurveillanceSeries((0.5,), (17,)))
        assert fn(0.5)[0] == 0.0

    def test_mean_zero_over_bins(self, rng):
        t = np.sort(rng.uniform(0, 1, 12))
        counts = rng.integers(1, 500, 12)
        fn, _ = sda_tt2_offset(SurveillanceSeries(tuple(t), tuple(int(c) for c in counts)))
        assert float(np.mean(fn(t))) == pytest.approx(0.0, abs=1e-12)


class TestVariantMix:
    def test_single_strain(self):
        mix = VariantMix((0.5,), (1,), ((1.0,),))
        assert mix.lookup(0.3)[0, 0] == 1.0

    def test_counts_normalized(self):
        mix = VariantMix.from_counts([0.5], {1: [30], 2: [70]})
        assert np.allclose(mix.lookup(0.5), [[0.3, 0.7]])

    def test_constant_extension_before_first_bin(self):
        mix = VariantMix.from_counts([0.4, 0.8], {1: [30, 10], 2: [70, 90]})
        assert np.allclose(mix.lookup(0.01), [[0.3, 0.7]])
        assert np.allclose(mix.lookup(0.99), [[0.1, 0.9]])

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(VewaneError):
            VariantMix((0.5,), (1, 2), ((0.5, 0.6),))

    def test_mixture_csv_round_trip(self, tmp_path):
        path = tmp_path / "mix.csv"
        path.write_text(
            "time,strain,proportion\n0.25,1,0.8\n0.25,2,0.2\n0.75,1,0.1\n0.75,2,0.9\n"
        )
        mix = read_mixture_csv(path)
        assert mix.strains == (1, 2)
        assert np.allclose(mix.lookup(0.3), [[0.8, 0.2]])
        assert np.allclose(mix.lookup(0.8), [[0.1, 0.9]])


class TestImputeStrains:
    def _dataset(self, n, with_strains=False):
        rows = []
        for i in range(n):
            rows.append((f"p{i}", None, 0.1 + 0.8 * i / n, Cause.PREVENTABLE,
                         1 if with_strains else None))
        return make_records(rows)

    def test_degenerate_mixture(self):
        ds = self._dataset(50)
        mix = VariantMix((0.5,), (1, 2), ((1.0, 0.0),))
        out = impute_strains(ds, mix, seed=1)
        assert np.all(out.arrays()["strain"] == 1)

    def test_half_half_fraction(self):
        ds = self._dataset(10_000)
        mix = VariantMix((0.5,), (1, 2), ((0.5, 0.5),))
        out = impute_strains(ds, mix, seed=2)
        frac = np.mean(out.arrays()["strain"] == 1)
        assert frac == pytest.approx(0.5, abs=0.015)

    def test_existing_strains_untouched(self):
        ds = self._dataset(20, with_strains=True)
        mix = VariantMix((0.5,), (1, 2), ((0.0, 1.0),))
        out = impute_strains(ds, mix, seed=3)
        assert list(dataset_rows(out)) == list(dataset_rows(ds))

    def test_deterministic(self):
        ds = self._dataset(200)
        mix = VariantMix((0.5,), (1, 2), ((0.5, 0.5),))
        a = impute_strains(ds, mix, seed=9)
        b = impute_strains(ds, mix, seed=9)
        assert list(dataset_rows(a)) == list(dataset_rows(b))


class TestSensitivityOffset:
    def test_null(self):
        fn = sensitivity_offset([0.2, 0.8], [1.0, 1.0])
        assert np.allclose(fn([0.3, 0.7]), 0.0)

    def test_constant_e(self):
        fn = sensitivity_offset([0.2, 0.8], [math.e, math.e])
        assert np.allclose(fn([0.5]), 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(VewaneError):
            sensitivity_offset([0.5], [0.0])

    def test_offset_absorbed_into_intercept_direction(self):
        # all subjects vaccinated at 0 with a constant VE basis: adding log(c0)=1
        # to the fixed offset shifts beta by exactly -1
        rows = [(f"p{i}", 0.0, 0.1 + 0.008 * i, Cause.PREVENTABLE) for i in range(60)]
        rows += [(f"i{i}", 0.0, 0.105 + 0.008 * i, Cause.IRRELEVANT) for i in range(60)]
        ds = make_records(rows)
        basis = VEBasisSpec("constant")
        base = fit_sieve_binary(ds, basis, alpha=FixedOffset(offset=ConstantFn(0.0)))
        shifted = fit_sieve_binary(ds, basis, alpha=FixedOffset(offset=ConstantFn(1.0)))
        assert shifted.beta[0] == pytest.approx(base.beta[0] - 1.0, abs=1e-8)


class TestOffsetIo:
    def test_round_trip(self, tmp_path):
        series = SurveillanceSeries((0.2, 0.6), (12, 40), (8, 30))
        fn = tt1_offset(series)
        path = tmp_path / "offset.json"
        save_offset(path, fn, free_intercept=False)
        fixed = load_offset(path)
        assert isinstance(fixed, FixedOffset) and not fixed.free_intercept
        grid = np.linspace(0, 1, 9)
        assert np.allclose(fixed.offset(grid), fn(grid))

    def test_surveillance_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("time,count_preventable,count_irrelevant\n0.25,10,5\n0.75,20,40\n")
        series = read_surveillance_csv(path)
        assert series.time_points == (0.25, 0.75)
        assert series.counts_preventable == (10, 20)
        assert series.counts_irrelevant == (5, 40)
