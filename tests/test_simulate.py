
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kendalltau, ks_2samp

import vewane.simulate
from vewane.bench import preset_scenarios
from vewane.core import RowIds, VEBasisSpec, write_events_csv
from vewane.simulate import (
    LatentDraw,
    ScenarioSpec,
    cumulative_hazard,
    invert_cumulative_hazard,
    sample_latents,
    simulate_cohort,
    simulate_cohort_views,
    substream_seed,
    _rng,
)

from .oracles import invert_by_bisection, participant_ids

# frozen from a one-off n=1e6 run (seed 777) of the default scenario
REFERENCE_RATES = {"irrelevant": 0.043546, "preventable": 0.057876}


PRESET_CELLS = [cell for preset in ("table-cover", "table-foi", "example-app") for cell in preset_scenarios(preset)]
RAMP_CELL = ("ramp14", ScenarioSpec(
    n=2000, ve_basis=VEBasisSpec("ramp", 14 / 365), beta_true=(-0.5, -1.0, 0.8),
    frailty_law="disinhibition-pair",
))


def cohort_draws(scenario):
    """The latents and the two causes' exponential deviates of a cohort, as drawn
    by `simulate_cohort`."""
    rng = _rng(scenario.seed)
    latent = sample_latents(scenario, rng)
    return latent, (rng.standard_exponential(scenario.n), rng.standard_exponential(scenario.n))


def assert_same_times(got, want):
    assert np.array_equal(got, want, equal_nan=True), np.nonzero(~((got == want) | (np.isnan(got) & np.isnan(want))))


def unit_latents(n, v=np.inf, horizon=1.0):
    """Deterministic frailty-1 latents for closed-form hazard checks."""
    v_raw = np.full(n, v if np.isfinite(v) else horizon * 10)
    return LatentDraw(np.ones(n), np.ones(n), v_raw, horizon)


class TestLatents:
    def test_lognormal_log_mean(self):
        sc = ScenarioSpec(n=100_000, sigma_u=2.0, seed=5)
        lat = sample_latents(sc, _rng(sc.seed))
        assert abs(np.log(lat.u_pre).mean()) < 0.02
        assert np.all(lat.u_pre > 0)

    def test_vaccinated_fraction(self):
        sc = ScenarioSpec(n=100_000, seed=6)
        lat = sample_latents(sc, _rng(sc.seed))
        assert lat.vaccinated.mean() == pytest.approx(1 / 1.15, abs=0.01)

    def test_copula_kendall_tau(self):
        sc = ScenarioSpec(n=100_000, vax_law="vulnerable-first", seed=7)
        lat = sample_latents(sc, _rng(sc.seed))
        tau = kendalltau(lat.u_pre, lat.v_raw).statistic
        assert tau == pytest.approx((2 / math.pi) * math.asin(-0.7), abs=0.02)

    def test_disinhibition_means(self):
        sc = ScenarioSpec(n=200_000, frailty_law="disinhibition-pair", seed=8)
        lat = sample_latents(sc, _rng(sc.seed))
        assert np.log(lat.u_pre).mean() == pytest.approx(0.0, abs=0.02)
        assert np.log(lat.u_post).mean() == pytest.approx(1.0, abs=0.02)
        corr = np.corrcoef(np.log(lat.u_pre), np.log(lat.u_post))[0, 1]
        assert corr == pytest.approx(0.2, abs=0.02)

    def test_vulnerable_first_requires_iid_frailty(self):
        sc = ScenarioSpec(n=10, vax_law="vulnerable-first", frailty_law="disinhibition-pair")
        with pytest.raises(ValueError):
            sc.validate()


class TestCumulativeHazard:
    def test_constant_irrelevant(self):
        sc = ScenarioSpec(n=1, lambda00=0.03)
        lam = cumulative_hazard(sc, unit_latents(1), 0, np.array([1.0]))
        assert lam[0] == pytest.approx(0.03, abs=1e-14)

    def test_sinusoid_integral_closes_at_one_year(self):
        # cos(2 pi) - 1 = 0 kills the seasonal term over a full year
        sc = ScenarioSpec(n=1, lambda01=0.06)
        lam = cumulative_hazard(sc, unit_latents(1), 1, np.array([1.0]))
        assert lam[0] == pytest.approx(0.06, abs=1e-12)

    def test_sinusoid_partial_analytic(self):
        sc = ScenarioSpec(n=1, lambda01=0.06)
        t = 0.37
        want = 0.06 * (t + 0.5 * (math.cos(2 * math.pi * t) - 1) / (2 * math.pi))
        lam = cumulative_hazard(sc, unit_latents(1), 1, np.array([t]))
        assert lam[0] == pytest.approx(want, rel=1e-12)

    def test_constant_ve_is_multiplicative(self):
        sc = ScenarioSpec(n=1, beta_true=(-1.0, 0.0))
        t = np.array([0.8])
        unvax = cumulative_hazard(sc, unit_latents(1), 1, t)
        vaxed = cumulative_hazard(sc, unit_latents(1, v=0.0), 1, t)
        assert vaxed[0] == pytest.approx(math.exp(-1) * unvax[0], rel=1e-9)

    def test_waning_ve_quadrature_matches_quad(self):
        from scipy.integrate import quad

        sc = ScenarioSpec(n=1, beta_true=(-1.0, 1.0))
        v = 0.2
        t = 0.9

        def integrand(s):
            return 0.06 * (1 - 0.5 * math.sin(2 * math.pi * s)) * math.exp(-1 + (s - v))

        pre = 0.06 * (v + 0.5 * (math.cos(2 * math.pi * v) - 1) / (2 * math.pi))
        want = pre + quad(integrand, v, t, epsabs=1e-13)[0]
        lam = cumulative_hazard(sc, unit_latents(1, v=v), 1, np.array([t]))
        assert lam[0] == pytest.approx(want, rel=1e-10)

    def test_frailty_doubles_hazard(self):
        sc = ScenarioSpec(n=3)
        base = LatentDraw(np.array([0.5, 1.0, 2.0]), np.array([0.5, 1.0, 2.0]),
                          np.array([0.1, 0.5, 2.0]), 1.0)
        double = LatentDraw(base.u_pre * 2, base.u_post * 2, base.v_raw, 1.0)
        for cause in (0, 1):
            for t in (0.3, 0.77, 1.0):
                a = cumulative_hazard(sc, base, cause, np.full(3, t))
                b = cumulative_hazard(sc, double, cause, np.full(3, t))
                assert np.allclose(b, 2 * a, rtol=1e-12)

    def test_monotone_and_zero_at_origin(self, rng):
        sc = ScenarioSpec(n=20, frailty_law="disinhibition-pair", beta_true=(-1.0, 1.0))
        lat = sample_latents(sc, _rng(3), 20)
        assert np.allclose(cumulative_hazard(sc, lat, 1, np.zeros(20)), 0.0)
        grid = np.sort(rng.uniform(0, 1, 12))
        prev = np.zeros(20)
        for t in grid:
            cur = cumulative_hazard(sc, lat, 1, np.full(20, t))
            assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_out_of_range_rejected(self):
        sc = ScenarioSpec(n=1)
        with pytest.raises(ValueError):
            cumulative_hazard(sc, unit_latents(1), 0, np.array([1.5]))


class TestInversion:
    def test_constant_hazard_exact(self):
        sc = ScenarioSpec(n=2, lambda00=0.03)
        t = invert_cumulative_hazard(sc, unit_latents(2), 0, np.array([0.03, 0.015]))
        assert t[0] == pytest.approx(1.0, abs=1e-11)
        assert t[1] == pytest.approx(0.5, abs=1e-11)

    def test_rate_two(self):
        sc = ScenarioSpec(n=1, lambda00=2.0)
        t = invert_cumulative_hazard(sc, unit_latents(1), 0, np.array([1.0]))
        assert t[0] == pytest.approx(0.5, abs=1e-11)

    def test_none_when_hazard_exhausted(self):
        sc = ScenarioSpec(n=1, lambda00=0.03)
        t = invert_cumulative_hazard(sc, unit_latents(1), 0, np.array([0.5]))
        assert np.isnan(t[0])

    def test_forward_residuals(self, rng):
        sc = ScenarioSpec(n=500, beta_true=(-1.0, 1.0), seed=11)
        lat = sample_latents(sc, _rng(sc.seed), 500)
        e = rng.exponential(size=500) * 0.3 + 1e-4
        t = invert_cumulative_hazard(sc, lat, 1, e)
        ok = ~np.isnan(t)
        lam = cumulative_hazard(sc, lat.take(ok), 1, t[ok])
        assert np.max(np.abs(lam - e[ok])) < 1e-10

    def test_nonpositive_deviate_rejected(self):
        sc = ScenarioSpec(n=1)
        with pytest.raises(ValueError):
            invert_cumulative_hazard(sc, unit_latents(1), 0, np.array([0.0]))

    def test_participant_alone_as_in_cohort(self):
        # the quadrature once summed its weights with a BLAS dot whose last rows
        # took another kernel, so this row's time depended on the batch size
        sc = replace(dict(preset_scenarios("table-cover"))["random-low-wane"],
                     seed=substream_seed(20260809 + 20, 0))
        latent, deviates = cohort_draws(sc)
        whole = invert_cumulative_hazard(sc, latent, 1, deviates[1])
        alone = invert_cumulative_hazard(sc, latent.take([8251]), 1, deviates[1][[8251]])
        assert alone[0] == whole[8251] == invert_by_bisection(sc, latent.take([8251]), 1, deviates[1][[8251]])[0]
        subset = np.random.default_rng(5).permutation(sc.n)[:1500]
        for cause in (0, 1):
            whole = invert_cumulative_hazard(sc, latent, cause, deviates[cause])
            part = invert_cumulative_hazard(sc, latent.take(subset), cause, deviates[cause][subset])
            assert_same_times(part, whole[subset])


class TestInversionMatchesBisection:
    """The replayed inversion equals the 45-level bisection bit for bit."""

    @pytest.mark.parametrize("name,cell", PRESET_CELLS + [RAMP_CELL], ids=lambda x: x if isinstance(x, str) else "")
    def test_preset_cells(self, name, cell):
        for k in range(20):
            sc = replace(cell, n=2000, seed=substream_seed(20261020, k))
            latent, deviates = cohort_draws(sc)
            for cause in (0, 1):
                got = invert_cumulative_hazard(sc, latent, cause, deviates[cause])
                assert_same_times(got, invert_by_bisection(sc, latent, cause, deviates[cause]))

    @pytest.mark.parametrize("horizon", [0.7, 2.5])
    @pytest.mark.parametrize("name,cell", [PRESET_CELLS[4], PRESET_CELLS[6], RAMP_CELL], ids=lambda x: x if isinstance(x, str) else "")
    def test_other_horizons(self, name, cell, horizon):
        for k in range(5):
            sc = replace(cell, n=2000, horizon=horizon, vax_upper=1.15 * horizon, seed=substream_seed(20261021, k))
            latent, deviates = cohort_draws(sc)
            for cause in (0, 1):
                got = invert_cumulative_hazard(sc, latent, cause, deviates[cause])
                assert_same_times(got, invert_by_bisection(sc, latent, cause, deviates[cause]))

    @pytest.mark.parametrize("horizon", [1.0, 2.5, 0.75, 3.0, 2047 / 1024, 1023 / 256, 4095 / 2048, 0.7])
    def test_replay_is_the_halving_path(self, horizon, rng):
        # closed form up to an 11-bit horizon mantissa, halvings above it; over
        # grid points of every level and their float neighbours, values outside
        # [0, horizon], NaN, infinities, signed zeros and a subnormal
        levels = vewane.simulate._REPLAY_LEVELS
        grid = rng.integers(0, 2**18, 600) * (horizon / 2.0 ** rng.integers(18, 43, 600))
        t_hat = np.concatenate([
            grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf), rng.uniform(-0.1, 1.1, 600) * horizon,
            [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, horizon, np.nextafter(horizon, 9.0)],
        ])
        got = vewane.simulate._replay(t_hat, horizon, levels)
        want = vewane.simulate._halving_path(t_hat, horizon, levels)
        for level in levels:
            for a, b in zip(got[level], want[level]):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("offset,levels", [(2.0**-33, 19), (0.05, 45)])
    def test_wrong_estimate_falls_back(self, monkeypatch, offset, levels):
        # an estimate off by many bisection steps fails its checks; those rows
        # are bisected from a coarser checked level, or from [0, horizon]
        estimate = vewane.simulate._closed_form_root
        bisect = vewane.simulate._bisect
        seen = []

        def off_root(scenario, latent, cause, e, lam_end):
            t = estimate(scenario, latent, cause, e, lam_end)
            return np.clip(t + offset * np.where(np.arange(t.size) % 2, 1.0, -1.0), 0.0, scenario.horizon)

        def spy(scenario, latent, cause, e, lo, hi, rows_levels):
            seen.append(int(rows_levels.max()))
            return bisect(scenario, latent, cause, e, lo, hi, rows_levels)

        monkeypatch.setattr(vewane.simulate, "_closed_form_root", off_root)
        monkeypatch.setattr(vewane.simulate, "_bisect", spy)
        sc = replace(PRESET_CELLS[6][1], n=2000, seed=7)
        latent, deviates = cohort_draws(sc)
        for cause in (0, 1):
            got = invert_cumulative_hazard(sc, latent, cause, deviates[cause])
            assert_same_times(got, invert_by_bisection(sc, latent, cause, deviates[cause]))
        assert min(seen) >= levels


class TestRoundingPremises:
    """The bounds behind the inversion's margins, against 30-digit arithmetic."""

    @pytest.mark.parametrize("beta,amp,basis", [
        ((-1.0, 1.0), 0.5, VEBasisSpec("linear")),
        ((-1.0, 0.0), -0.5, VEBasisSpec("linear")),
        ((0.5, -2.0), 0.9, VEBasisSpec("linear")),
        ((-0.5, -1.0, 0.8), 0.5, VEBasisSpec("ramp", 14 / 365)),
    ])
    def test_quadrature_and_closed_form_error(self, beta, amp, basis):
        mp = pytest.importorskip("mpmath")
        sc = ScenarioSpec(n=1, beta_true=beta, baseline_amplitude=amp, ve_basis=basis)

        def exact(u_pre, u_post, v, t):
            w = 2 * mp.pi
            r = mp.mpf(basis.ramp_length or 0.0)
            pre = mp.mpf(min(t, v)) + amp * (mp.cos(w * min(t, v)) - 1) / w
            if t <= v:
                return sc.lambda01 * u_pre * pre
            def g(s):
                tau = s - v
                if basis.kind == "ramp":
                    lin = beta[0] if tau < r else beta[1] + beta[2] * (tau - r)
                else:
                    lin = beta[0] + beta[1] * tau
                return mp.exp(lin) * (1 - amp * mp.sin(w * s))
            knots = [mp.mpf(v)] + ([mp.mpf(v) + r] if basis.kind == "ramp" and v + r < t else []) + [mp.mpf(t)]
            return sc.lambda01 * (u_pre * pre + u_post * mp.quad(g, knots))

        with mp.workdps(30):
            rng = np.random.default_rng(11)
            eps = np.finfo(float).eps
            for i in range(60):
                v = rng.uniform(0, 1.1) if i % 3 else rng.uniform(0, 1e-3)
                t = rng.uniform(0, 1) if i % 2 else 10 ** rng.uniform(-7, -1)
                u_pre, u_post = np.exp(rng.normal(size=2))
                lat = LatentDraw(np.array([u_pre]), np.array([u_post]), np.array([v]), 1.0)
                want = exact(u_pre, u_post, v, t)
                scale = float(vewane.simulate._rounding_scale(sc, lat, 1, np.array([float(want)]))[0])
                quad = cumulative_hazard(sc, lat, 1, np.array([t]))[0]
                closed = vewane.simulate._closed_form_lambda(sc, lat, 1, np.array([t]))[0]
                assert abs(mp.mpf(quad) - want) <= 16 * eps * scale
                assert abs(mp.mpf(closed) - want) <= vewane.simulate._HORIZON_MARGIN * scale / 2


class TestSimulateCohort:
    def test_deterministic_bytes(self, tmp_path):
        sc = ScenarioSpec(n=2000, seed=99)
        blobs = []
        for k in range(2):
            ds, _ = simulate_cohort(sc)
            path = tmp_path / f"run{k}.csv"
            write_events_csv(ds, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_null_scenario_cause_share(self):
        sc = ScenarioSpec(
            n=100_000, lambda00=0.05, lambda01=0.05, baseline_shape="constant",
            beta_true=(0.0, 0.0), sigma_u=0.01, seed=12,
        )
        ds, _ = simulate_cohort(sc)
        cause = ds.arrays()["cause"]
        events = cause[cause >= 0]
        assert np.mean(events == 1) == pytest.approx(0.5, abs=0.02)

    def test_reference_event_rates(self):
        ds, _ = simulate_cohort(ScenarioSpec(n=100_000, seed=4242))
        cause = ds.arrays()["cause"]
        for name, code in (("irrelevant", 0), ("preventable", 1)):
            rate = float(np.mean(cause == code))
            assert abs(rate - REFERENCE_RATES[name]) < 0.05 * REFERENCE_RATES[name]

    def test_vaccination_law_null_when_no_effect(self):
        shared = dict(n=100_000, beta_true=(0.0, 0.0), sigma_u=1.0)
        ds_u, _ = simulate_cohort(ScenarioSpec(seed=21, vax_law="uniform", **shared))
        ds_v, _ = simulate_cohort(ScenarioSpec(seed=22, vax_law="vulnerable-first", **shared))
        a, b = ds_u.arrays(), ds_v.arrays()
        for code in (0, 1):
            t1 = a["time"][a["cause"] == code]
            t2 = b["time"][b["cause"] == code]
            assert ks_2samp(t1, t2).pvalue > 0.001
        share = lambda arr: np.mean(arr["cause"][arr["cause"] >= 0] == 1)
        assert abs(share(a) - share(b)) < 0.01

    def test_views_share_draws(self):
        sc = ScenarioSpec(n=5000, seed=31)
        first, followup, _ = simulate_cohort_views(sc)
        fa, wa = first.arrays(), followup.arrays()
        assert np.array_equal(fa["vax"], wa["vax"], equal_nan=True)
        # a first-event preventable record appears identically in the follow-up view
        both = (fa["cause"] == 1)
        assert np.allclose(fa["time"][both], wa["time"][both])
        assert np.all(wa["cause"][both] == 1)
        # follow-up view never records irrelevant events
        assert np.all(wa["cause"] != 0)

    def test_identification_smoke(self):
        # crude binned odds ratio of causes tracks exp(f) under a constant baseline
        sc = ScenarioSpec(
            n=200_000, sigma_u=2.0, baseline_shape="constant",
            beta_true=(-1.0, 0.0), seed=13,
        )
        ds, _ = simulate_cohort(sc)
        arr = ds.arrays()
        infected = arr["cause"] >= 0
        t = arr["time"][infected]
        v = arr["vax"][infected]
        j = arr["cause"][infected]
        z = ~np.isnan(v) & (v <= t)
        tau = np.where(z, t - np.where(np.isnan(v), 0, v), 0.0)
        base_odds = np.mean(j[~z] == 1) / np.mean(j[~z] == 0)
        for lo in np.arange(0.1, 0.7, 0.15):
            sel = z & (tau >= lo) & (tau < lo + 0.15)
            odds = np.mean(j[sel] == 1) / np.mean(j[sel] == 0)
            assert abs(math.log(odds / base_odds) - (-1.0)) < 0.2

    def test_participant_ids(self):
        first, followup, _ = simulate_cohort_views(ScenarioSpec(n=3, seed=1))
        assert isinstance(first.ids, RowIds) and first.ids is followup.ids
        assert first.ids == ["p000000", "p000001", "p000002"] == participant_ids(3)

    def test_substream_seed_stable(self):
        assert substream_seed(7, 3) == substream_seed(7, 3)
        assert substream_seed(7, 3) != substream_seed(7, 4)

    def test_scenario_json_round_trip(self, tmp_path):
        sc = ScenarioSpec(n=100, vax_law="vulnerable-first", sigma_u=1.5, seed=3)
        path = tmp_path / "s.json"
        sc.save(path)
        assert ScenarioSpec.load(path) == sc
