"""Synthetic cohorts from multiplicative time-varying frailty competing-risks models."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

from .core import Dataset, RowIds, VEBasisSpec, eval_ve_basis, validate_dataset, ve_basis_pieces

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class ScenarioSpec:
    """Full data-generating configuration.

    The preventable baseline is lambda01 * (1 - baseline_amplitude * sin(2 pi t));
    amplitude 0 recovers a constant baseline and a negative amplitude flips the
    seasonal phase.  `vulnerable-first` couples the frailty to the vaccination
    date through a Gaussian copula (lognormal and uniform marginals); the
    `disinhibition-pair` frailty switches from the log-mean-`dis_mu_pre` to the
    log-mean-`dis_mu_post` multiplier at vaccination.
    """

    n: int
    horizon: float = 1.0
    lambda00: float = 0.03
    lambda01: float = 0.06
    baseline_shape: str = "sinusoidal"  # "constant" | "sinusoidal"
    baseline_amplitude: float = 0.5
    ve_basis: VEBasisSpec = field(default_factory=lambda: VEBasisSpec("linear"))
    beta_true: tuple[float, ...] = (-1.0, 0.0)
    vax_law: str = "uniform"  # "uniform" | "vulnerable-first"
    vax_upper: float = 1.15
    copula_rho: float = -0.7
    frailty_law: str = "lognormal-iid"  # "lognormal-iid" | "disinhibition-pair"
    sigma_u: float = 1.0
    dis_mu_pre: float = 0.0
    dis_mu_post: float = 1.0
    dis_sigma: float = 1.0
    dis_rho: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.horizon > 0 and self.lambda00 > 0 and self.lambda01 > 0):
            raise ValueError("rates and horizon must be positive")
        if self.baseline_shape not in ("constant", "sinusoidal"):
            raise ValueError(f"unknown baseline shape {self.baseline_shape!r}")
        if not abs(self.baseline_amplitude) < 1:
            raise ValueError("|baseline amplitude| must be < 1")
        if self.vax_law not in ("uniform", "vulnerable-first"):
            raise ValueError(f"unknown vaccination law {self.vax_law!r}")
        if self.frailty_law not in ("lognormal-iid", "disinhibition-pair"):
            raise ValueError(f"unknown frailty law {self.frailty_law!r}")
        if self.vax_law == "vulnerable-first" and self.frailty_law != "lognormal-iid":
            raise ValueError("vulnerable-first coupling requires the lognormal-iid frailty")
        if not (abs(self.copula_rho) < 1 and abs(self.dis_rho) < 1):
            raise ValueError("|rho| must be < 1")
        if not (self.sigma_u > 0 and self.dis_sigma > 0):
            raise ValueError("frailty scales must be positive")
        if len(self.beta_true) != self.ve_basis.dimension:
            raise ValueError("beta_true length inconsistent with ve_basis")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["ve_basis"] = self.ve_basis.to_dict()
        d["beta_true"] = list(self.beta_true)
        return d

    @staticmethod
    def from_dict(d: dict) -> "ScenarioSpec":
        d = dict(d)
        d["ve_basis"] = VEBasisSpec.from_dict(d["ve_basis"])
        d["beta_true"] = tuple(d["beta_true"])
        return ScenarioSpec(**d)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @staticmethod
    def load(path) -> "ScenarioSpec":
        with open(path) as fh:
            return ScenarioSpec.from_dict(json.load(fh))


@dataclass
class LatentDraw:
    """Per-participant frailty multipliers and raw vaccination draw.

    `v_raw` keeps the untruncated draw; values above the horizon mean the
    participant is never vaccinated in-study (V = +inf), which `v_eff` holds.
    `v_eff` is computed once per draw, and `take` carries it to the rows taken.
    """

    u_pre: np.ndarray
    u_post: np.ndarray
    v_raw: np.ndarray
    horizon: float
    v_eff: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.v_eff is None:
            self.v_eff = np.where(self.vaccinated, self.v_raw, np.inf)

    @property
    def vaccinated(self) -> np.ndarray:
        return self.v_raw <= self.horizon

    def take(self, idx) -> "LatentDraw":
        return LatentDraw(self.u_pre[idx], self.u_post[idx], self.v_raw[idx], self.horizon, self.v_eff[idx])


def substream_seed(seed: int, index: int) -> int:
    """Deterministic child seed for (seed, index); independent of draw order."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_latents(scenario: ScenarioSpec, rng: np.random.Generator, n: int | None = None) -> LatentDraw:
    """Draw frailties and vaccination dates; a fixed variate layout (z1, z2, uv)
    keeps participant i's draws independent of how later participants are used."""
    n = scenario.n if n is None else n
    z1 = rng.standard_normal(n)
    z2 = rng.standard_normal(n)
    uv = rng.random(n)

    if scenario.vax_law == "vulnerable-first":
        rho = scenario.copula_rho
        zv = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
        v_raw = scenario.vax_upper * ndtr(zv)
        u_pre = u_post = np.exp(scenario.sigma_u * z1)
    else:
        v_raw = scenario.vax_upper * uv
        if scenario.frailty_law == "disinhibition-pair":
            rho = scenario.dis_rho
            u_pre = np.exp(scenario.dis_mu_pre + scenario.dis_sigma * z1)
            zpost = rho * z1 + math.sqrt(1.0 - rho * rho) * z2
            u_post = np.exp(scenario.dis_mu_post + scenario.dis_sigma * zpost)
        else:
            u_pre = u_post = np.exp(scenario.sigma_u * z1)
    return LatentDraw(u_pre, u_post, v_raw, scenario.horizon)


def _amplitude(scenario: ScenarioSpec) -> float:
    return scenario.baseline_amplitude if scenario.baseline_shape == "sinusoidal" else 0.0


def _shape_integral(scenario: ScenarioSpec, a, b):
    """Integral of (1 - amplitude*sin(2 pi s)) over [a, b], elementwise."""
    amp = _amplitude(scenario)
    out = b - a
    if amp != 0.0:
        two_pi = 2.0 * math.pi
        out = out + amp * (np.cos(two_pi * b) - np.cos(two_pi * a)) / two_pi
    return out


def _f_true(scenario: ScenarioSpec, tau):
    return eval_ve_basis(scenario.ve_basis, tau) @ np.asarray(scenario.beta_true)


def _post_vax_integral(scenario: ScenarioSpec, v, t):
    """Integral of lambda01-shape(s) * exp(f(s - v)) over [v, t] (arrays, t >= v)."""
    basis = scenario.ve_basis
    beta = scenario.beta_true
    amp = _amplitude(scenario)
    if basis.kind == "constant" or (basis.kind == "linear" and beta[1] == 0.0):
        return math.exp(beta[0]) * _shape_integral(scenario, v, t)

    # piecewise Gauss-Legendre; split where a basis piece starts, since f has a kink there
    edges = [v] + [np.minimum(v + start, t) for start, _, _ in ve_basis_pieces(basis)[1:]] + [t]
    segments = zip(edges[:-1], edges[1:])
    total = np.zeros(np.broadcast(v, t).shape)
    two_pi = 2.0 * math.pi
    for a, b in segments:
        half = 0.5 * (b - a)
        center = 0.5 * (a + b)
        s = center[..., None] + half[..., None] * _GL_NODES
        g = np.exp(_f_true(scenario, np.maximum(s - v[..., None], 0.0)))
        if amp != 0.0:
            g = g * (1.0 - amp * np.sin(two_pi * s))
        total = total + half * np.add.reduce(g * _GL_WEIGHTS, axis=-1)
    return total


def cumulative_hazard(scenario: ScenarioSpec, latent: LatentDraw, cause: int, t):
    """Closed-form-plus-quadrature Lambda_j(t) for each participant."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any() or (t > scenario.horizon * (1 + 1e-12)).any():
        raise ValueError("t must lie in [0, horizon]")
    v = latent.v_eff
    if t.shape != v.shape:
        t, v = np.broadcast_arrays(t, v)
    t_pre = np.minimum(t, v)
    if cause == 0:
        lam = scenario.lambda00
        post = np.where(t > v, t - np.minimum(v, t), 0.0)
        return lam * (latent.u_pre * t_pre + latent.u_post * post)
    if cause != 1:
        raise ValueError("cause must be 0 or 1")
    lam = scenario.lambda01
    pre = latent.u_pre * _shape_integral(scenario, np.zeros_like(t_pre), t_pre)
    total = pre
    post_rows = t > v
    if np.any(post_rows):
        post = np.zeros_like(t)
        post[post_rows] = _post_vax_integral(scenario, v[post_rows], t[post_rows])
        total = total + latent.u_post * post
    return lam * total


# Levels of the bisection's dyadic path replayed from the closed-form root and
# then checked; a row whose check fails at one level is retried at the next,
# and one that fails them all is bisected from [0, horizon].
_REPLAY_LEVELS = (42, 34, 26, 18)
_BISECTION_LEVELS = 45  # horizon / 2**45 << 1e-12
# Rounding of `cumulative_hazard` against the exact integral, measured with
# 40-digit quadrature: at most 10 eps * Lambda, plus 0.04 eps * lambda01 * u_pre
# * |amplitude| from the cosines of `_shape_integral` near t = 0.  So
# D = 16 eps * scale bounds it (scale is `_rounding_scale`; the bound is
# tested on the linear and ramp bases).  Since the exact
# Lambda is nondecreasing, Lambda(hi) >= e + 2D puts every point above hi at or
# above e, and Lambda(lo) < e - 2D every point below lo under it: the replayed
# decisions are those the bisection takes.  The check margin is 4D.
_CHECK_MARGIN = 2.0**-46
# The closed form and the quadrature agree to a few eps; only rows this close
# to the horizon's Lambda take the quadrature's hit-or-miss decision.
_HORIZON_MARGIN = 2.0**-30


def _rounding_scale(scenario: ScenarioSpec, latent: LatentDraw, cause: int, e):
    """Lambda's rounding error near Lambda = e is below 16 eps times this (see _CHECK_MARGIN)."""
    if cause == 0:
        return e
    return e + scenario.lambda01 * latent.u_pre * abs(_amplitude(scenario))


def _max_hazard(scenario: ScenarioSpec, latent: LatentDraw, cause: int):
    """Upper bound on lambda_j(t) over [0, horizon] per row."""
    if cause == 0:
        return scenario.lambda00 * np.maximum(latent.u_pre, latent.u_post)
    beta = np.asarray(scenario.beta_true)
    pieces = ve_basis_pieces(scenario.ve_basis)
    ends = [start for start, _, _ in pieces[1:]] + [np.inf]
    f_max = max(
        float((a + c * tau) @ beta)
        for (start, a, c), end in zip(pieces, ends)
        if start < scenario.horizon
        for tau in (start, min(end, scenario.horizon))
    )
    peak = scenario.lambda01 * (1.0 + abs(_amplitude(scenario)))
    return peak * np.maximum(latent.u_pre, latent.u_post * math.exp(f_max))


def _closed_form_lambda(scenario: ScenarioSpec, latent: LatentDraw, cause: int, t):
    """Lambda_j(t) per row with each affine piece of f integrated analytically;
    agrees with `cumulative_hazard` to rounding.

    On a piece, f(s - v) = alpha + k (s - v), and with w = 2 pi
    int exp(k x) sin(w (v + x)) dx = exp(k x) (k sin - w cos)(w (v + x)) / (k^2 + w^2).
    """
    if cause == 0:  # cumulative_hazard is closed-form for cause 0
        return cumulative_hazard(scenario, latent, 0, t)
    amp = _amplitude(scenario)
    w = 2.0 * math.pi
    beta = np.asarray(scenario.beta_true)
    v_eff = latent.v_eff
    post = t > v_eff
    tau = np.where(post, t - v_eff, 0.0)
    v = np.where(post, v_eff, 0.0)
    integral = np.zeros_like(t)
    pieces = ve_basis_pieces(scenario.ve_basis)
    ends = [start for start, _, _ in pieces[1:]] + [np.inf]
    for (start, a, c), end in zip(pieces, ends):
        alpha, k = float(a @ beta), float(c @ beta)
        lo, hi = np.minimum(start, tau), np.minimum(end, tau)
        exp_lo = np.exp(alpha + k * lo)
        piece = exp_lo * (np.expm1(k * (hi - lo)) / k if k else hi - lo)
        if amp != 0.0:
            exp_hi = np.exp(alpha + k * hi)
            s_lo, s_hi = w * (v + lo), w * (v + hi)
            wave = exp_hi * (k * np.sin(s_hi) - w * np.cos(s_hi)) - exp_lo * (k * np.sin(s_lo) - w * np.cos(s_lo))
            piece = piece - amp * wave / (k * k + w * w)
        integral = integral + piece
    pre = latent.u_pre * _shape_integral(scenario, 0.0, np.minimum(t, v_eff))
    return scenario.lambda01 * (pre + latent.u_post * integral)


def _hazard(scenario: ScenarioSpec, latent: LatentDraw, t):
    """Cause-1 hazard lambda_1(t) per row."""
    v = latent.v_eff
    post = t > v
    rate = np.where(post, latent.u_post * np.exp(_f_true(scenario, np.where(post, t - v, 0.0))), latent.u_pre)
    return scenario.lambda01 * (1.0 - _amplitude(scenario) * np.sin(2.0 * math.pi * t)) * rate


def _closed_form_root(scenario: ScenarioSpec, latent: LatentDraw, cause: int, e, lam_end):
    """Estimate of the t with Lambda(t) = e for rows with lam_end = Lambda(horizon) >= e:
    exact for cause 0, safeguarded Newton on the closed form for cause 1."""
    horizon = scenario.horizon
    v = np.minimum(latent.v_eff, horizon)
    if cause == 0:
        lam = scenario.lambda00
        t = e / (lam * latent.u_pre)
        return np.where(t <= v, t, v + (e / lam - latent.u_pre * v) / latent.u_post)
    t = horizon * np.minimum(e / lam_end, 1.0)
    lo, hi = np.zeros_like(t), np.full_like(t, horizon)
    last = np.full_like(t, 2.0 * horizon)
    tol = 2.0**-46 * horizon
    rows = np.arange(t.size)
    for _ in range(100):
        part = latent.take(rows)
        lam = _closed_form_lambda(scenario, part, 1, t[rows])
        below = lam < e[rows]
        lo[rows] = np.where(below, t[rows], lo[rows])
        hi[rows] = np.where(below, hi[rows], t[rows])
        newton = t[rows] + (e[rows] - lam) / _hazard(scenario, part, t[rows])
        # bisect when Newton leaves the bracket or fails to halve the last move
        ok = (lo[rows] <= newton) & (newton <= hi[rows]) & (np.abs(newton - t[rows]) <= 0.5 * last[rows])
        step = np.where(ok, newton, 0.5 * (lo[rows] + hi[rows]))
        last[rows] = np.abs(step - t[rows])
        moving = (last[rows] > tol) & (hi[rows] - lo[rows] > tol)
        t[rows] = step
        rows = rows[moving]
        if rows.size == 0:
            break
    return t


def _replay(t_hat, horizon: float, levels):
    """{level: (lo, hi)} at each of `levels` on the bisection path of
    [0, horizon] that takes mid >= t_hat as Lambda(mid) >= e.

    When every horizon * k / 2**level is a double (a horizon of 1 or 2.5, say),
    every midpoint is exact and the path has a closed form; otherwise the
    halvings are replayed one by one."""
    if horizon.as_integer_ratio()[0].bit_length() + max(levels) <= 53:
        return {level: _dyadic_cell(t_hat, horizon, level) for level in levels}
    return _halving_path(t_hat, horizon, levels)


def _dyadic_cell(t_hat, horizon: float, level: int):
    """(lo, hi) after `level` exact halvings of [0, horizon] toward t_hat: hi =
    k * width for the least k >= 1 with k * width >= t_hat, and k = 2**level when
    t_hat is above the horizon or NaN.

    The ceiling of fl(t_hat / width) is that k.  With horizon = m 2^e (m odd), a
    double above the grid point k * width exceeds it by at least ulp(k m) 2^e, so
    the exact ratio exceeds k by at least ulp(k m) / m > ulp(k) / 2 (k m is at
    least bit_length(m) - 1 binades above k) and cannot round down to k."""
    cells = 2.0**level
    width = horizon / cells
    hi = np.ceil(np.fmax(np.fmin(t_hat / width, cells), 1.0)) * width
    return hi - width, hi


def _halving_path(t_hat, horizon: float, levels):
    """`_replay` by one halving per level."""
    lo = np.zeros_like(t_hat)
    hi = np.full_like(t_hat, horizon)
    path = {}
    for level in range(1, max(levels) + 1):
        mid = 0.5 * (lo + hi)
        above = mid >= t_hat
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        if level in levels:
            path[level] = (lo, hi)
    return path


def _bisect(scenario: ScenarioSpec, latent: LatentDraw, cause: int, e, lo, hi, levels):
    """Row i halves [lo[i], hi[i]] levels[i] times toward Lambda = e; returns hi."""
    for level in range(int(levels.max(initial=0))):
        rows = np.nonzero(levels > level)[0]
        mid = 0.5 * (lo[rows] + hi[rows])
        above = cumulative_hazard(scenario, latent.take(rows), cause, mid) >= e[rows]
        hi[rows] = np.where(above, mid, hi[rows])
        lo[rows] = np.where(above, lo[rows], mid)
    return hi


def invert_cumulative_hazard(scenario: ScenarioSpec, latent: LatentDraw, cause: int, e):
    """Smallest t with Lambda_j(t) >= e by bisection (abs tol 1e-12); NaN when no event.

    Bit for bit the 45-level bisection on `cumulative_hazard`.  The closed form
    decides who reaches e by the horizon and estimates each root; the first
    `_REPLAY_LEVELS` of the bisection's path are replayed from that estimate
    and checked with `cumulative_hazard`, and only the last levels evaluate it.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise ValueError("exponential deviates must be positive")
    if cause not in (0, 1):
        raise ValueError("cause must be 0 or 1")
    n = e.shape[0]
    horizon = scenario.horizon
    out = np.full(n, np.nan)
    scale = _rounding_scale(scenario, latent, cause, e)
    lam_end = np.zeros(n)  # rows whose hazard cannot reach e by the horizon keep 0
    reach = np.nonzero(e <= (1.0 + _HORIZON_MARGIN) * horizon * _max_hazard(scenario, latent, cause))[0]
    lam_end[reach] = _closed_form_lambda(scenario, latent.take(reach), cause, np.full(reach.size, horizon))
    near = np.nonzero(np.abs(lam_end - e) <= _HORIZON_MARGIN * scale)[0]
    if near.size:
        lam_end[near] = cumulative_hazard(scenario, latent.take(near), cause, np.full(near.size, horizon))
    idx = np.nonzero(lam_end >= e)[0]
    if idx.size == 0:
        return out
    sub = latent.take(idx)
    target = e[idx]
    margin = _CHECK_MARGIN * scale[idx]
    t_hat = _closed_form_root(scenario, sub, cause, target, lam_end[idx])

    path = _replay(t_hat, horizon, _REPLAY_LEVELS)
    lo = np.zeros(idx.size)
    hi = np.full(idx.size, horizon)
    levels = np.full(idx.size, _BISECTION_LEVELS)
    pending = np.arange(idx.size)
    for replayed in _REPLAY_LEVELS:
        p_lo, p_hi = (bound[pending] for bound in path[replayed])
        lam = cumulative_hazard(scenario, sub.take(np.tile(pending, 2)), cause, np.concatenate([p_lo, p_hi]))
        lam_lo, lam_hi = lam[: pending.size], lam[pending.size :]
        ok = (lam_lo < target[pending] - margin[pending]) & (lam_hi >= target[pending] + margin[pending])
        done = pending[ok]
        lo[done], hi[done], levels[done] = p_lo[ok], p_hi[ok], _BISECTION_LEVELS - replayed
        pending = pending[~ok]
        if pending.size == 0:
            break
    out[idx] = _bisect(scenario, sub, cause, target, lo, hi, levels)
    return out


def _draw_cause_times(scenario: ScenarioSpec):
    scenario.validate()
    rng = _rng(scenario.seed)
    latent = sample_latents(scenario, rng)
    e0 = rng.standard_exponential(scenario.n)
    e1 = rng.standard_exponential(scenario.n)
    t0 = invert_cumulative_hazard(scenario, latent, 0, e0)
    t1 = invert_cumulative_hazard(scenario, latent, 1, e1)
    return latent, t0, t1


def _first_event_columns(scenario, latent, t0, t1, ids) -> dict:
    # the earlier of the two infections; a tie goes to the preventable cause
    preventable = ~np.isnan(t1) & (np.isnan(t0) | (t1 <= t0))
    irrelevant = ~np.isnan(t0) & ~preventable
    return {
        "id": ids,
        "vax": np.where(latent.vaccinated, latent.v_raw, np.nan),
        "time": np.where(preventable, t1, np.where(irrelevant, t0, scenario.horizon)),
        "cause": np.where(preventable, 1, np.where(irrelevant, 0, -1)),
    }


def _preventable_followup_columns(scenario, latent, t1, ids) -> dict:
    # comparator view: follow-up for the preventable endpoint continues through
    # irrelevant infections, which never appear; only the horizon censors
    event = ~np.isnan(t1)
    return {
        "id": ids,
        "vax": np.where(latent.vaccinated, latent.v_raw, np.nan),
        "time": np.where(event, t1, scenario.horizon),
        "cause": np.where(event, 1, -1),
    }


def _truth(scenario: ScenarioSpec) -> dict:
    return {
        "beta_true": list(scenario.beta_true),
        "basis": scenario.ve_basis.to_dict(),
        "scenario": scenario.to_dict(),
    }


def simulate_cohort(scenario: ScenarioSpec) -> tuple[Dataset, dict]:
    """One cohort plus its ground-truth sidecar; byte-identical for a fixed seed.

    Each participant's first event is the earlier of the two infections,
    censored at the horizon. `simulate_cohort_views` also gives the
    preventable-endpoint view that a comparator ignoring vaccine-irrelevant
    infections analyzes.
    """
    latent, t0, t1 = _draw_cause_times(scenario)
    columns = _first_event_columns(scenario, latent, t0, t1, RowIds(scenario.n))
    return validate_dataset(columns, scenario.horizon), dict(_truth(scenario), endpoint="first-event")


def simulate_cohort_views(scenario: ScenarioSpec) -> tuple[Dataset, Dataset, dict]:
    """Both endpoint views of the same draw (shared latents and deviates)."""
    latent, t0, t1 = _draw_cause_times(scenario)
    ids = RowIds(scenario.n)
    first = validate_dataset(_first_event_columns(scenario, latent, t0, t1, ids), scenario.horizon)
    followup = validate_dataset(_preventable_followup_columns(scenario, latent, t1, ids), scenario.horizon)
    return first, followup, _truth(scenario)
