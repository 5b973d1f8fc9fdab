"""Synthetic cohorts from multiplicative time-varying frailty competing-risks models."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import ndtr

from .core import Dataset, VEBasisSpec, eval_ve_basis, validate_dataset, ve_basis_pieces

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
    participant is never vaccinated in-study (V = +inf).
    """

    u_pre: np.ndarray
    u_post: np.ndarray
    v_raw: np.ndarray
    horizon: float

    @property
    def vaccinated(self) -> np.ndarray:
        return self.v_raw <= self.horizon

    @property
    def v_eff(self) -> np.ndarray:
        return np.where(self.vaccinated, self.v_raw, np.inf)

    def take(self, idx) -> "LatentDraw":
        return LatentDraw(self.u_pre[idx], self.u_post[idx], self.v_raw[idx], self.horizon)


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


def _shape_integral(scenario: ScenarioSpec, a, b):
    """Integral of (1 - amplitude*sin(2 pi s)) over [a, b], elementwise."""
    amp = scenario.baseline_amplitude if scenario.baseline_shape == "sinusoidal" else 0.0
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
    amp = scenario.baseline_amplitude if scenario.baseline_shape == "sinusoidal" else 0.0
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
        total = total + half * (g @ _GL_WEIGHTS)
    return total


def cumulative_hazard(scenario: ScenarioSpec, latent: LatentDraw, cause: int, t):
    """Closed-form-plus-quadrature Lambda_j(t) for each participant."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0) or np.any(t > scenario.horizon * (1 + 1e-12)):
        raise ValueError("t must lie in [0, horizon]")
    v = latent.v_eff
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


def invert_cumulative_hazard(scenario: ScenarioSpec, latent: LatentDraw, cause: int, e):
    """Smallest t with Lambda_j(t) >= e by bisection (abs tol 1e-12); NaN when no event."""
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0):
        raise ValueError("exponential deviates must be positive")
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
    for _ in range(45):  # horizon / 2**45 << 1e-12
        mid = 0.5 * (lo + hi)
        above = cumulative_hazard(scenario, sub, cause, mid) >= target
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    out[idx] = hi
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


def _participant_ids(n: int) -> list[str]:
    return [f"p{i:06d}" for i in range(n)]


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
    columns = _first_event_columns(scenario, latent, t0, t1, _participant_ids(scenario.n))
    return validate_dataset(columns, scenario.horizon), dict(_truth(scenario), endpoint="first-event")


def simulate_cohort_views(scenario: ScenarioSpec) -> tuple[Dataset, Dataset, dict]:
    """Both endpoint views of the same draw (shared latents and deviates)."""
    latent, t0, t1 = _draw_cause_times(scenario)
    ids = _participant_ids(scenario.n)  # shared: Dataset never mutates its ids
    first = validate_dataset(_first_event_columns(scenario, latent, t0, t1, ids), scenario.horizon)
    followup = validate_dataset(_preventable_followup_columns(scenario, latent, t1, ids), scenario.horizon)
    return first, followup, _truth(scenario)
