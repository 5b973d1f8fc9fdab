"""VE curves with delta-method bands, monotonized variants, and CSV serialization."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .core import FitResult, VewaneError, ve_from_f, eval_ve_basis
from .smoothing import pava_isotonic

CURVE_COLUMNS = ["tau", "f_hat", "f_se", "ve", "ve_lo", "ve_hi"]
MONO_COLUMNS = ["f_mono", "ve_mono", "ve_mono_lo", "ve_mono_hi"]


@dataclass
class VECurve:
    tau_grid: np.ndarray
    f_hat: np.ndarray
    f_se: np.ndarray
    ve: np.ndarray
    ve_lo: np.ndarray
    ve_hi: np.ndarray
    f_mono: np.ndarray | None = None
    ve_mono: np.ndarray | None = None
    ve_mono_lo: np.ndarray | None = None
    ve_mono_hi: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def has_monotone(self) -> bool:
        return self.f_mono is not None


def ve_curve(fit: FitResult, tau_grid, level: float = 0.95, strain: int | None = None) -> VECurve:
    """Delta-method curve: f_hat = beta' psi, se^2 = psi' Cov psi, VE bands from
    1 - exp(f_hat -+ z se) (the lower VE limit comes from the upper f limit)."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if fit.strains is not None:
        if strain is None:
            raise VewaneError("multinomial fit: pass strain=... to select a block")
        beta, cov, basis = fit.strain_block(strain)
    else:
        if strain is not None:
            raise VewaneError("strain given for a non-multinomial fit")
        beta, cov, basis = fit.beta, fit.beta_cov, fit.basis
    if np.any(~np.isfinite(beta)):
        raise VewaneError("requested block was flagged non-identifiable")
    eigmin = float(np.min(np.linalg.eigvalsh((cov + cov.T) / 2))) if cov.size else 0.0
    if eigmin < -1e-8 * max(1.0, float(np.max(np.abs(cov)))):
        raise VewaneError("covariance is not positive semidefinite")

    psi = eval_ve_basis(basis, tau_grid)
    f_hat = psi @ beta
    var = np.einsum("ij,jk,ik->i", psi, cov, psi)
    f_se = np.sqrt(np.clip(var, 0.0, None))
    z = norm.ppf(0.5 + level / 2.0)
    return VECurve(
        tau_grid=tau_grid,
        f_hat=f_hat,
        f_se=f_se,
        ve=ve_from_f(f_hat),
        ve_lo=ve_from_f(f_hat + z * f_se),
        ve_hi=ve_from_f(f_hat - z * f_se),
        meta={"method": fit.method, "basis": basis.to_dict(), "level": level, "strain": strain},
    )


def monotonize_curve(curve: VECurve) -> VECurve:
    """Precision-weighted isotonic projection of f_hat and both confidence limits.

    Sharing the 1/se^2 weights keeps the projected bands ordered (PAVA is
    order-preserving under common weights).
    """
    if np.any(curve.f_se <= 0):
        raise VewaneError("monotonization needs strictly positive standard errors")
    z = norm.ppf(0.5 + curve.meta.get("level", 0.95) / 2.0)
    w = 1.0 / curve.f_se**2
    f_mono, f_lo_mono, f_hi_mono = pava_isotonic(
        np.stack([curve.f_hat, curve.f_hat - z * curve.f_se, curve.f_hat + z * curve.f_se]), w
    )
    return VECurve(
        tau_grid=curve.tau_grid,
        f_hat=curve.f_hat,
        f_se=curve.f_se,
        ve=curve.ve,
        ve_lo=curve.ve_lo,
        ve_hi=curve.ve_hi,
        f_mono=f_mono,
        ve_mono=ve_from_f(f_mono),
        ve_mono_lo=ve_from_f(f_hi_mono),
        ve_mono_hi=ve_from_f(f_lo_mono),
        meta=dict(curve.meta, monotone="pava"),
    )


def monotone_ci_mc(
    fit: FitResult,
    tau_grid,
    n_draws: int = 2000,
    seed: int = 0,
    level: float = 0.95,
    strain: int | None = None,
):
    """Monte-Carlo projection bands: draw beta* ~ N(beta, Cov), PAVA-project each
    f* over the grid (equal weights, all draws in one row-wise call), take
    pointwise quantiles."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    if fit.strains is not None:
        beta, cov, basis = fit.strain_block(strain)
    else:
        beta, cov, basis = fit.beta, fit.beta_cov, fit.basis
    rng = np.random.Generator(np.random.Philox(seed))
    sym = (cov + cov.T) / 2
    vals, vecs = np.linalg.eigh(sym)
    if np.min(vals) < -1e-8 * max(1.0, float(np.max(np.abs(sym)))):
        raise VewaneError("covariance is not positive semidefinite")
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))
    draws = beta[None, :] + rng.standard_normal((n_draws, beta.size)) @ root.T

    psi = eval_ve_basis(basis, tau_grid)
    projected = pava_isotonic(draws @ psi.T)
    alpha = 1.0 - level
    lo = np.quantile(projected, alpha / 2.0, axis=0)
    hi = np.quantile(projected, 1.0 - alpha / 2.0, axis=0)
    return lo, hi


def default_tau_grid(tau_max: float, n: int = 101) -> np.ndarray:
    return np.linspace(0.0, tau_max, n)


def write_curve(curve: VECurve, path) -> None:
    """CSV at 17 significant digits; lossless round trip through read_curve."""
    cols = CURVE_COLUMNS + (MONO_COLUMNS if curve.has_monotone else [])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for i in range(len(curve.tau_grid)):
            row = [curve.tau_grid[i], curve.f_hat[i], curve.f_se[i], curve.ve[i], curve.ve_lo[i], curve.ve_hi[i]]
            if curve.has_monotone:
                row += [curve.f_mono[i], curve.ve_mono[i], curve.ve_mono_lo[i], curve.ve_mono_hi[i]]
            w.writerow([format(float(v), ".17g") for v in row])


def read_curve(path) -> VECurve:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [list(map(float, row)) for row in reader]
    data = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(header)))
    cols = {name: data[:, k] for k, name in enumerate(header)}
    mono = MONO_COLUMNS[0] in cols
    return VECurve(
        tau_grid=cols["tau"],
        f_hat=cols["f_hat"],
        f_se=cols["f_se"],
        ve=cols["ve"],
        ve_lo=cols["ve_lo"],
        ve_hi=cols["ve_hi"],
        f_mono=cols["f_mono"] if mono else None,
        ve_mono=cols["ve_mono"] if mono else None,
        ve_mono_lo=cols["ve_mono_lo"] if mono else None,
        ve_mono_hi=cols["ve_mono_hi"] if mono else None,
    )
