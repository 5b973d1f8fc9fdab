"""Monte-Carlo replication harness with deterministic seed substreams.

Presets encode the simulation grid (four bias families, a force-of-infection
sweep, and the heterogeneous-frailty example), each crossed with a constant
and a linearly waning VE truth.  Replicate r of a run always uses the child
seed (seed, r), so results are identical for any worker count.
"""

from __future__ import annotations

import csv
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.stats import norm

from .core import FitResult, VEBasisSpec, VewaneError
from .cox import fit_cox_tv
from .sieve import fit_sieve_binary
from .simulate import ScenarioSpec, simulate_cohort_views, substream_seed
from .tmle import fit_tmle_binary

DEFAULT_GRID = np.round(np.arange(1, 16) * 0.05, 10)  # tau in {0.05, ..., 0.75}
ESTIMATORS = ("cox", "sieve", "tmle")

VE_SHAPES = {
    "const": (-1.0, 0.0),
    "wane": (-1.0, 1.0),
}


def _cell(
    name: str,
    shape: str,
    lambda01: float = 0.06,
    sigma_u: float = 1.0,
    vax_law: str = "uniform",
    frailty_law: str = "lognormal-iid",
    lambda00: float = 0.03,
    amplitude: float = 0.5,
    n: int = 10_000,
) -> tuple[str, ScenarioSpec]:
    spec = ScenarioSpec(
        n=n,
        lambda00=lambda00,
        lambda01=lambda01,
        baseline_amplitude=amplitude,
        ve_basis=VEBasisSpec("linear"),
        beta_true=VE_SHAPES[shape],
        vax_law=vax_law,
        frailty_law=frailty_law,
        sigma_u=sigma_u,
    )
    return f"{name}-{shape}", spec


def preset_scenarios(preset: str) -> list[tuple[str, ScenarioSpec]]:
    cells = []
    if preset in ("table-cover", "table-mse"):
        for shape in VE_SHAPES:
            cells.append(_cell("random-low", shape, sigma_u=1.0))
            cells.append(_cell("random-high", shape, sigma_u=2.0))
            cells.append(_cell("disinhibition", shape, frailty_law="disinhibition-pair"))
            cells.append(_cell("vulnerable", shape, vax_law="vulnerable-first"))
    elif preset == "table-foi":
        for shape in VE_SHAPES:
            for sigma in (1.0, 2.0):
                for lam in (0.03, 0.06, 0.12):
                    cells.append(_cell(f"foi-lam{lam:g}-sig{sigma:g}", shape, lambda01=lam, sigma_u=sigma))
    elif preset == "example-app":
        for shape in VE_SHAPES:
            cells.append(
                _cell(
                    "example-app",
                    shape,
                    lambda01=0.16,
                    lambda00=0.08,
                    sigma_u=2.5,
                    amplitude=-0.5,
                )
            )
    else:
        raise VewaneError(f"unknown preset {preset!r}")
    return cells


@dataclass
class BenchConfig:
    scenarios: list[tuple[str, ScenarioSpec]]
    estimators: tuple[str, ...] = ESTIMATORS
    n_reps: int = 200
    seed: int = 20260809
    grid: np.ndarray = field(default_factory=lambda: DEFAULT_GRID.copy())
    workers: int = 1

    def validate(self):
        if self.n_reps < 1:
            raise VewaneError("n_reps must be >= 1")
        if not self.estimators:
            raise VewaneError("estimator list is empty")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise VewaneError(f"unknown estimators {sorted(unknown)}")
        for _, sc in self.scenarios:
            sc.validate()


@dataclass
class BenchResult:
    scenario: str
    estimator: str
    coverage: float
    mse: float
    bias: float
    n_used: int
    n_nonconverged: int
    n_failed: int
    wall_time: float

    def row(self) -> list:
        return [
            self.scenario,
            self.estimator,
            self.coverage,
            self.mse,
            self.bias,
            self.n_used,
            self.n_nonconverged,
            self.n_failed,
            self.wall_time,
        ]


def _fit_one(estimator: str, dataset, basis: VEBasisSpec) -> FitResult:
    if estimator == "cox":
        return fit_cox_tv(dataset, basis)
    if estimator == "sieve":
        return fit_sieve_binary(dataset, basis)
    if estimator == "tmle":
        return fit_tmle_binary(dataset, basis)
    raise VewaneError(f"unknown estimator {estimator!r}")


def _run_rep(args):
    # the Cox comparator analyzes the preventable endpoint with full follow-up
    # (irrelevant infections ignored); the SLR estimators see first events only
    scenario, rep_seed, estimators = args
    dataset, cox_view, _ = simulate_cohort_views(replace(scenario, seed=rep_seed))
    arr = dataset.arrays()
    checksum = hashlib.md5(
        arr["time"].tobytes() + arr["cause"].tobytes() + arr["vax"].tobytes()
    ).hexdigest()
    out = {"seed": rep_seed, "checksum": checksum, "fits": {}}
    for est in estimators:
        started = time.perf_counter()
        try:
            fit = _fit_one(est, cox_view if est == "cox" else dataset, scenario.ve_basis)
            out["fits"][est] = {
                "beta": fit.beta,
                "cov": fit.beta_cov,
                "converged": bool(fit.diagnostics.get("converged", True)),
                "eic_abs_mean": fit.diagnostics.get("eic_abs_mean_max"),
                "error": None,
                "wall": time.perf_counter() - started,
            }
        except (VewaneError, np.linalg.LinAlgError) as exc:
            out["fits"][est] = {
                "beta": None,
                "cov": None,
                "converged": False,
                "eic_abs_mean": None,
                "error": f"{type(exc).__name__}: {exc}",
                "wall": time.perf_counter() - started,
            }
    return out


def run_scenario(
    scenario: ScenarioSpec,
    estimators=ESTIMATORS,
    n_reps: int = 200,
    seed: int = 20260809,
    workers: int = 1,
) -> list[dict]:
    """Raw per-rep results; identical for any worker count."""
    if not estimators:
        raise VewaneError("estimator list is empty")
    jobs = [(scenario, substream_seed(seed, r), tuple(estimators)) for r in range(n_reps)]
    if workers <= 1:
        return [_run_rep(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_rep, jobs, chunksize=max(1, n_reps // (8 * workers))))


def summarize(
    raw: list[dict],
    truth: dict,
    grid=None,
    level: float = 0.95,
    scenario_name: str = "",
) -> list[BenchResult]:
    """Coverage / MSE / bias of f over the tau grid, pooling grid points and reps.

    Non-converged or failed replicates are excluded from the averages and
    counted; an estimator with no usable replicate gets NaN summaries.
    """
    grid = DEFAULT_GRID if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise VewaneError("empty evaluation grid")
    basis = VEBasisSpec.from_dict(truth["basis"])
    from .core import eval_ve_basis

    psi = eval_ve_basis(basis, grid)
    f_true = psi @ np.asarray(truth["beta_true"])
    z = norm.ppf(0.5 + level / 2.0)

    estimators = list(raw[0]["fits"]) if raw else []
    results = []
    for est in estimators:
        covers, sqerr, bias, wall = [], [], [], 0.0
        n_failed = n_nonconverged = 0
        for rep in raw:
            cell = rep["fits"][est]
            wall += cell["wall"]
            if cell["error"] is not None:
                n_failed += 1
                continue
            if not cell["converged"]:
                n_nonconverged += 1
                continue
            f_hat = psi @ cell["beta"]
            se = np.sqrt(np.clip(np.einsum("ij,jk,ik->i", psi, cell["cov"], psi), 0.0, None))
            covers.append(np.abs(f_hat - f_true) <= z * se)
            sqerr.append((f_hat - f_true) ** 2)
            bias.append(f_hat - f_true)
        n_used = len(covers)
        results.append(
            BenchResult(
                scenario=scenario_name,
                estimator=est,
                coverage=float(100.0 * np.mean(covers)) if n_used else float("nan"),
                mse=float(np.mean(sqerr)) if n_used else float("nan"),
                bias=float(np.mean(bias)) if n_used else float("nan"),
                n_used=n_used,
                n_nonconverged=n_nonconverged,
                n_failed=n_failed,
                wall_time=wall,
            )
        )
    return results


def run_bench(config: BenchConfig) -> tuple[list[BenchResult], dict]:
    config.validate()
    all_results = []
    raw_by_scenario = {}
    for name, scenario in config.scenarios:
        raw = run_scenario(scenario, config.estimators, config.n_reps, config.seed, config.workers)
        truth = {"beta_true": list(scenario.beta_true), "basis": scenario.ve_basis.to_dict()}
        all_results.extend(summarize(raw, truth, config.grid, scenario_name=name))
        raw_by_scenario[name] = raw
    return all_results, raw_by_scenario


_HEADER = [
    "scenario",
    "estimator",
    "coverage_pct",
    "mse",
    "bias",
    "n_used",
    "n_nonconverged",
    "n_failed",
    "wall_time_s",
]


def emit_tables(results: list[BenchResult], out_dir) -> list[str]:
    """results.csv and results.md, one row per (scenario, estimator), deterministic ordering."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    ordered = sorted(results, key=lambda r: (r.scenario, r.estimator))
    csv_path = os.path.join(out_dir, "results.csv")
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_HEADER)
        for r in ordered:
            w.writerow([format(v, ".10g") if isinstance(v, float) else v for v in r.row()])
    md_path = os.path.join(out_dir, "results.md")
    with open(md_path, "w") as fh:
        fh.write("| " + " | ".join(_HEADER) + " |\n")
        fh.write("|" + "---|" * len(_HEADER) + "\n")
        for r in ordered:
            cells = [format(v, ".10g") if isinstance(v, float) else str(v) for v in r.row()]
            fh.write("| " + " | ".join(cells) + " |\n")
    return [csv_path, md_path]
