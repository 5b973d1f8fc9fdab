"""Command-line interface: simulate / fit / curve / bench subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .core import (
    DAYS_PER_YEAR,
    DatasetValidationError,
    FitResult,
    VEBasisSpec,
    VewaneError,
    convert_to_years,
    read_events_csv,
    ve_from_f,
    write_events_csv,
)
from .bench import BenchConfig, emit_tables, preset_scenarios, run_bench
from .cox import fit_cox_tv
from .report import default_tau_grid, monotone_ci_mc, monotonize_curve, ve_curve, write_curve
from .sieve import FixedOffset, fit_sieve_binary, fit_sieve_multinomial
from .simulate import ScenarioSpec, simulate_cohort
from .smoothing import TableFn, weighted_spline_smooth
from .surveillance import (
    impute_strains,
    load_offset,
    read_mixture_csv,
    read_surveillance_csv,
    sda_tt2_offset,
    tt1_offset,
)
from .tmle import fit_tmle_binary, fit_tmle_multinomial


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 instead of argparse's 2
        raise UsageError(message)


def _echo(config: dict) -> None:
    print(json.dumps({"resolved_config": config}, sort_keys=True))


def _parse_basis(text: str) -> VEBasisSpec:
    if text == "linear":
        return VEBasisSpec("linear")
    if text == "constant":
        return VEBasisSpec("constant")
    if text.startswith("ramp:"):
        days = float(text.split(":", 1)[1])
        if days <= 0:
            raise UsageError("ramp length must be positive (days)")
        return VEBasisSpec("ramp", ramp_length=days / DAYS_PER_YEAR)
    raise UsageError(f"unknown basis {text!r}; use linear, constant, or ramp:<days>")


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise UsageError(f"bad grid {text!r}; expected lo:hi:npoints") from None
    if n < 1 or not lo <= hi:
        raise UsageError(f"bad grid {text!r}; need lo <= hi and npoints >= 1")
    return np.linspace(lo, hi, n)


def _build_parser() -> _Parser:
    p = _Parser(prog="vewane", description="Time-varying VE estimation with negative-control debiasing")
    p.add_argument("--version", action="version", version=f"vewane {__version__}")
    p.add_argument("--json-errors", action="store_true", help="machine-readable errors on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="draw a synthetic cohort from a scenario file")
    ps.add_argument("--scenario", required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--truth")
    ps.add_argument("--seed", type=int, help="override the scenario seed")

    pf = sub.add_parser("fit", help="fit a VE model to an events CSV")
    pf.add_argument("--method", required=True, choices=["cox", "sieve", "tmle"])
    pf.add_argument("--events", required=True)
    pf.add_argument("--basis", default="linear", help="linear | constant | ramp:<days>")
    pf.add_argument("--time-unit", default="years", choices=["years", "days"])
    pf.add_argument("--knots", type=int)
    pf.add_argument("--knot-placement", default="quantile", choices=["quantile", "even"])
    pf.add_argument("--offset", help="offset JSON table (surveillance-derived)")
    pf.add_argument("--offset-smooth", action="store_true", help="pre-smooth the offset table")
    pf.add_argument("--surveillance", help="surveillance CSV to build an offset from")
    pf.add_argument("--anchor", choices=["tt1", "sda-tt2"], help="offset construction rule")
    pf.add_argument("--fix-intercept", type=float, help="pin the sda-tt2 scalar level")
    pf.add_argument("--mixture", help="variant mixture CSV (enables strain-specific fits)")
    pf.add_argument("--impute-strains", action="store_true")
    pf.add_argument("--seed", type=int, default=0, help="seed for strain imputation")
    pf.add_argument("--smoother", default="pspline", choices=["pspline", "kernel"])
    pf.add_argument("--tol", type=float, default=1e-6)
    pf.add_argument("--max-iter", type=int, default=50)
    pf.add_argument("--out", required=True)

    pc = sub.add_parser("curve", help="turn a fit into a VE curve CSV")
    pc.add_argument("--fit", required=True)
    pc.add_argument("--grid", help="lo:hi:npoints in years since vaccination")
    pc.add_argument("--level", type=float, default=0.95)
    pc.add_argument("--monotone", action="store_true")
    pc.add_argument("--mono-ci", default="pava", choices=["pava", "mc"])
    pc.add_argument("--mc-draws", type=int, default=2000)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--strain", type=int)
    pc.add_argument("--out", required=True)

    pb = sub.add_parser("bench", help="run a simulation benchmark preset")
    pb.add_argument(
        "--preset", required=True, choices=["table-cover", "table-mse", "table-foi", "example-app"]
    )
    pb.add_argument("--reps", type=int, default=200)
    pb.add_argument("--seed", type=int, default=20260809)
    pb.add_argument("--jobs", type=int, default=int(os.environ.get("VEWANE_JOBS", "1")))
    pb.add_argument("--estimators", default="cox,sieve,tmle")
    pb.add_argument("--out", required=True)
    return p


def _cmd_simulate(args) -> int:
    scenario = ScenarioSpec.load(args.scenario)
    if args.seed is not None:
        from dataclasses import replace

        scenario = replace(scenario, seed=args.seed)
    dataset, truth = simulate_cohort(scenario)
    write_events_csv(dataset, args.out)
    if args.truth:
        with open(args.truth, "w") as fh:
            json.dump(truth, fh, indent=1)
    _echo({"command": "simulate", "scenario": scenario.to_dict(), "out": args.out, "truth": args.truth})
    return 0


def _resolve_offset(args) -> FixedOffset | None:
    if args.offset and args.surveillance:
        raise UsageError("--offset and --surveillance are mutually exclusive")
    if args.surveillance and not args.anchor:
        raise UsageError("--surveillance requires --anchor {tt1,sda-tt2}")
    if args.anchor and not args.surveillance:
        raise UsageError("--anchor requires --surveillance")
    if args.fix_intercept is not None and args.anchor != "sda-tt2":
        raise UsageError("--fix-intercept only applies to --anchor sda-tt2")

    fixed = None
    if args.offset:
        fixed = load_offset(args.offset)
    elif args.surveillance:
        series = read_surveillance_csv(args.surveillance)
        if args.anchor == "tt1":
            fixed = FixedOffset(offset=tt1_offset(series), free_intercept=False)
        else:
            fn, wants_free = sda_tt2_offset(series)
            if args.fix_intercept is not None:
                fixed = FixedOffset(offset=fn, free_intercept=False, fixed_value=args.fix_intercept)
            else:
                fixed = FixedOffset(offset=fn, free_intercept=wants_free)
    if fixed is not None and args.offset_smooth and isinstance(fixed.offset, TableFn):
        t = fixed.offset.x
        if len(t) >= 4:
            fn = weighted_spline_smooth(t, fixed.offset.values, np.ones(len(t)))
            fixed = FixedOffset(offset=fn, free_intercept=fixed.free_intercept, fixed_value=fixed.fixed_value)
    return fixed


def _cmd_fit(args) -> int:
    if args.method == "cox":
        for flag, name in [
            (args.offset, "--offset"),
            (args.surveillance, "--surveillance"),
            (args.mixture, "--mixture"),
        ]:
            if flag:
                raise UsageError(f"{name} cannot be combined with --method cox")
    basis = _parse_basis(args.basis)
    dataset = read_events_csv(args.events, time_unit=args.time_unit)
    if args.time_unit == "days":
        dataset = convert_to_years(dataset)
    fixed = _resolve_offset(args)
    alpha = fixed if fixed is not None else "spline"

    mixture = read_mixture_csv(args.mixture) if args.mixture else None
    if mixture is not None and args.impute_strains:
        dataset = impute_strains(dataset, mixture, args.seed)

    if args.method == "cox":
        fit = fit_cox_tv(dataset, basis)
    elif args.method == "sieve":
        if mixture is None:
            fit = fit_sieve_binary(
                dataset, basis, knots=args.knots, alpha=alpha, knot_placement=args.knot_placement
            )
        else:
            fit = fit_sieve_multinomial(
                dataset, basis, mixture, knots=args.knots, alpha=alpha,
                knot_placement=args.knot_placement,
            )
    else:
        if mixture is None:
            fit = fit_tmle_binary(
                dataset, basis, smoother=args.smoother, knots=args.knots, alpha=alpha,
                tol=args.tol, max_iter=args.max_iter, knot_placement=args.knot_placement,
            )
        else:
            fit = fit_tmle_multinomial(
                dataset, basis, mixture, smoother=args.smoother, knots=args.knots, alpha=alpha,
                tol=args.tol, max_iter=args.max_iter, knot_placement=args.knot_placement,
            )

    arr = dataset.arrays()
    vaxed = ~np.isnan(arr["vax"])
    tau_max = float(np.max(arr["time"][vaxed] - arr["vax"][vaxed])) if vaxed.any() else dataset.horizon
    config = {
        "command": "fit",
        "method": args.method,
        "events": args.events,
        "basis": basis.to_dict(),
        "time_unit": args.time_unit,
        "knots": args.knots,
        "knot_placement": args.knot_placement,
        "offset": args.offset,
        "surveillance": args.surveillance,
        "anchor": args.anchor,
        "fix_intercept": args.fix_intercept,
        "mixture": args.mixture,
        "impute_strains": args.impute_strains,
        "smoother": args.smoother,
        "tol": args.tol,
        "max_iter": args.max_iter,
        "seed": args.seed,
        "tau_max": tau_max,
    }
    payload = fit.to_dict()
    payload["config"] = config
    with open(args.out, "w") as fh:
        fh.write(json.dumps(payload))
    _echo(config)
    return 0


def _cmd_curve(args) -> int:
    with open(args.fit) as fh:
        payload = json.load(fh)
    fit = FitResult.from_dict(payload)
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = default_tau_grid(payload.get("config", {}).get("tau_max", 1.0))
        basis = fit.basis[0] if isinstance(fit.basis, list) else fit.basis
        if basis.kind == "ramp" and grid[0] <= basis.ramp_length <= grid[-1]:
            grid = np.unique(np.append(grid, basis.ramp_length))
    curve = ve_curve(fit, grid, level=args.level, strain=args.strain)
    if args.monotone:
        curve = monotonize_curve(curve)
        if args.mono_ci == "mc":
            lo, hi = monotone_ci_mc(
                fit, grid, n_draws=args.mc_draws, seed=args.seed, level=args.level, strain=args.strain
            )
            curve.ve_mono_lo = ve_from_f(hi)
            curve.ve_mono_hi = ve_from_f(lo)
            curve.meta["monotone"] = "mc"
    write_curve(curve, args.out)
    _echo(
        {
            "command": "curve",
            "fit": args.fit,
            "grid": [float(grid[0]), float(grid[-1]), int(len(grid))],
            "level": args.level,
            "monotone": args.monotone,
            "mono_ci": args.mono_ci,
            "mc_draws": args.mc_draws,
            "seed": args.seed,
            "strain": args.strain,
            "out": args.out,
        }
    )
    return 0


def _cmd_bench(args) -> int:
    estimators = tuple(e.strip() for e in args.estimators.split(",") if e.strip())
    config = BenchConfig(
        scenarios=preset_scenarios(args.preset),
        estimators=estimators,
        n_reps=args.reps,
        seed=args.seed,
        workers=max(1, args.jobs),
    )
    results, _raw = run_bench(config)
    emit_tables(results, args.out)
    resolved = {
        "command": "bench",
        "preset": args.preset,
        "reps": args.reps,
        "seed": args.seed,
        "jobs": config.workers,
        "estimators": list(estimators),
        "grid": [float(g) for g in config.grid],
        "scenarios": {name: sc.to_dict() for name, sc in config.scenarios},
        "out": args.out,
    }
    with open(os.path.join(args.out, "config.json"), "w") as fh:
        json.dump(resolved, fh, indent=1)
    _echo(resolved)
    return 0


def run(argv) -> int:
    """Exit 0 on success, 1 on usage errors, 2 on data/model errors."""
    parser = _build_parser()
    json_errors = "--json-errors" in argv
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse --help/--version
            return int(exc.code or 0)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "curve":
            return _cmd_curve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        if json_errors:
            print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        else:
            print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (VewaneError, DatasetValidationError, FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        if json_errors:
            print(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
