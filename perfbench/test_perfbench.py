"""Self-test of the benchmark at smoke size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import run

run.import_vewane()
import workloads  # noqa: E402  (needs vewane on the path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke_args(workload: str, trace: int = 0, seconds: float = 0.2):
    return run.parse_args(
        ["--workload", workload, "--seed", "5", "--seconds", str(seconds), "--trace", str(trace), "--smoke"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.2"]
    cmd += ["--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], float)


def test_perturbed_reference_fails_every_op():
    args = smoke_args("analysis-100k")
    first = run.run(args)
    assert first["result"]["failed"] == 0
    workload = workloads.Analysis(args.seed, "", smoke=True)
    reference = {}
    for rec in first["records"]:
        for est, beta in rec.betas.items():
            reference.setdefault(workload.key(rec.index), {})[est] = [b + 1e-3 for b in beta]
    perturbed = run.run(args, reference)["result"]
    assert perturbed["attempted"] >= 3
    assert perturbed["failed"] == perturbed["attempted"]
    assert not perturbed["correct"]


def test_traced_self_times_sum_to_wall():
    outcome = run.run(smoke_args("replicate-10k", trace=1))
    tracer = outcome["tracer"]
    selfs = tracer.self_times()
    traced = [r for r in outcome["records"] if r.traced]
    assert traced
    names = {s.name for s in tracer.spans}
    assert {"op", "bench.run_scenario", "simulate.cohort", "simulate.invert", "cox.fit", "sieve.fit", "tmle.fit"} <= names
    for rec in traced:
        spans = [s for s in tracer.spans if s.op == rec.index]
        assert sum(selfs[s.id] for s in spans) == pytest.approx(rec.wall, rel=1e-9, abs=1e-12)
        assert all(selfs[s.id] >= 0 for s in spans)


@pytest.mark.xfail(strict=True, reason="fit_tmle_multinomial leaves its EIC equation unsolved for two strains")
def test_multinomial_tmle_solves_its_eic():
    """The two-strain TMLE that nuisance-ramp-10k leaves out for now.

    When this passes, put `fit_tmle_multinomial` back in `NuisanceRamp.op`
    and drop the xfail mark.
    """
    import vewane.surveillance
    import vewane.tmle
    from vewane.simulate import ScenarioSpec, simulate_cohort_views

    scenario = ScenarioSpec(n=3000, ve_basis=workloads.RAMP, beta_true=(-0.3, -1.0, 1.0), seed=5)
    first, _, _ = simulate_cohort_views(scenario)
    labelled = vewane.surveillance.impute_strains(first, workloads.STEP_MIX, 5)
    fit = vewane.tmle.fit_tmle_multinomial(labelled, workloads.RAMP, workloads.STEP_MIX)
    diag = fit.diagnostics
    assert workloads.fit_problems("tmle-multinomial", fit.beta, fit.beta_cov, diag["converged"], diag["eic_abs_mean_max"]) == []
