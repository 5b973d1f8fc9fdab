"""The benchmark tracer (perfbench/tracing.py) patches names in vewane by
attribute: every span target, `Dataset.arrays` and the `Dataset._arrays` cache
it reads.  Installing it here makes a renamed or deleted target fail this
suite instead of only a traced benchmark run, and the CLI and bench runs below
fail when a command or a replicate stops calling a traced name."""

import contextlib
import io
from pathlib import Path

import numpy as np

from vewane.core import validate_dataset, write_events_csv
from vewane.simulate import ScenarioSpec, simulate_cohort

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_reads_datasets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    columns = {"id": ["a", "b"], "vax": [0.1, np.nan], "time": [0.5, 0.7], "cause": [1, 0]}
    with tracer.installed():
        ds = tracing.vewane.core.validate_dataset(columns, 1.0)
        arrays = ds.arrays()
    assert arrays["time"].tolist() == [0.5, 0.7]
    assert [s.name for s in tracer.spans] == ["core.validate"]
    assert validate_dataset is tracing.vewane.core.validate_dataset  # restored on exit


def test_cli_fit_and_mc_curve_record_their_spans(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    ds, _ = simulate_cohort(ScenarioSpec(n=1500, beta_true=(-1.0, 1.0), seed=3))
    events, fit, curve = tmp_path / "events.csv", tmp_path / "fit.json", tmp_path / "curve.csv"
    write_events_csv(ds, events)
    tracer = tracing.Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        run = tracing.vewane.cli.run
        assert run(["fit", "--method", "sieve", "--events", str(events), "--out", str(fit)]) == 0
        assert run(["curve", "--fit", str(fit), "--monotone", "--mono-ci", "mc", "--mc-draws", "50",
                    "--out", str(curve)]) == 0
    names = {s.name for s in tracer.spans}
    assert {"cli.command", "core.csv_read", "sieve.fit", "report.curve", "report.mc"} <= names


def test_bench_replicate_records_its_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    scenario = ScenarioSpec(n=1500, beta_true=(-1.0, 1.0), seed=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        (rep,) = tracing.vewane.bench.run_scenario(scenario, ("cox", "sieve", "tmle"), n_reps=1, seed=5, workers=1)
    assert all(fit["error"] is None for fit in rep["fits"].values())
    names = {s.name for s in tracer.spans}
    assert {"bench.run_scenario", "simulate.cohort", "cox.fit", "sieve.fit", "tmle.fit", "smoothing.fit"} <= names
    assert sum(s.counts.get("hazard_rows", 0) for s in tracer.spans) > 0  # the inversion calls `cumulative_hazard`
