import json

import numpy as np
import pytest

from vewane.cli import run
from vewane.core import read_events_csv
from vewane.report import read_curve
from vewane.simulate import ScenarioSpec
from vewane.surveillance import save_offset, tt1_offset, SurveillanceSeries

from .conftest import dataset_rows


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = ScenarioSpec(n=6000, seed=2026)
    scenario.save(root / "scenario.json")
    assert run(["simulate", "--scenario", str(root / "scenario.json"),
                "--out", str(root / "events.csv"), "--truth", str(root / "truth.json")]) == 0
    return root


class TestSimulate:
    def test_deterministic_with_seed(self, workdir, tmp_path):
        args = ["simulate", "--scenario", str(workdir / "scenario.json"), "--seed", "7"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_truth_sidecar(self, workdir):
        truth = json.loads((workdir / "truth.json").read_text())
        assert truth["beta_true"] == [-1.0, 0.0]
        assert truth["scenario"]["n"] == 6000


class TestFit:
    def test_sieve_fit_and_curve(self, workdir):
        fit_path = workdir / "fit.json"
        assert run(["fit", "--method", "sieve", "--events", str(workdir / "events.csv"),
                    "--basis", "linear", "--out", str(fit_path)]) == 0
        payload = json.loads(fit_path.read_text())
        assert payload["method"] == "sieve"
        assert len(payload["beta"]) == 2
        assert "knots" in payload["diagnostics"]

        curve_path = workdir / "curve.csv"
        assert run(["curve", "--fit", str(fit_path), "--grid", "0:0.8:41",
                    "--monotone", "--out", str(curve_path)]) == 0
        curve = read_curve(curve_path)
        assert curve.tau_grid.size == 41
        assert curve.f_mono is not None

    def test_tmle_with_kernel(self, workdir):
        out = workdir / "fit_tmle.json"
        assert run(["fit", "--method", "tmle", "--events", str(workdir / "events.csv"),
                    "--smoother", "kernel", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["converged"] is True

    def test_ramp_basis(self, workdir):
        out = workdir / "fit_ramp.json"
        assert run(["fit", "--method", "sieve", "--events", str(workdir / "events.csv"),
                    "--basis", "ramp:14", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["beta"]) == 3
        assert payload["basis"]["ramp_length"] == pytest.approx(14 / 365)

    def test_cox_rejects_offset(self, workdir, tmp_path):
        off = tmp_path / "off.json"
        save_offset(off, tt1_offset(SurveillanceSeries((0.5,), (10,), (10,))))
        code = run(["fit", "--method", "cox", "--events", str(workdir / "events.csv"),
                    "--offset", str(off), "--out", str(tmp_path / "x.json")])
        assert code == 1

    def test_offset_fit(self, workdir, tmp_path):
        off = tmp_path / "off.json"
        save_offset(off, tt1_offset(SurveillanceSeries((0.25, 0.75), (30, 60), (40, 40))))
        out = tmp_path / "fit_off.json"
        assert run(["fit", "--method", "sieve", "--events", str(workdir / "events.csv"),
                    "--offset", str(off), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["alpha_mode"] == "offset"

    def test_mono_ci_mc(self, workdir, tmp_path):
        curve_path = tmp_path / "curve_mc.csv"
        assert run(["curve", "--fit", str(workdir / "fit.json"), "--grid", "0:0.8:11",
                    "--monotone", "--mono-ci", "mc", "--seed", "3",
                    "--out", str(curve_path)]) == 0
        curve = read_curve(curve_path)
        assert np.all(curve.ve_mono_lo <= curve.ve_mono_hi + 1e-12)

    def test_days_time_unit(self, workdir, tmp_path):
        events = read_events_csv(workdir / "events.csv", horizon=1.0)
        import csv as _csv

        path = tmp_path / "days.csv"
        with open(path, "w", newline="") as fh:
            w = _csv.writer(fh)
            w.writerow(["id", "vax_time", "event_time", "cause", "strain"])
            for r in dataset_rows(events):
                w.writerow([r.id, "" if r.vax_time is None else r.vax_time * 365,
                            r.event_time * 365, r.cause.value, ""])
        out = tmp_path / "fit_days.json"
        assert run(["fit", "--method", "sieve", "--events", str(path),
                    "--time-unit", "days", "--out", str(out)]) == 0
        days_beta = json.loads(out.read_text())["beta"]
        years_beta = json.loads((workdir / "fit.json").read_text())["beta"]
        assert np.allclose(days_beta, years_beta, atol=1e-6)


class TestErrors:
    def test_usage_error_exit_one(self):
        assert run(["fit", "--method", "nope", "--events", "x", "--out", "y"]) == 1

    def test_data_error_exit_two(self, tmp_path):
        assert run(["fit", "--method", "sieve", "--events", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "o.json")]) == 2

    def test_ragged_events_row_exit_two(self, tmp_path, capsys):
        events = tmp_path / "ragged.csv"
        events.write_text("id,vax_time,event_time,cause,strain\np1,0.1,0.5,preventable,1\np2,0.2\n")
        code = run(["fit", "--method", "sieve", "--events", str(events), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "record 1: row: fewer than 4 fields" in capsys.readouterr().err

    def test_json_errors(self, tmp_path, capsys):
        code = run(["--json-errors", "fit", "--method", "sieve",
                    "--events", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.json")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(err)
        assert "message" in payload

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0


class TestBenchCli:
    def test_smoke(self, tmp_path, monkeypatch):
        import vewane.bench as bench_mod

        # shrink the preset cohorts so the smoke test stays fast
        orig = bench_mod.preset_scenarios

        def small_presets(name):
            from dataclasses import replace

            return [(n, replace(sc, n=1500)) for n, sc in orig(name)][:2]

        monkeypatch.setattr("vewane.cli.preset_scenarios", small_presets)
        out = tmp_path / "results"
        assert run(["bench", "--preset", "table-cover", "--reps", "2",
                    "--seed", "1", "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        assert (out / "results.md").exists()
        assert (out / "config.json").exists()
