"""vewane benchmark: one closed-loop client runs a workload's ops for a fixed time.

    python3 perfbench/run.py --workload replicate-10k --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced cycles of ops and reports per-layer metrics from
the traced ones, plus the tracing overhead.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.  Run records, per-op
rows and spans are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()
# one BLAS thread: a single client in a single process, measured on a small shared box
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 20260809  # the seed reference.json holds betas for
SETUP_REPEATS = 3  # input builds per run; setup_s takes their median


def import_vewane():
    """Import vewane from src/ beside this directory, never from an installed copy."""
    if not (SRC / "vewane" / "__init__.py").is_file():
        raise SystemExit(f"error: no vewane sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vewane

    if Path(vewane.__file__).resolve().parent != SRC / "vewane":
        raise SystemExit(f"error: imported vewane from {vewane.__file__}, not from {SRC}")
    return vewane


def git_commit() -> str | None:
    """HEAD of the checkout's own repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "vewane").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(args, vewane) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "vewane": vewane.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops beyond it.

    Below 20 ops no percentile at or above the median has ten ops beyond it, so
    the median (p50) is reported: the tail is not resolved at that op count.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


@dataclass
class OpRecord:
    index: int
    wall: float
    traced: bool
    out: object
    error: str | None  # why the op failed: it raised, or a check on its output failed
    completed: bool = field(init=False)  # returned without raising
    betas: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def __post_init__(self):
        self.completed = self.error is None


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def attempt(workload, i: int) -> tuple[object, str | None]:
    """(output, None) of op i, or (None, reason) if it raised."""
    try:
        return workload.op(i), None
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        return None, _error(exc)


def run_ops(workload, seconds: float, tracer=None) -> tuple[list[OpRecord], float]:
    """Whole cycles of ops back to back until `seconds` have passed.

    With a tracer, even cycles run untraced and odd cycles traced, and at least
    one cycle of each runs.
    """
    cycle = workload.cycle
    records = []
    started = time.perf_counter()
    i = 0
    while True:
        if i % cycle == 0 and time.perf_counter() - started >= seconds and (tracer is None or i >= 2 * cycle):
            break
        traced = tracer is not None and (i // cycle) % 2 == 1
        with tracer.installed() if traced else nullcontext():
            with tracer.op(i) if traced else nullcontext() as span:
                t0 = time.perf_counter()
                out, error = attempt(workload, i)
                wall = time.perf_counter() - t0
        if traced:
            wall = span.duration
        records.append(OpRecord(i, wall, traced, out, error))
        i += 1
    return records, time.perf_counter() - started


def check_ops(workload, records: list[OpRecord], reference: dict | None) -> None:
    """Check every op's output after the timed phase; a failure marks the op, never aborts."""
    from workloads import beta_problems

    for rec in records:
        if rec.error is None:
            try:
                rec.betas, rec.counts, problems = workload.check(rec.index, rec.out)
                expected = None if reference is None else reference.get(workload.key(rec.index))
                problems += beta_problems(rec.betas, expected)
            except Exception as exc:  # a check that cannot read the output fails the op
                problems = [_error(exc)]
            rec.error = "; ".join(problems) or None
        rec.out = None


def end_to_end_metrics(records, phase_s: float, setup_s: float) -> dict:
    """Metric name -> (value, unit), as a user of the system sees them."""
    walls = [r.wall for r in records]
    return {
        "ops_per_s": (sum(r.completed for r in records) / phase_s, "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail(walls)[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def layer_metrics(tracer, records) -> dict:
    """Per-layer means per traced op (times, counts) or per fit (iteration counts)."""
    summary = tracer.summary()
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)

    def total(*names):
        return sum(summary[k]["total_s"] for k in names if k in summary) / n

    def self_(name):
        return summary[name]["self_s"] / n if name in summary else 0.0

    def per_fit(name, key):
        row = summary.get(name)
        if row is None or not row["counts"]["fits"]:
            return 0.0
        return row["counts"][key] / row["counts"]["fits"]

    def count(key):
        return sum(row["counts"].get(key, 0) for row in summary.values()) / n

    def op_mean(key):
        values = [r.counts[key] for r in traced if key in r.counts]
        return statistics.mean(values) if values else 0.0

    ops_traced = n / sum(r.wall for r in traced)
    ops_untraced = len(untraced) / sum(r.wall for r in untraced)
    peak = summary["tmle.fit"]["counts"]["peak_alloc_bytes"] if "tmle.fit" in summary else 0.0
    return {
        "simulate.cohort_s": (total("simulate.cohort"), "s"),
        "simulate.draw_s": (total("simulate.sample_latents", "simulate.invert"), "s"),
        "simulate.records_s": (self_("simulate.cohort"), "s"),
        "simulate.hazard_rows": (count("hazard_rows"), "count"),
        "core.validate_s": (total("core.validate"), "s"),
        "core.arrays_s": (total("core.arrays"), "s"),
        "core.csv_read_s": (total("core.csv_read"), "s"),
        "cli.self_s": (self_("cli.command"), "s"),
        "cli.fit_json_bytes": (op_mean("fit_json_bytes"), "B"),
        "sieve.fit_s": (total("sieve.fit"), "s"),
        "sieve.newton_iters": (per_fit("sieve.fit", "newton_iters"), "count"),
        "tmle.fit_s": (total("tmle.fit"), "s"),
        "tmle.init_s": (total("tmle.init"), "s"),
        "tmle.self_s": (self_("tmle.fit"), "s"),
        "tmle.target_iters": (per_fit("tmle.fit", "target_iters"), "count"),
        "tmle.init_iters": (per_fit("tmle.fit", "init_iters"), "count"),
        "tmle.truncated_rows": (per_fit("tmle.fit", "truncated_rows"), "count"),
        "tmle.peak_alloc_mb": (peak / 2**20, "MB"),
        "smoothing.fit_s": (total("smoothing.fit"), "s"),
        "smoothing.spline_eval_s": (total("smoothing.spline_eval"), "s"),
        "smoothing.kernel_eval_s": (total("smoothing.kernel_eval"), "s"),
        "cox.fit_s": (total("cox.fit"), "s"),
        "cox.newton_iters": (per_fit("cox.fit", "newton_iters"), "count"),
        "cox.events": (per_fit("cox.fit", "events"), "count"),
        "report.curve_s": (total("report.curve"), "s"),
        "report.mc_s": (total("report.mc"), "s"),
        "surveillance.impute_s": (total("surveillance.impute"), "s"),
        "bench.self_s": (self_("bench.run_scenario"), "s"),
        "op.self_s": (self_("op"), "s"),
        "trace.ops_per_s_traced": (ops_traced, "1/s"),
        "trace.ops_per_s_untraced": (ops_untraced, "1/s"),
        "trace.overhead_pct": (100.0 * (ops_untraced / ops_traced - 1.0), "%"),
    }


def load_reference(args) -> dict | None:
    if args.smoke or args.seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(args.workload)


def run(args, reference=None, import_s: float = 0.0) -> dict:
    """Set up, warm up, run the timed phase, check outputs; returns the result and the run detail."""
    from tracing import Tracer
    from workloads import WARM_UP_INDEX, WORKLOADS

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir), smoke=args.smoke)
        build_s = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            build_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm = OpRecord(WARM_UP_INDEX, 0.0, False, *attempt(workload, WARM_UP_INDEX))
        warm_s = time.perf_counter() - t0
        check_ops(workload, [warm], None)  # a failed warm-up makes the run incorrect
        setup_s = import_s + statistics.median(build_s) + warm_s

        tracer = Tracer() if args.trace else None
        records, phase_s = run_ops(workload, args.seconds, tracer)
        check_ops(workload, records, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.error is not None for r in records)
    metrics = layer_metrics(tracer, records) if args.trace else end_to_end_metrics(records, phase_s, setup_s)
    return {
        "result": {
            "correct": failed == 0 and warm.error is None,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
        "warm_up": warm,
        "records": records,
        "tracer": tracer,
        "phase_s": phase_s,
        "setup": {"import_s": import_s, "build_s": build_s, "warm_up_s": warm_s},
    }


def report(args, record: dict, outcome: dict) -> None:
    """Human-readable lines, the run files, and the JSON result as the last line."""
    result = outcome["result"]
    timed = outcome["records"]
    records = [outcome["warm_up"]] + timed
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    print("run " + json.dumps(record, sort_keys=True))
    walls = [r.wall for r in timed]
    tail_s, pct = tail(walls)
    print(
        f"{args.workload}: {len(timed)} timed ops in {outcome['phase_s']:.2f} s; "
        f"p50 {statistics.median(walls):.4f} s; tail p{pct:.1f} {tail_s:.4f} s over {len(walls)} ops"
    )
    print(f"failed_frac = {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4f}")
    for rec in records:
        if rec.error is not None:
            print(f"  op {rec.index} failed: {rec.error}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    tracer = outcome["tracer"]
    if tracer is not None:
        n = sum(r.traced for r in timed)
        print(f"per-layer self time per traced op ({n} traced ops):")
        for name, row in sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"]):
            counts = " ".join(f"{k}={v:g}" for k, v in sorted(row["counts"].items()))
            print(f"  {name:26s} self {row['self_s'] / n:10.6f} s  total {row['total_s'] / n:10.6f} s  calls {row['calls'] / n:8.2f}  {counts}")
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    detail = {
        "record": record,
        "setup": outcome["setup"],
        "result": result,
        "ops": [{"index": r.index, "wall_s": r.wall, "traced": r.traced, "error": r.error, **r.counts} for r in records],
    }
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small cohorts, one set-up, no reference check")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    vewane = import_vewane()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_s = time.perf_counter() - _T_START
    record = run_record(args, vewane)
    try:
        outcome = run(args, load_reference(args), import_s)
    except Exception:
        traceback.print_exc()
        return 1
    report(args, record, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
