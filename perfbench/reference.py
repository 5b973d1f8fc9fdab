"""Regenerate reference.json: beta per estimator for each op key at the default seed.

    python3 perfbench/reference.py

Run it only when a change is meant to move the estimates; a refactor that
keeps the math must reproduce the committed values within workloads.BETA_TOL.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH_DIR, DEFAULT_SEED, OUT_DIR, REFERENCE, import_vewane


def write_reference(refs: dict) -> None:
    """One op key per line, so a changed estimate shows as a one-line diff."""
    lines = []
    for name, ops in refs.items():
        body = ",\n".join(f"    {json.dumps(key)}: {json.dumps(betas)}" for key, betas in ops.items())
        lines.append(f"  {json.dumps(name)}: {{\n{body}\n  }}")
    with open(REFERENCE, "w") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n' + ",\n".join(lines) + "\n}}\n")


def main() -> int:
    import_vewane()
    from workloads import WORKLOADS

    workdir = OUT_DIR / "work-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, str(workdir))
            workload.build()
            refs[name] = {}
            for i in range(workload.reference_ops):
                betas, _, problems = workload.check(i, workload.op(i))
                for problem in problems:
                    print(f"{name} op {i}: {problem}", file=sys.stderr)
                refs[name][workload.key(i)] = betas
            print(f"{name}: {workload.reference_ops} ops", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    write_reference(refs)
    print(f"wrote {REFERENCE.relative_to(BENCH_DIR.parent)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
