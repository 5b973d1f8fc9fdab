"""The benchmark tracer (perfbench/tracing.py) patches names in vewane by
attribute: every span target, `Dataset.arrays` and the `Dataset._arrays` cache
it reads.  Installing it here makes a renamed or deleted target fail this
suite instead of only a traced benchmark run."""

from pathlib import Path

import numpy as np

from vewane.core import validate_dataset

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
