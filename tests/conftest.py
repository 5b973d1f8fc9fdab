import os
from typing import NamedTuple

import numpy as np
import pytest

from vewane.core import _CAUSE_CODE, Cause, validate_dataset
from vewane.simulate import ScenarioSpec, simulate_cohort

_CODE_CAUSE = {code: cause for cause, code in _CAUSE_CODE.items()}


def workers() -> int:
    return max(1, int(os.environ.get("VEWANE_JOBS", os.cpu_count() or 1)))


def make_records(rows, horizon=1.0, time_unit="years"):
    """Validated Dataset of rows (id, vax_time or None, event_time, cause[, strain or None])."""
    rows = list(rows)
    columns = {
        "id": [str(row[0]) for row in rows],
        "vax": [np.nan if row[1] is None else row[1] for row in rows],
        "time": [row[2] for row in rows],
        "cause": [_CAUSE_CODE[row[3]] for row in rows],
        "strain": [(row[4] if len(row) > 4 else None) or 0 for row in rows],
    }
    return validate_dataset(columns, horizon, time_unit)


class Row(NamedTuple):
    id: str
    vax_time: float | None
    event_time: float
    cause: Cause
    strain: int | None


def dataset_rows(dataset):
    """One Row per participant, for oracles written row by row."""
    a = dataset.arrays()
    for i, v, t, c, s in zip(
        dataset.ids, a["vax"].tolist(), a["time"].tolist(), a["cause"].tolist(), a["strain"].tolist()
    ):
        yield Row(i, None if np.isnan(v) else v, t, _CODE_CAUSE[c], s or None)


def with_columns(dataset, horizon=None, **columns):
    """The dataset re-validated with some columns replaced (and its horizon, if given)."""
    edited = dict(dataset.arrays(), id=dataset.ids, **columns)
    return validate_dataset(edited, dataset.horizon if horizon is None else horizon, dataset.time_unit)


def event_times(dataset):
    """Times of the uncensored first events, in row order."""
    a = dataset.arrays()
    return a["time"][a["cause"] != _CAUSE_CODE[Cause.CENSORED]]


@pytest.fixture(scope="session")
def small_cohort():
    """Moderate simulated cohort shared by estimator tests."""
    scenario = ScenarioSpec(n=8000, seed=314159)
    dataset, truth = simulate_cohort(scenario)
    return scenario, dataset, truth


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260809)
