"""Domain types, time conventions, VE basis evaluation, and dataset validation."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

UNVACCINATED = None  # semantic sentinel: vaccination never happens (V = +inf)


class VewaneError(Exception):
    """Base class for all library errors."""


class DatasetValidationError(VewaneError):
    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"{len(violations)} invalid record(s): {lines}{more}")


class NonIdentifiableError(VewaneError):
    """Model parameters cannot be identified from the data (separation or singular information)."""


class OnlyOneCauseError(VewaneError):
    """All infected participants share the same cause; the cause odds carry no information."""


class NotConvergedError(VewaneError):
    """Optimizer failed to reach the convergence thresholds."""


class Cause(Enum):
    CENSORED = "censored"
    IRRELEVANT = "irrelevant"
    PREVENTABLE = "preventable"


_CAUSE_CODE = {Cause.CENSORED: -1, Cause.IRRELEVANT: 0, Cause.PREVENTABLE: 1}
_CODE_CAUSE = {v: k for k, v in _CAUSE_CODE.items()}


@dataclass(frozen=True)
class EventRecord:
    """One participant: vaccination date (None = never vaccinated), first-event time and cause.

    `strain` labels the infecting strain (1..m) and is only meaningful for
    preventable events when strains are modeled.
    """

    id: str
    vax_time: float | None
    event_time: float
    cause: Cause
    strain: int | None = None


@dataclass(frozen=True)
class Violation:
    index: int
    field: str
    reason: str

    def __str__(self) -> str:
        return f"record {self.index}: {self.field}: {self.reason}"


@dataclass(frozen=True)
class VEBasisSpec:
    """Finite basis psi(tau) for the log hazard ratio f(tau) = beta' psi(tau).

    kinds:
      constant  d=1  psi = (1,)
      linear    d=2  psi = (1, tau)
      ramp      d=3  psi = (1{tau<r}, 1{tau>=r}, 1{tau>=r}*(tau-r))
    """

    kind: str
    ramp_length: float | None = None

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "ramp"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.kind == "ramp":
            if self.ramp_length is None or not (self.ramp_length > 0):
                raise ValueError("ramp basis requires ramp_length > 0")
        elif self.ramp_length is not None:
            raise ValueError(f"ramp_length is only meaningful for kind='ramp'")

    @property
    def dimension(self) -> int:
        return {"constant": 1, "linear": 2, "ramp": 3}[self.kind]

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.ramp_length is not None:
            d["ramp_length"] = self.ramp_length
        return d

    @staticmethod
    def from_dict(d: dict) -> "VEBasisSpec":
        return VEBasisSpec(kind=d["kind"], ramp_length=d.get("ramp_length"))


def eval_ve_basis(spec: VEBasisSpec, tau) -> np.ndarray:
    """Evaluate psi(tau); tau may be a scalar or array, output shape (..., d)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0) or np.any(~np.isfinite(tau)):
        raise ValueError("tau must be finite and >= 0")
    if spec.kind == "constant":
        out = np.ones(tau.shape + (1,))
    elif spec.kind == "linear":
        out = np.stack([np.ones_like(tau), tau], axis=-1)
    else:
        r = spec.ramp_length
        pre = (tau < r).astype(float)
        post = 1.0 - pre
        out = np.stack([pre, post, post * (tau - r)], axis=-1)
    return out


def ve_basis_pieces(spec: VEBasisSpec) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """psi as affine pieces: (start, a, c) with psi(tau) = a + c * tau from start
    up to the next piece's start (the last piece is unbounded).

    Membership follows `eval_ve_basis`: tau is in a piece when start <= tau and
    tau < the next start, with tau computed as fl(t - V).
    """
    if spec.kind == "constant":
        return [(0.0, np.array([1.0]), np.array([0.0]))]
    if spec.kind == "linear":
        return [(0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    r = spec.ramp_length
    return [
        (0.0, np.array([1.0, 0.0, 0.0]), np.zeros(3)),
        (r, np.array([0.0, 1.0, -r]), np.array([0.0, 0.0, 1.0])),
    ]


def f_value(beta, spec: VEBasisSpec, tau):
    """Log hazard ratio beta' psi(tau); scalar in, scalar out."""
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (spec.dimension,):
        raise ValueError(f"beta has dim {beta.shape}, basis needs ({spec.dimension},)")
    val = eval_ve_basis(spec, tau) @ beta
    return float(val) if val.ndim == 0 else val


def ve_from_f(f):
    """VE = 1 - exp(f); may be negative when the effect is harmful."""
    f = np.asarray(f, dtype=float)
    if np.any(~np.isfinite(f)):
        raise ValueError("f must be finite")
    out = 1.0 - np.exp(f)
    return float(out) if out.ndim == 0 else out


class Dataset:
    """Validated cohort of first-event records on a common calendar scale.

    Held as columns (`arrays()`) plus an id list; `records`, one EventRecord
    per participant, is built from the columns on first use, and the columns
    from the records when only records are given.
    """

    def __init__(self, records, horizon: float, time_unit: str = "years", *, ids=None, columns=None):
        self._records = None if records is None else list(records)
        self._ids = ids
        self._arrays = columns
        self.horizon = horizon
        self.time_unit = time_unit

    def __len__(self) -> int:
        return len(self._records) if self._records is not None else len(self._ids)

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, horizon={self.horizon!r}, time_unit={self.time_unit!r})"

    def arrays(self) -> dict:
        """Columnar view: vax (nan = unvaccinated), time, cause code (-1/0/1), strain (0 = none)."""
        if self._arrays is None:
            self._arrays = _record_columns(self._records)[0]
        return self._arrays

    @property
    def ids(self) -> Sequence[str]:
        if self._ids is None:
            self._ids = [r.id for r in self._records]
        return self._ids

    @property
    def records(self) -> list[EventRecord]:
        if self._records is None:
            a = self._arrays
            self._records = [
                EventRecord(i, None if math.isnan(v) else v, t, _CODE_CAUSE[c], s or None)
                for i, v, t, c, s in zip(
                    self._ids, a["vax"].tolist(), a["time"].tolist(), a["cause"].tolist(), a["strain"].tolist()
                )
            ]
        return self._records


def _record_columns(records: Sequence[EventRecord]):
    """(columns, vax given, strain given) of a record sequence."""

    def column(values, dtype):
        return np.fromiter(values, dtype=dtype, count=len(records))

    columns = {
        "vax": column((np.nan if r.vax_time is None else r.vax_time for r in records), float),
        "time": column((r.event_time for r in records), float),
        "cause": column((_CAUSE_CODE[r.cause] for r in records), np.int64),
        "strain": column((r.strain or 0 for r in records), np.int64),
    }
    vax_given = column((r.vax_time is not None for r in records), bool)
    strain_given = column((r.strain is not None for r in records), bool)
    return columns, vax_given, strain_given


def _as_columns(records):
    """(ids, columns, vax given, strain given) of records or of an id-plus-columns dict."""
    if not isinstance(records, dict):
        return ([r.id for r in records], *_record_columns(records))
    ids = records["id"]
    columns = {
        "vax": np.asarray(records["vax"], dtype=float),
        "time": np.asarray(records["time"], dtype=float),
        "cause": np.asarray(records["cause"], dtype=np.int64),
        "strain": np.asarray(records.get("strain", np.zeros(len(ids))), dtype=np.int64),
    }
    return ids, columns, ~np.isnan(columns["vax"]), columns["strain"] != 0


def _violations(ids, columns, vax_given, strain_given, horizon: float) -> list[Violation]:
    found = []  # (index, field order, field, reason)
    if len(set(ids)) < len(ids):
        seen: set = set()
        for i, rid in enumerate(ids):
            if rid in seen:
                found.append((i, 0, "id", f"duplicate id {rid!r}"))
            seen.add(rid)
    time, vax = columns["time"], columns["vax"]
    bad_time = ~np.isfinite(time) | (time < 0)
    checks = [
        (bad_time, 1, "event_time", "negative event_time"),
        (~bad_time & (time > horizon), 1, "event_time", "event_time exceeds horizon"),
        (vax_given & (~np.isfinite(vax) | (vax < 0)), 2, "vax_time", "negative vax_time"),
        (strain_given & (columns["cause"] != 1), 3, "strain", "strain on non-preventable cause"),
        (~np.isin(columns["cause"], (-1, 0, 1)), 4, "cause", "unknown cause code"),
    ]
    for mask, order, name, reason in checks:
        found.extend((int(i), order, name, reason) for i in np.flatnonzero(mask))
    return [Violation(i, name, reason) for i, _, name, reason in sorted(found)]


def check_records(records, horizon: float) -> list[Violation]:
    """All invariant violations, one entry per offending field.

    `records` is a sequence of EventRecord or a dict of columns: "id" (list of
    str), "vax" (nan = unvaccinated), "time", "cause" (code -1/0/1) and an
    optional "strain" (0 = none), as returned by `Dataset.arrays()`.
    """
    return _violations(*_as_columns(records), horizon)


def validate_dataset(records, horizon: float, time_unit: str = "years") -> Dataset:
    """Build a Dataset, raising DatasetValidationError (with the violation list) when invalid.

    `records` is a sequence of EventRecord or a dict of columns (see `check_records`).
    """
    ids, columns, vax_given, strain_given = _as_columns(records)
    violations = _violations(ids, columns, vax_given, strain_given, horizon)
    if violations:
        raise DatasetValidationError(violations)
    if isinstance(records, dict):
        return Dataset(None, horizon, time_unit, ids=ids, columns=columns)
    return Dataset(records, horizon, time_unit, columns=columns)


def convert_to_years(dataset: Dataset, days_per_year: float = 365.0) -> Dataset:
    """Rescale a day-denominated dataset to years (the internal analysis scale)."""
    if dataset.time_unit == "years":
        return dataset
    a = dataset.arrays()
    columns = dict(a, vax=a["vax"] / days_per_year, time=a["time"] / days_per_year)
    return Dataset(None, dataset.horizon / days_per_year, "years", ids=dataset.ids, columns=columns)


# -- events CSV (header: id,vax_time,event_time,cause,strain) --


def write_events_csv(dataset: Dataset, path) -> None:
    a = dataset.arrays()
    names = {code: c.value for c, code in _CAUSE_CODE.items()}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "vax_time", "event_time", "cause", "strain"])
        w.writerows(
            [i, "" if math.isnan(v) else repr(v), repr(t), names[c], s or ""]
            for i, v, t, c, s in zip(
                dataset.ids, a["vax"].tolist(), a["time"].tolist(), a["cause"].tolist(), a["strain"].tolist()
            )
        )


def read_events_csv(path, horizon: float | None = None, time_unit: str = "years") -> Dataset:
    """Read the events CSV into columns; an empty vax_time means never vaccinated
    and an empty strain means none (NaN and 0 in the columns)."""
    required = {"id", "vax_time", "event_time", "cause"}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not required.issubset(header):
            raise DatasetValidationError(
                [Violation(-1, "header", f"events CSV needs columns {sorted(required)}")]
            )
        rows = [row for row in reader if row]  # blank lines are skipped
    col = {name: k for k, name in enumerate(header)}
    codes = {c.value: code for c, code in _CAUSE_CODE.items()}
    cause = [codes.get(row[col["cause"]].strip()) for row in rows]
    if None in cause:
        k = cause.index(None)
        raise DatasetValidationError([Violation(k, "cause", f"unknown cause {rows[k][col['cause']]!r}")])
    i_strain = col.get("strain")
    strain = ["" if i_strain is None or i_strain >= len(row) else row[i_strain].strip() for row in rows]
    vax = [row[col["vax_time"]].strip() for row in rows]
    columns = {
        "id": [row[col["id"]] for row in rows],
        "vax": [float(v) if v else math.nan for v in vax],
        "time": [float(row[col["event_time"]]) for row in rows],
        "cause": cause,
        "strain": [int(s) if s else 0 for s in strain],
    }
    if horizon is None:
        horizon = max(columns["time"], default=0.0)
    return validate_dataset(columns, horizon, time_unit)


@dataclass
class FitResult:
    """A fitted VE model: beta, its covariance, the nuisance representation, diagnostics.

    For multinomial fits `beta` stacks the per-strain coefficient blocks in
    `strains` order and `basis` is the matching list of per-strain bases.
    """

    method: str
    beta: np.ndarray
    beta_cov: np.ndarray
    basis: VEBasisSpec | list[VEBasisSpec]
    nuisance: object = None
    diagnostics: dict = field(default_factory=dict)
    strains: list[int] | None = None

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.beta_cov = np.asarray(self.beta_cov, dtype=float)
        d = self.beta.shape[0]
        if self.beta_cov.shape != (d, d):
            raise ValueError("beta_cov shape inconsistent with beta")

    def strain_block(self, strain: int) -> tuple[np.ndarray, np.ndarray, VEBasisSpec]:
        """(beta_s, cov_s, basis_s) for one strain of a multinomial fit."""
        if self.strains is None:
            raise ValueError("not a multinomial fit")
        if strain not in self.strains:
            raise ValueError(f"strain {strain} not in fit (has {self.strains})")
        k = self.strains.index(strain)
        dims = [b.dimension for b in self.basis]
        lo = sum(dims[:k])
        hi = lo + dims[k]
        return self.beta[lo:hi], self.beta_cov[lo:hi, lo:hi], self.basis[k]

    def to_dict(self) -> dict:
        basis = self.basis
        basis_d = [b.to_dict() for b in basis] if isinstance(basis, list) else basis.to_dict()
        nuis = self.nuisance.to_dict() if hasattr(self.nuisance, "to_dict") else self.nuisance
        diagnostics = {
            k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in self.diagnostics.items()
        }
        return {
            "method": self.method,
            "beta": self.beta.tolist(),
            "beta_cov": self.beta_cov.tolist(),
            "basis": basis_d,
            "strains": self.strains,
            "nuisance": nuis,
            "diagnostics": diagnostics,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @staticmethod
    def from_dict(d: dict) -> "FitResult":
        from . import smoothing

        basis_d = d["basis"]
        if isinstance(basis_d, list):
            basis = [VEBasisSpec.from_dict(b) for b in basis_d]
        else:
            basis = VEBasisSpec.from_dict(basis_d)
        nuis = d.get("nuisance")
        if isinstance(nuis, dict) and "smooth_fn" in nuis:
            nuis = smoothing.smooth_fn_from_dict(nuis)
        return FitResult(
            method=d["method"],
            beta=np.asarray(d["beta"], dtype=float),
            beta_cov=np.asarray(d["beta_cov"], dtype=float),
            basis=basis,
            nuisance=nuis,
            diagnostics=d.get("diagnostics", {}),
            strains=d.get("strains"),
        )

    @staticmethod
    def load(path) -> "FitResult":
        with open(path) as fh:
            return FitResult.from_dict(json.load(fh))
