"""Domain types, time conventions, VE basis evaluation, and dataset validation."""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat

import numpy as np

DAYS_PER_YEAR = 365.0  # day-unit times and ramp lengths in days divide by this


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
    if (tau < 0).any() or not np.isfinite(tau).all():
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


class RowIds(Sequence):
    """The participant ids "p000000", "p000001", ... of n rows, formatted only
    when they are read (iteration formats them in blocks).  Unique by
    construction, so `validate_dataset` skips their duplicate check.  A slice
    reads as a list."""

    __slots__ = ("_n",)
    _FORMAT = "p%06d"
    _BLOCK = 4096

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._FORMAT % k for k in range(*i.indices(self._n))]
        k = operator.index(i)
        if not -self._n <= k < self._n:
            raise IndexError("row id index out of range")
        return self._FORMAT % (k % self._n)

    def __iter__(self):
        return itertools.chain.from_iterable(map(self._block, range(0, self._n, self._BLOCK)))

    def _block(self, start: int) -> list[str]:
        # one format of a block of ids, then a split: ~1.5x faster than one format per id
        stop = min(start + self._BLOCK, self._n)
        return ((self._FORMAT + "\n") * (stop - start) % tuple(range(start, stop))).split()

    def __eq__(self, other):
        if isinstance(other, RowIds):
            return self._n == other._n
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(other) == self._n and all(map(operator.eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"RowIds({self._n})"


class Dataset:
    """Validated cohort of first events on a common calendar scale, held as
    columns (`arrays()`) beside the participant ids (a `RowIds` for a
    simulated cohort)."""

    def __init__(self, ids: Sequence[str], columns: dict, horizon: float, time_unit: str = "years"):
        self.ids = ids
        self._arrays = columns
        self.horizon = horizon
        self.time_unit = time_unit

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Dataset(n={len(self)}, horizon={self.horizon!r}, time_unit={self.time_unit!r})"

    def arrays(self) -> dict:
        """Columns: vax (nan = unvaccinated), time, cause code (-1/0/1), strain (0 = none)."""
        return self._arrays


def _as_columns(columns: Mapping):
    """(ids, columns) of an id-plus-columns mapping, the columns as numpy arrays."""
    if not isinstance(columns, Mapping):
        raise TypeError(
            f"expected a mapping of columns (id, vax, time, cause, optional strain), got {type(columns).__name__}"
        )
    ids = columns["id"]
    arrays = {
        "vax": np.asarray(columns["vax"], dtype=float),
        "time": np.asarray(columns["time"], dtype=float),
        "cause": np.asarray(columns["cause"], dtype=np.int64),
        "strain": np.asarray(columns.get("strain", np.zeros(len(ids))), dtype=np.int64),
    }
    return ids, arrays


def _violations(ids, columns, horizon: float) -> list[Violation]:
    found = []  # (index, field order, field, reason)
    if not isinstance(ids, RowIds) and len(set(ids)) < len(ids):
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
        (np.isinf(vax) | (vax < 0), 2, "vax_time", "negative vax_time"),
        ((columns["strain"] != 0) & (columns["cause"] != 1), 3, "strain", "strain on non-preventable cause"),
        (~np.isin(columns["cause"], (-1, 0, 1)), 4, "cause", "unknown cause code"),
    ]
    for mask, order, name, reason in checks:
        found.extend((int(i), order, name, reason) for i in np.flatnonzero(mask))
    return [Violation(i, name, reason) for i, _, name, reason in sorted(found)]


def check_records(columns: Mapping, horizon: float) -> list[Violation]:
    """All invariant violations, one entry per offending field.

    `columns` maps "id" (list of str), "vax" (nan = unvaccinated), "time",
    "cause" (code -1/0/1) and an optional "strain" (0 = none), the form
    `Dataset.arrays()` returns plus "id".
    """
    return _violations(*_as_columns(columns), horizon)


def validate_dataset(columns: Mapping, horizon: float, time_unit: str = "years") -> Dataset:
    """Build a Dataset from columns (see `check_records`), raising
    DatasetValidationError (with the violation list) when invalid."""
    ids, arrays = _as_columns(columns)
    violations = _violations(ids, arrays, horizon)
    if violations:
        raise DatasetValidationError(violations)
    return Dataset(ids, arrays, horizon, time_unit)


def convert_to_years(dataset: Dataset) -> Dataset:
    """Rescale a day-denominated dataset to years (the internal analysis scale)."""
    if dataset.time_unit == "years":
        return dataset
    a = dataset.arrays()
    columns = dict(a, vax=a["vax"] / DAYS_PER_YEAR, time=a["time"] / DAYS_PER_YEAR)
    return Dataset(dataset.ids, columns, dataset.horizon / DAYS_PER_YEAR, "years")


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


_REQUIRED_COLUMNS = frozenset({"id", "vax_time", "event_time", "cause"})


def _aligned_columns(text: str) -> tuple[list[str], list[list[str]]] | None:
    """(header, one list of field strings per header column) of CSV text with no
    quote character whose every line ends in the first line's ending (`\n` or
    `\r\n`) and has the first line's comma count, from one comma split; None
    for any other text.

    With w - 1 commas per line, every (w - 1)-th field of the split holds one
    line's last field, a line ending and the next line's first field.  Each of
    them holding exactly one line ending, and the text holding no other `\n` or
    `\r`, is what proves every line has w fields.  A missing final line ending
    is read as though it were there."""
    first = text.find("\n")
    if first < 0 or '"' in text:
        return None
    step = text.count(",", 0, first)
    if step == 0:
        return None
    eol = "\r\n" if text[first - 1 : first] == "\r" else "\n"
    if not text.endswith(eol):
        text += eol
    parts = text.split(",")
    joints = parts[step::step]
    n_lines = len(joints)
    if (
        (len(parts) - 1) % step
        or text.count("\n") != n_lines
        or text.count("\r") != (n_lines if eol == "\r\n" else 0)
        or not all(map(operator.contains, joints, repeat(eol)))
    ):
        return None
    ends = eol.join(joints).split(eol)  # each line's last field, then the next line's first
    lasts, firsts = ends[0::2], ends[1::2]
    middle = [parts[step + j :: step] for j in range(1, step)]
    return parts[:step] + lasts[:1], [firsts[:-1], *middle, lasts[1:]]


def _reader_columns(text: str) -> tuple[list[str], list[list[str | None]]]:
    """(header, one list of field strings per header column) of CSV text parsed
    by `csv.reader`, blank lines skipped; a field that a short row lacks reads
    as None."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, [])
    rows = [row for row in reader if row]
    return header, [[row[j] if j < len(row) else None for row in rows] for j in range(len(header))]


_UNKNOWN_CAUSE = 2  # not a cause code: marks a cause name outside `Cause`


def read_events_csv(path, horizon: float | None = None, time_unit: str = "years") -> Dataset:
    """Read the events CSV into columns; an empty vax_time means never vaccinated
    and an empty or missing strain means none (NaN and 0 in the columns).  Blank
    lines are skipped, and violation indices count data rows after them.

    Text that `_aligned_columns` accepts is split on commas once; any other
    text (quotes, lone or mixed `\r`, blank lines, ragged rows, one column) is
    parsed by `csv.reader`.  Both give the same fields."""
    with open(path, newline="") as fh:
        text = fh.buffer.read().decode(fh.encoding, fh.errors)
    header, fields = _aligned_columns(text) or _reader_columns(text)
    col = {name: k for k, name in enumerate(header)}
    if not _REQUIRED_COLUMNS.issubset(col):
        raise DatasetValidationError(
            [Violation(-1, "header", f"events CSV needs columns {sorted(_REQUIRED_COLUMNS)}")]
        )
    need = 1 + max(col[name] for name in _REQUIRED_COLUMNS)
    last_required = fields[need - 1]
    if None in last_required:
        raise DatasetValidationError(
            [Violation(k, "row", f"fewer than {need} fields") for k, f in enumerate(last_required) if f is None]
        )
    n = len(last_required)
    codes = {c.value: code for c, code in _CAUSE_CODE.items()}
    raw_cause = fields[col["cause"]]
    cause = np.fromiter(map(codes.get, map(str.strip, raw_cause), repeat(_UNKNOWN_CAUSE)), np.int64, n)
    unknown = np.flatnonzero(cause == _UNKNOWN_CAUSE)
    if unknown.size:
        k = int(unknown[0])
        raise DatasetValidationError([Violation(k, "cause", f"unknown cause {raw_cause[k]!r}")])
    vax = (float(v) if v else math.nan for v in map(str.strip, fields[col["vax_time"]]))
    columns = {
        "id": fields[col["id"]],
        "vax": np.fromiter(vax, float, n),
        "time": np.fromiter(map(float, fields[col["event_time"]]), float, n),
        "cause": cause,
    }
    if "strain" in col:
        strain = (int(s.strip() or 0) if s else 0 for s in fields[col["strain"]])
        columns["strain"] = np.fromiter(strain, np.int64, n)
    if horizon is None:
        horizon = max(columns["time"].tolist(), default=0.0)
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
            raise VewaneError("not a multinomial fit")
        if strain not in self.strains:
            raise VewaneError(f"strain {strain} not in fit (has {self.strains})")
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
            fh.write(json.dumps(self.to_dict()))

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
