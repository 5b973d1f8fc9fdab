"""Fixed alpha(t) offsets from external case counts, variant mixtures, and strain imputation."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .core import Dataset, VewaneError
from .sieve import FixedOffset
from .smoothing import SmoothFn, TableFn, smooth_fn_from_dict

HALDANE = 0.5  # continuity correction keeps zero-count bins finite


@dataclass(frozen=True)
class SurveillanceSeries:
    """Binned external case counts at bin-midpoint times."""

    time_points: tuple[float, ...]
    counts_preventable: tuple[int, ...]
    counts_irrelevant: tuple[int, ...] | None = None

    def __post_init__(self):
        t = np.asarray(self.time_points, dtype=float)
        if t.size == 0:
            raise VewaneError("empty surveillance series")
        if np.any(np.diff(t) <= 0):
            raise VewaneError("surveillance times must be strictly increasing")
        for counts in (self.counts_preventable, self.counts_irrelevant):
            if counts is None:
                continue
            c = np.asarray(counts)
            if len(c) != t.size or np.any(c < 0):
                raise VewaneError("counts must be nonnegative and match the time points")


def read_surveillance_csv(path) -> SurveillanceSeries:
    """CSV columns: time,count_preventable[,count_irrelevant]."""
    times, d1, d0 = [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "time" not in reader.fieldnames:
            raise VewaneError("surveillance CSV needs columns time,count_preventable[,count_irrelevant]")
        has_irrelevant = "count_irrelevant" in reader.fieldnames
        for row in reader:
            times.append(float(row["time"]))
            d1.append(int(row["count_preventable"]))
            if has_irrelevant:
                d0.append(int(row["count_irrelevant"]))
    return SurveillanceSeries(
        tuple(times), tuple(d1), tuple(d0) if d0 else None
    )


def tt1_offset(series: SurveillanceSeries) -> SmoothFn:
    """Per-bin log((D1+1/2)/(D0+1/2)), linearly interpolated between bin midpoints."""
    if series.counts_irrelevant is None:
        raise VewaneError("trend transport needs both count columns")
    d1 = np.asarray(series.counts_preventable, dtype=float)
    d0 = np.asarray(series.counts_irrelevant, dtype=float)
    values = np.log((d1 + HALDANE) / (d0 + HALDANE))
    return TableFn(np.asarray(series.time_points), values)


def sda_tt2_offset(series: SurveillanceSeries) -> tuple[SmoothFn, bool]:
    """Time-varying part log(D1+1/2) centered at its log geometric mean; the
    scalar level is left for the consuming fit as a free intercept."""
    d1 = np.log(np.asarray(series.counts_preventable, dtype=float) + HALDANE)
    values = d1 - d1.mean()
    return TableFn(np.asarray(series.time_points), values), True


def sensitivity_offset(time_points, c0_values) -> SmoothFn:
    """log c0(t) for an analyst-supplied proportionality function c0 > 0."""
    c0 = np.asarray(c0_values, dtype=float)
    if np.any(c0 <= 0) or np.any(~np.isfinite(c0)):
        raise VewaneError("c0 must be strictly positive and finite")
    return TableFn(np.asarray(time_points, dtype=float), np.log(c0))


def save_offset(path, offset: SmoothFn, free_intercept: bool = False) -> None:
    with open(path, "w") as fh:
        json.dump({"offset": offset.to_dict(), "free_intercept": free_intercept}, fh, indent=1)


def load_offset(path) -> FixedOffset:
    with open(path) as fh:
        d = json.load(fh)
    return FixedOffset(
        offset=smooth_fn_from_dict(d["offset"]), free_intercept=bool(d.get("free_intercept", False))
    )


@dataclass(frozen=True)
class VariantMix:
    """Right-continuous step function of per-strain proportions over calendar time."""

    time_points: tuple[float, ...]
    strains: tuple[int, ...]
    proportions: tuple[tuple[float, ...], ...]  # (n_times, n_strains)

    def __post_init__(self):
        t = np.asarray(self.time_points, dtype=float)
        p = np.asarray(self.proportions, dtype=float)
        if t.size == 0 or np.any(np.diff(t) <= 0):
            raise VewaneError("mixture times must be nonempty and strictly increasing")
        if p.shape != (t.size, len(self.strains)):
            raise VewaneError("proportions shape must be (n_times, n_strains)")
        if np.any(p < 0) or np.any(p > 1):
            raise VewaneError("proportions must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
            raise VewaneError("proportions must sum to 1 at every time point")

    @staticmethod
    def from_counts(time_points, counts_by_strain: dict[int, list[float]]) -> "VariantMix":
        strains = tuple(sorted(counts_by_strain))
        mat = np.column_stack([np.asarray(counts_by_strain[s], dtype=float) for s in strains])
        mat = mat / mat.sum(axis=1, keepdims=True)
        return VariantMix(tuple(float(x) for x in time_points), strains, tuple(map(tuple, mat)))

    def _bin_index(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(np.asarray(self.time_points), t, side="right") - 1
        return np.clip(idx, 0, len(self.time_points) - 1)

    def lookup(self, t) -> np.ndarray:
        """Proportion vector(s) of the bin containing t; constant beyond the ends."""
        return np.asarray(self.proportions)[self._bin_index(t)]

    def proportions_at(self, t, strain: int) -> np.ndarray:
        if strain not in self.strains:
            raise VewaneError(f"unknown strain {strain}")
        return self.lookup(t)[:, self.strains.index(strain)]


def read_mixture_csv(path) -> VariantMix:
    """CSV columns: time,strain,proportion; proportions per time must sum to 1."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"time", "strain", "proportion"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise VewaneError(f"mixture CSV needs columns {sorted(needed)}")
        for row in reader:
            rows.append((float(row["time"]), int(row["strain"]), float(row["proportion"])))
    times = sorted({r[0] for r in rows})
    strains = tuple(sorted({r[1] for r in rows}))
    mat = np.zeros((len(times), len(strains)))
    t_index = {t: i for i, t in enumerate(times)}
    s_index = {s: j for j, s in enumerate(strains)}
    for t, s, p in rows:
        mat[t_index[t], s_index[s]] = p
    return VariantMix(tuple(times), strains, tuple(map(tuple, mat)))


def impute_strains(dataset: Dataset, mix: VariantMix, seed: int) -> Dataset:
    """Fill missing strains on preventable records by sampling p_s(T).

    Record i consumes the i-th slot of a Philox(seed) uniform block, so the
    result does not depend on how many records actually need imputation.
    """
    a = dataset.arrays()
    u = np.random.Generator(np.random.Philox(seed)).random(len(dataset))
    cum = np.cumsum(np.asarray(mix.proportions), axis=1)
    rows = np.flatnonzero((a["cause"] == 1) & (a["strain"] == 0))
    # the first strain whose cumulative proportion exceeds u, as searchsorted(side="right")
    k = (cum[mix._bin_index(a["time"][rows])] <= u[rows, None]).sum(axis=1)
    strain = a["strain"].copy()
    strain[rows] = np.asarray(mix.strains)[np.minimum(k, len(mix.strains) - 1)]
    return Dataset(dataset.ids, dict(a, strain=strain), dataset.horizon, dataset.time_unit)
