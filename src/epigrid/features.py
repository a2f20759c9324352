"""Feature engineering for the district-week table.

Twelve predictors per row: the serial week index, weekly precipitation and
temperature, five land-cover composites, population density, population near
water, relative wealth, and elevation. The label is 1 whenever the week had
at least one case. Min-max scaling feeds the land-cover composites; robust
scaling of whole tables is fitted on training rows only.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, replace

import numpy as np

from . import geometry, ingest
from .errors import EngineError, EngineWarning, SchemaMismatchError
from .ingest import AdminRegion, PointValueSet, SurveillancePanel

FEATURE_NAMES = (
    "week",
    "precipitation",
    "temperature",
    "trees",
    "crops",
    "built_up",
    "bare_ground",
    "rangeland",
    "population_density",
    "population_near_water",
    "relative_wealth",
    "elevation",
)

LANDCOVER_CLASSES = ("trees", "crops", "built_up", "bare_ground", "rangeland")

# features.csv: a 1-based row id, the district, the predictors, cases and label
CSV_DTYPE = np.dtype([("id", np.int64), ("adm_id", np.int64), *((name, float) for name in FEATURE_NAMES),
                      ("cases", np.int64), ("label", np.int64)])


@dataclass(frozen=True)
class MinMaxParams:
    low: float
    high: float

    @property
    def span(self) -> float:
        return self.high - self.low if self.high > self.low else 1.0


@dataclass(frozen=True)
class RobustParams:
    median: float
    q1: float
    q3: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1 if self.q3 > self.q1 else 1.0


def minmax_scale(column) -> tuple[np.ndarray, MinMaxParams]:
    """(x - min) / (max - min); a constant column maps to all zeros."""
    x = np.asarray(column, dtype=float)
    if x.size == 0:
        raise EngineError("cannot scale an empty column")
    params = MinMaxParams(float(x.min()), float(x.max()))
    return (x - params.low) / params.span, params


def robust_scale(column) -> tuple[np.ndarray, RobustParams]:
    """(x - median) / IQR with linearly interpolated quartiles.

    A zero IQR degenerates to centering only.
    """
    x = np.asarray(column, dtype=float)
    if x.size == 0:
        raise EngineError("cannot scale an empty column")
    q1, med, q3 = np.quantile(x, [0.25, 0.5, 0.75], method="linear")
    params = RobustParams(float(med), float(q1), float(q3))
    return (x - params.median) / params.iqr, params


def landcover_composite(area, fraction, population) -> tuple[np.ndarray, dict[str, MinMaxParams]]:
    """Sum of the three min-max scaled components, bounded in [0, 3], plus
    the min-max parameters of each component."""
    parts = {"area": area, "fraction": fraction, "population": population}
    if len({len(v) for v in parts.values()}) != 1:
        raise EngineError("area, fraction, and population must have equal lengths")
    scaled = {name: minmax_scale(v) for name, v in parts.items()}
    values = scaled["area"][0] + scaled["fraction"][0] + scaled["population"][0]
    return values, {name: params for name, (_, params) in scaled.items()}


class TableScaler:
    """Column-wise robust scaler fitted once (on training rows) and never refitted."""

    def __init__(self):
        self.params: list[RobustParams] | None = None

    def fit(self, X: np.ndarray) -> "TableScaler":
        if self.params is not None:
            raise EngineError("scaler is already fitted; transform never refits")
        self.params = [robust_scale(X[:, j])[1] for j in range(X.shape[1])]
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.params is None:
            raise EngineError("scaler must be fitted before transform")
        out = np.empty_like(np.asarray(X, dtype=float))
        if out.ndim != 2 or out.shape[1] != len(self.params):
            raise SchemaMismatchError(f"scaler was fitted on {len(self.params)} columns, got shape {out.shape}")
        for j, p in enumerate(self.params):
            out[:, j] = (X[:, j] - p.median) / p.iqr
        return out

    def to_dict(self) -> dict:
        if self.params is None:
            raise EngineError("scaler not fitted")
        cols = [{"median": p.median, "q1": p.q1, "q3": p.q3} for p in self.params]
        return {"kind": "robust", "columns": cols}

    @classmethod
    def from_dict(cls, doc: dict) -> "TableScaler":
        if doc["kind"] != "robust":
            raise EngineError(f"unknown scaler kind {doc['kind']!r}")
        scaler = cls()
        scaler.params = [RobustParams(c["median"], c["q1"], c["q3"]) for c in doc["columns"]]
        if not all(type(v) is float and np.isfinite(v) for p in scaler.params for v in astuple(p)):
            raise EngineError("scaler parameters must be finite floats")
        return scaler


@dataclass(frozen=True)
class DistrictDataset:
    """Values for one predictor across districts, at some cadence.

    values has one row per panel district:
      (d,)            static, broadcast to every week
      (d, T)          weekly
      (d, m*T)        sub-weekly, aggregated per week by agg
    """

    values: np.ndarray
    agg: str = "mean"


@dataclass(frozen=True)
class FeatureTable:
    adm_ids: np.ndarray
    weeks: np.ndarray
    X: np.ndarray  # (n, 12)
    feature_names: tuple[str, ...]
    cases: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, idx) -> "FeatureTable":
        idx = np.asarray(idx)
        return replace(self, adm_ids=self.adm_ids[idx], weeks=self.weeks[idx], X=self.X[idx],
                       cases=self.cases[idx], labels=self.labels[idx])

    def with_X(self, X: np.ndarray) -> "FeatureTable":
        if X.shape != self.X.shape:
            raise SchemaMismatchError("replacement matrix shape differs")
        return replace(self, X=X)


def points_to_district_values(points: PointValueSet, regions: list[AdminRegion]) -> np.ndarray:
    """Mean of points inside each district; empty districts fall back to the
    point nearest the district centroid."""
    if len(points) == 0:
        raise EngineError("point set is empty")
    coords = np.column_stack([points.lons, points.lats])
    out = np.empty(len(regions))
    fallbacks = 0
    for i, region in enumerate(regions):
        inside = geometry.contains_points(region.geometry, coords)
        if np.any(inside):
            out[i] = float(points.values[inside].mean())
        else:
            cx, cy = geometry.centroid(region.geometry)
            d2 = (points.lons - cx) ** 2 + (points.lats - cy) ** 2
            out[i] = float(points.values[int(np.argmin(d2))])
            fallbacks += 1
    if fallbacks:
        warnings.warn(
            f"{fallbacks} districts contain no points; used the nearest point to each centroid",
            EngineWarning,
            stacklevel=2,
        )
    return out


def _to_weekly(name: str, ds: DistrictDataset, panel: SurveillancePanel) -> np.ndarray:
    """Expand or aggregate one dataset to a (districts, weeks) matrix."""
    values = np.asarray(ds.values, dtype=float)
    d, t = len(panel.districts), panel.n_weeks
    if len(values) != d:
        raise EngineError(f"dataset {name!r} has {len(values)} rows, expected {d}")
    if values.ndim == 1:
        weekly = np.repeat(values[:, None], t, axis=1)
    elif values.shape[1] == t:
        weekly = values
    elif values.shape[1] % t == 0:
        m = values.shape[1] // t
        chunks = values.reshape(d, t, m)
        if ds.agg == "mean":
            weekly = chunks.mean(axis=2)
        elif ds.agg == "sum":
            weekly = chunks.sum(axis=2)
        else:
            raise EngineError(f"dataset {name!r}: unknown weekly aggregation {ds.agg!r}")
    else:
        raise EngineError(
            f"dataset {name!r} has {values.shape[1]} columns; expected 1, {t}, or a multiple of {t}"
        )
    if np.any(np.isnan(weekly)):
        bad = int(np.flatnonzero(np.isnan(weekly).any(axis=1))[0])
        raise EngineError(f"dataset {name!r} has no value for adm_id {panel.districts[bad]}")
    return weekly


def assemble_feature_table(panel: SurveillancePanel, datasets: dict[str, DistrictDataset]) -> FeatureTable:
    """Emit one row per (district, week), ordered by adm_id then week.

    datasets must provide every FEATURE_NAMES entry except "week". Static
    datasets broadcast across weeks; finer-than-weekly ones aggregate.
    """
    needed = [n for n in FEATURE_NAMES if n != "week"]
    missing = [n for n in needed if n not in datasets]
    if missing:
        raise EngineError(f"missing dataset(s): {', '.join(missing)}")
    d, t = len(panel.districts), panel.n_weeks
    weekly = {name: _to_weekly(name, datasets[name], panel) for name in needed}

    order = np.argsort(np.asarray(panel.districts), kind="stable")
    counts = panel.counts[order]
    adm_sorted = np.asarray(panel.districts)[order]

    n = d * t
    adm_ids = np.repeat(adm_sorted, t)
    weeks = np.tile(np.arange(1, t + 1), d)
    X = np.empty((n, len(FEATURE_NAMES)))
    X[:, 0] = weeks
    for j, name in enumerate(needed, start=1):
        X[:, j] = weekly[name][order].reshape(n)
    cases = counts.reshape(n)
    labels = (cases >= 1).astype(np.int64)
    return FeatureTable(
        adm_ids=adm_ids,
        weeks=weeks,
        X=X,
        feature_names=FEATURE_NAMES,
        cases=cases,
        labels=labels,
    )


def write_feature_csv(table: FeatureTable, path) -> None:
    ingest.write_table(path, {"id": np.arange(1, len(table) + 1), "adm_id": table.adm_ids,
                              **dict(zip(FEATURE_NAMES, table.X.T)), "cases": table.cases, "label": table.labels})


def read_feature_csv(path) -> FeatureTable:
    rows = ingest.read_table(path, CSV_DTYPE)
    X = np.column_stack([rows[name] for name in FEATURE_NAMES])
    return FeatureTable(
        adm_ids=rows["adm_id"].copy(),  # contiguous copies, not strided views of rows
        weeks=X[:, 0].astype(np.int64),
        X=X,
        feature_names=FEATURE_NAMES,
        cases=rows["cases"].copy(),
        labels=rows["label"].copy(),
    )
