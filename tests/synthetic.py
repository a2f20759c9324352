"""Synthetic fixtures: a separable imbalanced classification table and a
small self-contained input bundle (districts, surveillance, rasters, water,
wealth points, config) for end-to-end tests.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from epigrid import ingest
from epigrid.features import FeatureTable
from epigrid.ingest import RasterGrid


def box_table(
    n_rows: int,
    positive_rate: float = 0.03,
    n_features: int = 12,
    margin: float = 0.02,
    seed: int = 0,
) -> FeatureTable:
    """Separable imbalanced data: the positive class is a corner box.

    Each feature is drawn away from a per-feature threshold by at least
    `margin`; a row is positive iff every feature sits above its threshold,
    so positives occur at `positive_rate` in expectation and the two classes
    are separated by a 2*margin corridor on every axis.
    """
    if not (0.0 < positive_rate < 1.0):
        raise ValueError("positive_rate must be in (0, 1)")
    rng = np.random.default_rng(seed)
    q = positive_rate ** (1.0 / n_features)
    tau = 1.0 - q
    high = rng.random((n_rows, n_features)) < q
    low_vals = rng.random((n_rows, n_features)) * (tau - margin)
    high_vals = tau + margin + rng.random((n_rows, n_features)) * (1.0 - tau - margin)
    X = np.where(high, high_vals, low_vals)
    labels = high.all(axis=1).astype(np.int64)
    names = tuple(f"x{i}" for i in range(n_features))
    return FeatureTable(
        adm_ids=np.arange(n_rows, dtype=np.int64),
        weeks=np.ones(n_rows, dtype=np.int64),
        X=X,
        feature_names=names,
        cases=labels.copy(),
        labels=labels,
    )


def inject_columns(
    table: FeatureTable, seed: int = 0, label_copy: bool = True, noise: bool = True
) -> FeatureTable:
    """Append a label_copy column (exactly the label) and/or an independent
    noise column; used to sanity-check permutation importance rankings."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x1D)))
    cols = [table.X]
    names = list(table.feature_names)
    if label_copy:
        cols.append(table.labels.astype(float)[:, None])
        names.append("label_copy")
    if noise:
        cols.append(rng.random(len(table))[:, None])
        names.append("noise")
    return FeatureTable(
        adm_ids=table.adm_ids,
        weeks=table.weeks,
        X=np.hstack(cols),
        feature_names=tuple(names),
        cases=table.cases,
        labels=table.labels,
    )


# ---------------------------------------------------------------------------
# mini world: 4x4 districts over [30, 34] x [-2, 2] degrees

_MINI_N = 4
_MINI_LON0, _MINI_LAT0 = 30.0, -2.0
_MINI_SIZE = 1.0


def _district_ring(r: int, c: int) -> list[list[float]]:
    x0 = _MINI_LON0 + c * _MINI_SIZE
    y0 = _MINI_LAT0 + r * _MINI_SIZE
    x1, y1 = x0 + _MINI_SIZE, y0 + _MINI_SIZE
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def _mini_districts() -> dict:
    feats = []
    for r in range(_MINI_N):
        for c in range(_MINI_N):
            idx = r * _MINI_N + c
            feats.append(
                {
                    "type": "Feature",
                    "properties": {
                        "adm_id": 101 + idx,
                        "name": f"D{idx + 1:02d}",
                        "province": "North" if r >= 2 else "South",
                        "country": "Atlantis",
                    },
                    "geometry": {"type": "Polygon", "coordinates": [_district_ring(r, c)]},
                }
            )
    return {"type": "FeatureCollection", "features": feats}


def _mini_surveillance(rng: np.random.Generator, n_weeks: int) -> list[list]:
    rows = []
    for r in range(_MINI_N):
        for c in range(_MINI_N):
            idx = r * _MINI_N + c
            name = f"D{idx + 1:02d}"
            province = "North" if r >= 2 else "South"
            hot = r >= 2 and c >= 2  # cholera cluster in the NE corner
            for w in range(1, n_weeks + 1):
                cholera = int(rng.integers(20, 60)) if hot else int(rng.random() < 0.15)
                malaria = int(rng.integers(0, 8))
                rows.append([2019, w, "Atlantis", province, name, "Cholera", cholera, 0])
                rows.append([2019, w, "Atlantis", province, name, "Malaria", malaria, 0])
    return rows


def _mini_grid(values: np.ndarray) -> RasterGrid:
    nrows, ncols = values.shape
    return RasterGrid(
        ncols=ncols,
        nrows=nrows,
        xll=_MINI_LON0,
        yll=_MINI_LAT0,
        cellsize=_MINI_N * _MINI_SIZE / ncols,
        nodata=-9999.0,
        values=values,
    )


def make_mini_world(outdir, seed: int = 7, n_weeks: int = 8) -> Path:
    """Write the bundle and return the path of its ready-to-run config."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    with open(out / "districts.geojson", "w", encoding="utf-8") as fh:
        json.dump(_mini_districts(), fh)

    with open(out / "surveillance.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["Year", "Week", "Country", "Province", "District", "Disease",
             "Number of cases", "Number of deaths"]
        )
        writer.writerows(_mini_surveillance(rng, n_weeks))

    n = 40  # 40x40 cells, 0.1 degree
    yy, xx = np.mgrid[0:n, 0:n]
    elevation = 200.0 + 15.0 * xx + 8.0 * (n - yy) + rng.normal(0, 5, (n, n)).round(2)
    ingest.write_ascii_grid(_mini_grid(elevation), out / "elevation.asc")
    population = np.round(50.0 + 400.0 * rng.random((n, n)), 2)
    ingest.write_ascii_grid(_mini_grid(population), out / "population.asc")
    landcover = (1 + ((xx // 5) + (yy // 5)) % 5).astype(float)
    ingest.write_ascii_grid(_mini_grid(landcover), out / "landcover.asc")

    (out / "precipitation").mkdir(exist_ok=True)
    (out / "temperature").mkdir(exist_ok=True)
    for w in range(1, n_weeks + 1):
        precip = np.round(5.0 + 3.0 * np.sin(w / 2.0) + rng.random((n, n)) * 2.0, 3)
        ingest.write_ascii_grid(_mini_grid(precip), out / "precipitation" / f"week_{w:03d}.asc")
        temp = np.round(26.0 + 2.0 * np.cos(w / 3.0) + (yy - n / 2) * 0.05, 3)
        ingest.write_ascii_grid(_mini_grid(temp), out / "temperature" / f"week_{w:03d}.asc")

    water = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"name": "river"},
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[31.05, -2.0], [31.15, 0.0], [31.05, 2.0]],
                },
            },
            {
                "type": "Feature",
                "properties": {"name": "lake"},
                "geometry": {"type": "Point", "coordinates": [33.5, 1.5]},
            },
        ],
    }
    with open(out / "water.geojson", "w", encoding="utf-8") as fh:
        json.dump(water, fh)

    with open(out / "wealth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "value"])
        for _ in range(40):
            lon = _MINI_LON0 + 4.0 * rng.random()
            lat = _MINI_LAT0 + 4.0 * rng.random()
            writer.writerow([round(lon, 4), round(lat, 4), round(float(rng.random() * 3), 3)])

    config = {
        "disease": "Cholera",
        "paths": {
            "surveillance_csv": "surveillance.csv",
            "districts_geojson": "districts.geojson",
            "rasters": {
                "elevation": "elevation.asc",
                "population": "population.asc",
                "landcover": "landcover.asc",
                "precipitation": "precipitation",
                "temperature": "temperature",
            },
            "water_geojson": "water.geojson",
            "wealth_points_csv": "wealth.csv",
        },
        "panel": {"start": "2019-01-01", "n_weeks": n_weeks},
        "buffers_km": [3.0],
        "weights": {"kind": "queen", "tolerance": 1e-9},
        "esda": {"n_perm": 999, "alpha": 0.05, "seed": 42},
        "learn": {
            "test_fraction": 0.2,
            "seed": 7,
            "resample": "none",
            "criterion": "gini",
            "n_trees": 50,
            "max_depth": None,
            "min_leaf": 1,
            "importance_repeats": 5,
        },
        "output_dir": "out",
    }
    config_path = out / "config.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    return config_path

