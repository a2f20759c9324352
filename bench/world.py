"""Deterministic synthetic worlds for the epigrid benchmark.

A world is a D x D lattice of districts over a raster grid in which every
district owns a c x c block of cells, plus district-week surveillance counts,
wealth points, water features and a ready-to-run pipeline config.  All files
are written here with stdlib and numpy code only, never through epigrid's own
writers, so a change to the program cannot change the inputs it is measured
on.

The generator keeps the ground truth the checker needs: region order, the
exact case counts, each district's elevation block mean and the queen
adjacency of the lattice (Chebyshev distance 1 between lattice positions).
Lattice jitter below half a cell keeps every cell center inside its own
district, so the block means hold on jittered worlds too.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

LON0, LAT0 = 30.0, -2.0
CELLSIZE = 1.0 / 64.0
NODATA = -9999
START = "2019-01-01"
YEAR = 2019
SHARPNESS, OFFSET = 3.0, 1.4  # outbreak odds: ~21% positive rows on long-panel, mostly learnable
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


@dataclass(frozen=True)
class WorldSpec:
    districts_per_side: int
    cells_per_side: int  # cells along one district side; a district owns cells_per_side**2
    weeks: int
    weekly_rasters: bool  # one precipitation/temperature grid per week, else one static grid each
    jitter: float  # lattice jitter as a fraction of a district side, below half a cell
    trees: int
    permutations: int
    importance_repeats: int


WORKLOADS = {
    # 12 x 12 districts of 30 x 30 cells, 52 weeks of rasters: 107 grids parsed
    "weekly-rasters": WorldSpec(12, 30, 52, True, 0.0, 15, 999, 5),
    # 20 x 20 districts of 4 x 4 cells, 104 weeks, static rasters: 41,600 rows
    "long-panel": WorldSpec(20, 4, 104, False, 0.0, 15, 999, 5),
    # 50 x 50 jittered districts of 2 x 2 cells, 4 weeks: 2,500 regions
    "many-regions": WorldSpec(50, 2, 4, False, 0.2, 5, 9999, 2),
}


@dataclass(frozen=True)
class World:
    """Paths of one generated world plus the ground truth the checker uses."""

    spec: WorldSpec
    root: Path
    config: Path
    adm_ids: np.ndarray  # region order of districts.geojson
    cases: np.ndarray  # (districts, weeks) int64, region order
    elevation_mean: np.ndarray  # per district, mean of its parsed cell values

    @property
    def n_districts(self) -> int:
        return len(self.adm_ids)

    def save(self) -> None:
        """Write the ground truth next to the inputs, as truth.json."""
        doc = {
            "spec": asdict(self.spec),
            "adm_ids": self.adm_ids.tolist(),
            "cases": self.cases.tolist(),
            "elevation_mean": self.elevation_mean.tolist(),
        }
        (self.root / "truth.json").write_text(json.dumps(doc))


def load(root) -> World:
    """The world a previous make_world wrote under root."""
    root = Path(root)
    doc = json.loads((root / "truth.json").read_text())
    return World(
        WorldSpec(**doc["spec"]),
        root,
        root / "config.json",
        np.asarray(doc["adm_ids"], dtype=np.int64),
        np.asarray(doc["cases"], dtype=np.int64),
        np.asarray(doc["elevation_mean"], dtype=float),
    )


def queen_edge_count(d: int) -> int:
    """Directed queen edges of a d x d lattice: rook pairs plus diagonal pairs, both ways."""
    return 2 * (2 * d * (d - 1) + 2 * (d - 1) ** 2)


def queen_pairs(d: int) -> set[tuple[int, int]]:
    """Directed (i, j) pairs at Chebyshev distance 1, indices in row-major region order."""
    pairs = set()
    for r in range(d):
        for c in range(d):
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if (dr or dc) and 0 <= rr < d and 0 <= cc < d:
                        pairs.add((r * d + c, rr * d + cc))
    return pairs


def fixed_width_tokens(k: np.ndarray, int_digits: int, decimals: int) -> bytes:
    """ASCII-grid body for values k / 10**decimals, one fixed-width token per cell.

    k is a non-negative integer array (rows, cols); each token is zero-padded
    to int_digits before the point, so the bytes are built with array ops.
    """
    k = np.asarray(k, dtype=np.int64)
    digits = int_digits + decimals
    if k.min() < 0 or k.max() >= 10**digits:
        raise ValueError(f"values do not fit {int_digits}.{decimals} fixed-width tokens")
    width = digits + (1 if decimals else 0)
    out = np.empty(k.shape + (width + 1,), dtype=np.uint8)
    positions = list(range(int_digits)) + list(range(int_digits + 1, width))
    rem = k.copy()
    for pos in reversed(positions):
        out[..., pos] = 48 + rem % 10
        rem //= 10
    if decimals:
        out[..., int_digits] = ord(".")
    out[..., width] = ord(" ")
    out[:, -1, width] = ord("\n")
    return out.tobytes()


def write_grid(path: Path, k: np.ndarray, int_digits: int, decimals: int) -> np.ndarray:
    """Write an ESRI ASCII grid and return the float values a parser must read back."""
    nrows, ncols = k.shape
    header = (
        f"ncols {ncols}\nnrows {nrows}\nxllcorner {LON0!r}\nyllcorner {LAT0!r}\n"
        f"cellsize {CELLSIZE!r}\nNODATA_value {NODATA}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(fixed_width_tokens(k, int_digits, decimals))
    # k / 10**d is correctly rounded, so it equals float() of the written token
    return k / 10**decimals


def _cells(district_field: np.ndarray, c: int) -> np.ndarray:
    """Broadcast a (D, D) south-to-north field to a (D*c, D*c) north-to-south grid."""
    return np.kron(district_field[::-1], np.ones((c, c)))


def _block_means(values: np.ndarray, d: int, c: int) -> np.ndarray:
    """Mean of each district's c x c block of a north-to-south grid, in region order."""
    return values[::-1].reshape(d, c, d, c).mean(axis=(1, 3)).reshape(d * d)


def _write_districts(path: Path, rng, spec: WorldSpec) -> list[dict]:
    """One polygon per lattice cell, corners shared with its neighbours; returns properties."""
    d = spec.districts_per_side
    side = spec.cells_per_side * CELLSIZE
    px = LON0 + (np.arange(d + 1)[None, :] + rng.uniform(-spec.jitter, spec.jitter, (d + 1, d + 1))) * side
    py = LAT0 + (np.arange(d + 1)[:, None] + rng.uniform(-spec.jitter, spec.jitter, (d + 1, d + 1))) * side
    features = []
    for r in range(d):  # south first, so region index = r * d + q
        for q in range(d):
            corners = [(r, q), (r, q + 1), (r + 1, q + 1), (r + 1, q), (r, q)]
            features.append(
                {
                    "type": "Feature",
                    "properties": {
                        "adm_id": 1000 + r * d + q,
                        "name": f"D{r:02d}_{q:02d}",
                        "province": f"P{r * 4 // d}",
                        "country": "Synthland",
                    },
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[float(px[a, b]), float(py[a, b])] for a, b in corners]],
                    },
                }
            )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"type": "FeatureCollection", "features": features}, fh)
    return [f["properties"] for f in features]


def _write_rasters(root: Path, rng, spec: WorldSpec, relief, wet, density, season):
    """Static and weekly grids; returns the elevation and precipitation block means."""
    d, c = spec.districts_per_side, spec.cells_per_side
    g = d * c
    elev_k = np.round((900 + 400 * _cells(relief, c) + rng.normal(0, 30, (g, g))) * 10)
    elevation = write_grid(root / "elevation.asc", np.clip(elev_k, 0, 99999).astype(np.int64), 4, 1)
    pop_k = np.round(_cells(40 * density, c) * 100 + rng.uniform(0, 2000, (g, g)))
    write_grid(root / "population.asc", np.clip(pop_k, 0, 99999).astype(np.int64), 3, 2)
    mix = rng.dirichlet(np.ones(5), size=d * d)  # land-cover class mix per district
    landcover = np.empty((g, g), dtype=np.int64)
    for i in range(d * d):
        r, q = divmod(i, d)
        landcover[g - (r + 1) * c : g - r * c, q * c : (q + 1) * c] = 1 + rng.choice(5, size=(c, c), p=mix[i])
    write_grid(root / "landcover.asc", landcover, 1, 0)

    if spec.weekly_rasters:
        (root / "precipitation").mkdir(exist_ok=True)
        (root / "temperature").mkdir(exist_ok=True)
        grids = [(f"precipitation/week_{w:03d}.asc", f"temperature/week_{w:03d}.asc", season[w - 1])
                 for w in range(1, spec.weeks + 1)]
    else:
        grids = [("precipitation.asc", "temperature.asc", 0.0)]
    precip = np.empty((d * d, len(grids)))
    for j, (p_name, t_name, s) in enumerate(grids):
        p_field = 30 + 15 * wet + 10 * s + rng.normal(0, 3, (d, d))
        p_k = np.round((_cells(p_field, c) + rng.normal(0, 2, (g, g))) * 100)
        p_vals = write_grid(root / p_name, np.clip(p_k, 0, 9999).astype(np.int64), 2, 2)
        precip[:, j] = _block_means(p_vals, d, c)
        t_k = np.round(_cells(25 - 4 * relief + 3 * s, c) * 100 + rng.integers(-50, 51, (g, g)))
        write_grid(root / t_name, np.clip(t_k, 0, 9999).astype(np.int64), 2, 2)
    return _block_means(elevation, d, c), precip


def _write_config(path: Path, spec: WorldSpec, seed: int) -> None:
    weekly = spec.weekly_rasters
    stage_seed = seed % (2**31)
    config = {
        "disease": "Cholera",
        "paths": {
            "surveillance_csv": "surveillance.csv",
            "districts_geojson": "districts.geojson",
            "rasters": {
                "elevation": "elevation.asc",
                "population": "population.asc",
                "landcover": "landcover.asc",
                "precipitation": "precipitation" if weekly else "precipitation.asc",
                "temperature": "temperature" if weekly else "temperature.asc",
            },
            "water_geojson": "water.geojson",
            "wealth_points_csv": "wealth.csv",
        },
        "panel": {"start": START, "n_weeks": spec.weeks},
        "buffers_km": [3.0],
        "weights": {"kind": "queen", "tolerance": 1e-9},
        "esda": {"n_perm": spec.permutations, "alpha": 0.05, "seed": stage_seed},
        "learn": {
            "test_fraction": 0.2,
            "seed": stage_seed,
            "resample": "none",
            "criterion": "gini",
            "n_trees": spec.trees,
            "max_depth": None,
            "min_leaf": 1,
            "importance_repeats": spec.importance_repeats,
        },
        "threads": 1,
        "output_dir": "out",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)


def make_world(spec: WorldSpec, root, seed: int) -> World:
    """Write one world under root and return its paths and ground truth."""
    if not 0 <= spec.jitter < 0.5 / spec.cells_per_side:
        raise ValueError("jitter must stay below half a cell so each cell keeps its district")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE91)))
    d, t = spec.districts_per_side, spec.weeks
    n = d * d
    props = _write_districts(root / "districts.geojson", rng, spec)

    # smooth district-level fields, (d, d) with row 0 in the south; the phases
    # are fixed so that every seed's world is about equally learnable
    u = (np.arange(d) + 0.5) / d
    relief = np.sin(2 * math.pi * u[:, None] + 0.3) + np.cos(3 * math.pi * u[None, :] + 1.9)
    wet = np.cos(2 * math.pi * u[None, :] + 4.1) * np.sin(math.pi * u[:, None] + 5.2)
    density = rng.gamma(2.0, 1.0, (d, d))
    season = np.sin(2 * math.pi * np.arange(1, t + 1) / 52.0)
    elevation_mean, precip = _write_rasters(root, rng, spec, relief, wet, density, season)

    # outbreaks: wet, low, dense districts in the rainy season
    def z(v):
        return (v - v.mean()) / (v.std() + 1e-12)

    risk = (
        1.2 * z(np.broadcast_to(precip, (n, t)))
        - 0.8 * z(elevation_mean)[:, None]
        + 0.5 * z(density.reshape(n))[:, None]
        + 1.0 * season[None, :]
    )
    outbreak = rng.random((n, t)) < 1.0 / (1.0 + np.exp(-SHARPNESS * (risk - OFFSET)))
    cases = np.where(outbreak, 1 + rng.poisson(4.0, (n, t)), 0).astype(np.int64)
    with open(root / "surveillance.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["Year", "Week", "Country", "Province", "District", "Disease",
             "Number of cases", "Number of deaths"]
        )
        for i, p in enumerate(props):
            for w in range(t):
                k = int(cases[i, w])
                writer.writerow([YEAR, w + 1, p["country"], p["province"], p["name"], "Cholera", k, k // 5])

    # one wealth point near the middle of each district, inside it at any allowed jitter
    side = spec.cells_per_side * CELLSIZE
    wealth = np.round(rng.uniform(0.0, 3.0, n), 3)
    offset = rng.uniform(0.4, 0.6, (n, 2))
    with open(root / "wealth.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lon", "lat", "value"])
        for i in range(n):
            r, q = divmod(i, d)
            lon = LON0 + (q + offset[i, 0]) * side
            lat = LAT0 + (r + offset[i, 1]) * side
            writer.writerow([repr(float(lon)), repr(float(lat)), repr(float(wealth[i]))])

    extent = d * side
    y = rng.uniform(0.3, 0.7) * extent
    river = [[LON0, LAT0 + y], [LON0 + extent / 2, LAT0 + extent / 2], [LON0 + extent, LAT0 + extent - y]]
    water = {
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "properties": {"name": "river"},
             "geometry": {"type": "LineString", "coordinates": river}},
            {"type": "Feature", "properties": {"name": "lake"},
             "geometry": {"type": "Point", "coordinates": [LON0 + 0.8 * extent, LAT0 + 0.2 * extent]}},
        ],
    }
    with open(root / "water.geojson", "w", encoding="utf-8") as fh:
        json.dump(water, fh)

    _write_config(root / "config.json", spec, seed)
    world = World(spec, root, root / "config.json", 1000 + np.arange(n), cases, elevation_mean)
    world.save()
    return world


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write one benchmark world and its truth.json")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the world into")
    args = parser.parse_args(argv)
    make_world(WORKLOADS[args.workload], args.out, args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
