"""Raster-vector aggregation: zonal statistics, tabulate area, water buffers.

A cell belongs to a region iff its center lies inside the region's polygon;
when several regions contain a center (shared borders), the first region in
list order wins and a tie warning is emitted. All operations follow that one
assignment, so they agree exactly with a per-cell brute-force sweep.

The assignment is computed once per grid geometry and region list, as a
ZoneIndex: a stable argsort of the flat owner map plus the offset where each
region's cells start. Every reduction gathers a raster through that order, so
each region's values are one contiguous slice in raster (row-major) order.
Sums are a per-region np.sum over that slice and equal the pairwise sum of
the same values in the per-cell sweep bit for bit; np.add.reduceat or a
weighted bincount would add in another order and drift in the last bits.
class_population alone keeps its weighted bincount (its artifact contract),
which adds each region's cells one by one in raster order, gathered or not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .errors import EngineError, EngineWarning
from .ingest import AdminRegion, RasterGrid

KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQ = 111.320
_MIN_COS_LAT = 0.01


@dataclass(frozen=True)
class ZonalValue:
    adm_id: int
    mean: float | None
    cell_count: int  # cells with data (nodata excluded)
    nodata_count: int


@dataclass(frozen=True)
class AreaTabulation:
    adm_id: int
    counts: dict[int, int]
    fractions: dict[int, float]
    covered: int  # non-nodata cells in the region footprint


def _window(xs: np.ndarray, ys: np.ndarray, box) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every cell whose center may lie in box = (minx, miny,
    maxx, maxy), one cell of margin on each side, flattened in raster order;
    xs and ys are the grid's cell_centers_x() and cell_centers_y()."""
    minx, miny, maxx, maxy = box
    ncols, nrows = len(xs), len(ys)
    c0, c1 = np.searchsorted(xs, [minx, maxx])
    cols = np.arange(max(c0 - 1, 0), min(c1 + 1, ncols))
    r1s, r0s = np.searchsorted(ys[::-1], [miny, maxy])  # ys run north to south
    rows = np.arange(max(nrows - r0s - 1, 0), min(nrows - r1s + 1, nrows))
    rr, cc = np.meshgrid(rows, cols, indexing="ij")
    return rr.ravel(), cc.ravel()


def assign_cells(grid: RasterGrid, regions: list[AdminRegion]) -> np.ndarray:
    """Region index per cell (-1 = unassigned), first-containing wins."""
    xs = grid.cell_centers_x()
    ys = grid.cell_centers_y()
    owner = np.full((grid.nrows, grid.ncols), -1, dtype=np.int64)
    ties = 0
    for ri, region in enumerate(regions):
        rr, cc = _window(xs, ys, geometry.bounds(region.geometry))
        if not len(rr):
            continue
        inside = geometry.contains_points(region.geometry, np.column_stack([xs[cc], ys[rr]]))
        if not np.any(inside):
            continue
        r_in = rr[inside]
        c_in = cc[inside]
        prior = owner[r_in, c_in]
        ties += int(np.count_nonzero(prior >= 0))
        free = prior < 0
        owner[r_in[free], c_in[free]] = ri
    if ties:
        warnings.warn(
            f"{ties} cell centers fall inside more than one region (boundary ties); "
            "the first region in list order keeps them",
            EngineWarning,
            stacklevel=2,
        )
    return owner


@dataclass(frozen=True, eq=False)
class ZoneIndex:
    """The cells of one grid geometry grouped by owning region."""

    regions: tuple[AdminRegion, ...]
    layout: tuple  # RasterGrid.layout the index was built on
    order: np.ndarray  # flat indices of the assigned cells, stably sorted by region
    starts: np.ndarray  # region i owns order[starts[i]:starts[i + 1]]

    @classmethod
    def build(cls, grid: RasterGrid, regions: list[AdminRegion]) -> "ZoneIndex":
        """Assign the grid's cells once; a boundary tie warns here, not per raster."""
        owner = assign_cells(grid, regions).ravel()
        order = np.argsort(owner, kind="stable")
        starts = np.searchsorted(owner[order], np.arange(len(regions) + 1))
        return cls(tuple(regions), grid.layout, order[starts[0]:], starts - starts[0])

    def gather(self, grid: RasterGrid) -> np.ndarray:
        """The assigned cells' values, grouped by region, in raster order within each."""
        if grid.layout != self.layout:
            raise EngineError(
                f"raster grid (ncols, nrows, xll, yll, cellsize) = {grid.layout} "
                f"differs from the zone index grid {self.layout}"
            )
        return grid.values.ravel()[self.order]

    def groups(self, grid: RasterGrid):
        """(region, values) per region; values is a contiguous slice in raster order."""
        return zip(self.regions, np.split(self.gather(grid), self.starts[1:-1]))


def zonal_mean(grid: RasterGrid, index: ZoneIndex) -> list[ZonalValue]:
    """Mean raster value per region, nodata excluded; empty footprint -> None."""
    out = []
    for region, vals in index.groups(grid):
        good = vals[vals != grid.nodata]
        nodata_count = len(vals) - len(good)
        if len(good) == 0:
            if len(vals) == 0:
                warnings.warn(
                    f"region adm_id={region.adm_id} covers no cell centers",
                    EngineWarning,
                    stacklevel=2,
                )
            out.append(ZonalValue(region.adm_id, None, 0, nodata_count))
        else:
            mean = float(np.sum(good)) / len(good)
            out.append(ZonalValue(region.adm_id, mean, len(good), nodata_count))
    return out


def zonal_sum(grid: RasterGrid, index: ZoneIndex) -> list[tuple[int, float]]:
    """Sum of raster values per region, nodata excluded (0 when empty)."""
    return [
        (region.adm_id, float(np.sum(vals[vals != grid.nodata])))
        for region, vals in index.groups(grid)
    ]


def tabulate_area(grid: RasterGrid, index: ZoneIndex, classes: list[int]) -> list[AreaTabulation]:
    """Per-region cell counts and fractions for each requested class code."""
    out = []
    for region, vals in index.groups(grid):
        covered = vals[vals != grid.nodata]
        counts = {c: int(np.count_nonzero(covered == c)) for c in classes}
        denom = len(covered)
        fractions = {c: (counts[c] / denom if denom else 0.0) for c in classes}
        out.append(AreaTabulation(region.adm_id, counts, fractions, denom))
    return out


def class_population(
    class_grid: RasterGrid,
    pop_grid: RasterGrid,
    index: ZoneIndex,
    classes: list[int],
) -> dict[int, list[tuple[int, float]]]:
    """Population sum per region restricted to each land-cover class.

    Both rasters must share one grid; resampling is out of scope here.
    """
    if class_grid.layout != pop_grid.layout:
        raise EngineError("class raster and population raster are on different grids")
    n = len(index.regions)
    zone = np.repeat(np.arange(n), np.diff(index.starts))
    cls = index.gather(class_grid)
    pop = index.gather(pop_grid)
    usable = (cls != class_grid.nodata) & (pop != pop_grid.nodata)
    out: dict[int, list[tuple[int, float]]] = {}
    for c in classes:
        sel = usable & (cls == c)
        sums = np.bincount(zone[sel], weights=pop[sel], minlength=n)
        out[c] = [(r.adm_id, float(sums[i])) for i, r in enumerate(index.regions)]
    return out


def _feature_scale(feature) -> tuple[float, float, float]:
    """Local equirectangular km-per-degree factors at the feature centroid."""
    if isinstance(feature, geometry.MultiPolygon):
        _, lat0 = geometry.centroid(feature)
    else:
        pts = geometry.vertices(feature)
        lat0 = float(pts[:, 1].mean())
    cos_lat = np.cos(np.radians(lat0))
    if cos_lat <= _MIN_COS_LAT:
        raise EngineError(
            f"water feature centroid latitude {lat0:.2f} is polar-degenerate"
        )
    return lat0, KM_PER_DEG_LON_EQ * cos_lat, KM_PER_DEG_LAT


def _scaled(feature, sx: float, sy: float):
    def scale_coords(arr):
        return np.asarray(arr, dtype=float) * (sx, sy)

    if isinstance(feature, geometry.PointSet):
        return geometry.PointSet(scale_coords(feature.coords))
    if isinstance(feature, geometry.LineSet):
        return geometry.LineSet(tuple(scale_coords(p) for p in feature.parts))
    return geometry.MultiPolygon(
        tuple(
            geometry.Polygon(scale_coords(p.shell), tuple(scale_coords(h) for h in p.holes))
            for p in feature.parts
        )
    )


def water_buffer_mask(grid: RasterGrid, water: list, buffer_km: float) -> np.ndarray:
    """Boolean grid: cell center within buffer_km of any water feature.

    Kilometers are converted to degrees per feature at its centroid latitude,
    so the buffer test is a plain distance comparison in a local km frame.
    """
    if buffer_km < 0:
        raise EngineError("buffer_km must be >= 0")
    mask = np.zeros((grid.nrows, grid.ncols), dtype=bool)
    if not water:
        return mask
    xs = grid.cell_centers_x()
    ys = grid.cell_centers_y()
    for feature in water:
        _, sx, sy = _feature_scale(feature)
        minx, miny, maxx, maxy = geometry.bounds(feature)
        pad_x = buffer_km / sx
        pad_y = buffer_km / sy
        rr, cc = _window(xs, ys, (minx - pad_x, miny - pad_y, maxx + pad_x, maxy + pad_y))
        if not len(rr):
            continue
        pts = np.column_stack([xs[cc] * sx, ys[rr] * sy])
        near = geometry.distance_to(_scaled(feature, sx, sy), pts) <= buffer_km
        mask[rr[near], cc[near]] = True
    return mask


def masked_population(grid: RasterGrid, mask: np.ndarray) -> RasterGrid:
    """Population where the mask holds, 0 elsewhere (nodata also becomes 0)."""
    return replace(grid, values=np.where(mask & (grid.values != grid.nodata), grid.values, 0.0))


def population_near_water(
    pop: RasterGrid,
    water: list,
    buffer_km: float,
    index: ZoneIndex,
) -> list[tuple[int, float]]:
    """Per-region population within buffer_km of any inland water feature."""
    if not water:
        warnings.warn("empty water set: population near water is 0 everywhere",
                      EngineWarning, stacklevel=2)
    masked = masked_population(pop, water_buffer_mask(pop, water, buffer_km))
    return [(region.adm_id, float(np.sum(vals))) for region, vals in index.groups(masked)]
