"""Raster-vector aggregation: zonal statistics, tabulate area, water buffers.

A cell belongs to a region iff its center lies inside the region's polygon;
when several regions contain a center (shared borders), the first region in
list order wins. All operations follow that one assignment, so they agree
exactly with a per-cell brute-force sweep.

The assignment is computed once per grid geometry and region list, as a
ZoneIndex: a stable argsort of the flat owner map plus the offset where each
region's cells start. Building it is where the assignment's warnings happen,
once per grid geometry: a boundary tie, and a region that covers no cell
center. Every reduction gathers a raster through that order, so each
region's values are one contiguous slice in raster (row-major) order, and
returns arrays aligned with ZoneIndex.regions.

Per-region sums and counts go through one kernel, ZoneIndex.totals: the
np.sum of each region's kept values, taken over a contiguous slice, plus
how many there are. That sum equals the pairwise sum of the same values in
the per-cell sweep bit for bit; np.add.reduceat or a weighted bincount would
add in another order and drift in the last bits. class_population alone
keeps its weighted bincount (its artifact contract), which adds each
region's cells one by one in raster order, gathered or not.
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
        """Assign the grid's cells once; ties and empty footprints warn here, not per raster."""
        owner = assign_cells(grid, regions).ravel()
        order = np.argsort(owner, kind="stable")
        starts = np.searchsorted(owner[order], np.arange(len(regions) + 1))
        for i in np.flatnonzero(np.diff(starts) == 0):
            warnings.warn(f"region adm_id={regions[i].adm_id} covers no cell centers",
                          EngineWarning, stacklevel=2)
        return cls(tuple(regions), grid.layout, order[starts[0]:], starts - starts[0])

    def gather(self, grid: RasterGrid) -> np.ndarray:
        """The assigned cells' values, grouped by region, in raster order within each."""
        if grid.layout != self.layout:
            raise EngineError(
                f"raster grid (ncols, nrows, xll, yll, cellsize) = {grid.layout} "
                f"differs from the zone index grid {self.layout}"
            )
        return grid.values.ravel()[self.order]

    def totals(self, values: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(sums, counts) per region of gathered `values` where `keep` holds: the
        np.sum of the region's kept values in raster order, and how many."""
        s = self.starts.tolist()
        parts = [values[a:b][keep[a:b]] for a, b in zip(s, s[1:])]
        # np.add.reduce is np.sum without its Python wrapper: one pairwise sum per part
        sums = np.fromiter(map(np.add.reduce, parts), float, len(parts))
        return sums, np.fromiter(map(len, parts), int, len(parts))


def zonal_mean(grid: RasterGrid, index: ZoneIndex) -> np.ndarray:
    """Mean raster value per region, nodata excluded; nan where no cell has data."""
    vals = index.gather(grid)
    sums, counts = index.totals(vals, vals != grid.nodata)
    return np.divide(sums, counts, out=np.full(len(sums), np.nan), where=counts > 0)


def zonal_sum(grid: RasterGrid, index: ZoneIndex) -> np.ndarray:
    """Sum of raster values per region, nodata excluded (0 when empty)."""
    vals = index.gather(grid)
    return index.totals(vals, vals != grid.nodata)[0]


def tabulate_area(
    grid: RasterGrid, index: ZoneIndex, classes: list[int]
) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Per class code, each region's cell count and its fraction of the
    region's non-nodata cells (0 where there are none)."""
    vals = index.gather(grid)
    good = vals != grid.nodata
    covered = index.totals(vals, good)[1]
    counts = {c: index.totals(vals, good & (vals == c))[1] for c in classes}
    fractions = {
        c: np.divide(n, covered, out=np.zeros(len(n)), where=covered > 0) for c, n in counts.items()
    }
    return counts, fractions


def class_population(
    class_grid: RasterGrid,
    pop_grid: RasterGrid,
    index: ZoneIndex,
    classes: list[int],
) -> dict[int, np.ndarray]:
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
    out: dict[int, np.ndarray] = {}
    for c in classes:
        sel = usable & (cls == c)
        out[c] = np.bincount(zone[sel], weights=pop[sel], minlength=n)
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
) -> np.ndarray:
    """Per-region population within buffer_km of any inland water feature."""
    return near_water_totals(masked_population(pop, water_buffer_mask(pop, water, buffer_km)), water, index)


def near_water_totals(masked: RasterGrid, water: list, index: ZoneIndex) -> np.ndarray:
    """Per-region total of `masked`, a masked_population raster built from `water`."""
    if not water:
        warnings.warn("empty water set: population near water is 0 everywhere",
                      EngineWarning, stacklevel=2)
    vals = index.gather(masked)
    return index.totals(vals, np.ones(len(vals), dtype=bool))[0]
