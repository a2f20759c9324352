import numpy as np
import pytest

from epigrid import geometry
from epigrid.ingest import AdminRegion, RasterGrid

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # deterministic and bounded: the same examples on every run, no example
    # database written to disk, no per-example deadline on a loaded machine
    settings.register_profile(
        "epigrid", deadline=None, derandomize=True, database=None, max_examples=60
    )
    settings.load_profile("epigrid")


def square_region(adm_id, x0, y0, size=1.0, name=None, province="P", country="C"):
    ring = [
        (x0, y0),
        (x0 + size, y0),
        (x0 + size, y0 + size),
        (x0, y0 + size),
        (x0, y0),
    ]
    return AdminRegion(
        adm_id=adm_id,
        name=name or f"R{adm_id}",
        province=province,
        country=country,
        geometry=geometry.polygon(ring),
    )


def grid_regions(nx, ny, size=1.0):
    """nx*ny unit squares, row-major from the south-west corner."""
    return [
        square_region(100 + r * nx + c, c * size, r * size, size)
        for r in range(ny)
        for c in range(nx)
    ]


def jittered_grid_regions(nx, ny, rng, jitter=0.2):
    """Grid cells built on one jittered lattice, so borders stay shared.

    Ground truth: queen adjacency is Chebyshev distance 1 between cells,
    rook adjacency is Manhattan distance 1.
    """
    px = np.arange(nx + 1)[None, :] + rng.uniform(-jitter, jitter, (ny + 1, nx + 1))
    py = np.arange(ny + 1)[:, None] + rng.uniform(-jitter, jitter, (ny + 1, nx + 1))
    regions = []
    for r in range(ny):
        for c in range(nx):
            ring = [
                (px[r, c], py[r, c]),
                (px[r, c + 1], py[r, c + 1]),
                (px[r + 1, c + 1], py[r + 1, c + 1]),
                (px[r + 1, c], py[r + 1, c]),
                (px[r, c], py[r, c]),
            ]
            regions.append(
                AdminRegion(
                    adm_id=200 + r * nx + c,
                    name=f"J{r}_{c}",
                    province="P",
                    country="C",
                    geometry=geometry.polygon(ring),
                )
            )
    return regions


def grid_truth_pairs(nx, ny, kind):
    pairs = set()
    for r in range(ny):
        for c in range(nx):
            i = r * nx + c
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    if kind == "rook" and abs(dr) + abs(dc) != 1:
                        continue
                    r2, c2 = r + dr, c + dc
                    if 0 <= r2 < ny and 0 <= c2 < nx:
                        j = r2 * nx + c2
                        pairs.add((min(i, j), max(i, j)))
    return pairs


def make_grid(values, xll=0.0, yll=0.0, cellsize=1.0, nodata=-9999.0):
    values = np.asarray(values, dtype=float)
    return RasterGrid(
        ncols=values.shape[1],
        nrows=values.shape[0],
        xll=xll,
        yll=yll,
        cellsize=cellsize,
        nodata=nodata,
        values=values,
    )


@pytest.fixture(scope="session")
def mini_world(tmp_path_factory):
    from synthetic import make_mini_world

    outdir = tmp_path_factory.mktemp("mini_world")
    config_path = make_mini_world(outdir, seed=7)
    return config_path
