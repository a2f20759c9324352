"""Property test of the latitude-banded point means against the all-points
loop of oracles.py: equal bits and the same fallback warnings.

Districts are random polygons with holes, lattice squares with a square hole,
two-square multipart districts and, some of the time, a district far from
every point. Points come half from the coarse lattice, where they fall on
edges, vertices and the holes, and include points exactly on each district's
miny and maxy.
"""

import warnings

import numpy as np
import pytest

from epigrid import features, geometry, ingest
from epigrid.ingest import AdminRegion

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from test_geometry_properties import coord, polygons_with_holes  # noqa: E402


def square(x, y, side):
    return [(x, y), (x + side, y), (x + side, y + side), (x, y + side), (x, y)]


@st.composite
def lattice_district(draw):
    """A 2x2 square with a 1x1 hole, or two unit squares as one district."""
    x, y = draw(st.integers(-4, 2)) / 2, draw(st.integers(-4, 2)) / 2
    if draw(st.booleans()):
        return geometry.polygon(square(x, y, 2.0), [square(x + 0.5, y + 0.5, 1.0)])
    parts = geometry.polygon(square(x, y, 1.0)).parts + geometry.polygon(square(x + 1.5, y + 0.5, 1.0)).parts
    return geometry.MultiPolygon(parts)


@st.composite
def districts_and_points(draw):
    geoms = draw(st.lists(st.one_of(polygons_with_holes(), lattice_district()), min_size=1, max_size=6))
    if draw(st.booleans()):
        geoms.append(geometry.polygon(square(100.0, 100.0, 1.0)))  # holds no point
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    for geom in geoms:
        _, miny, _, maxy = geometry.bounds(geom)
        pts += [(draw(coord), miny), (draw(coord), maxy)]
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=len(pts), max_size=len(pts)))
    lons, lats = np.array(pts).T
    regions = [AdminRegion(i, f"d{i}", "P", "C", geom) for i, geom in enumerate(geoms)]
    return ingest.PointValueSet(lons.copy(), lats.copy(), np.array(values)), regions


def with_warnings(func, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = func(*args)
    return out.tobytes(), [(w.category, str(w.message)) for w in caught]


@given(districts_and_points())
def test_banded_point_means_match_all_points_loop(case):
    points, regions = case
    got = with_warnings(features.points_to_district_values, points, regions)
    assert got == with_warnings(oracles.points_to_district_values_allpoints, points, regions)
