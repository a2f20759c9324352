import tracemalloc

import numpy as np
import pytest

from epigrid import geometry
from epigrid.errors import GeometryError

import oracles

UNIT = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]


def test_ring_validation():
    with pytest.raises(GeometryError):
        geometry.as_ring([(0, 0), (1, 0), (0, 0)])  # too few vertices
    with pytest.raises(GeometryError):
        geometry.as_ring([(0, 0), (1, 0), (1, 1), (0, 1)])  # open
    with pytest.raises(GeometryError):
        geometry.as_ring([(0, 0), (np.nan, 0), (1, 1), (0, 0)])


def test_area_and_centroid():
    square = geometry.polygon(UNIT)
    assert geometry.area(square) == 1.0
    assert geometry.centroid(square) == (0.5, 0.5)

    hole = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.25, 0.25)]
    with_hole = geometry.polygon(UNIT, holes=[hole])
    assert geometry.area(with_hole) == pytest.approx(1 - 0.25)

    two_parts = geometry.MultiPolygon(
        (
            geometry.Polygon(geometry.as_ring(UNIT)),
            geometry.Polygon(geometry.as_ring([(2, 0), (3, 0), (3, 1), (2, 1), (2, 0)])),
        )
    )
    assert geometry.area(two_parts) == pytest.approx(2.0)
    cx, cy = geometry.centroid(two_parts)
    assert (cx, cy) == pytest.approx((1.5, 0.5))


def test_contains_points_basic():
    square = geometry.polygon(UNIT)
    pts = [(0.5, 0.5), (1.5, 0.5), (-0.1, 0.2)]
    assert geometry.contains_points(square, pts).tolist() == [True, False, False]

    hole = [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (0.25, 0.75), (0.25, 0.25)]
    with_hole = geometry.polygon(UNIT, holes=[hole])
    assert geometry.contains_points(with_hole, [(0.5, 0.5)]).tolist() == [False]
    assert geometry.contains_points(with_hole, [(0.1, 0.1)]).tolist() == [True]


def test_contains_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    angles = np.sort(rng.uniform(0, 2 * np.pi, 9))
    radii = rng.uniform(0.5, 1.5, 9)
    ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    ring = np.vstack([ring, ring[:1]])
    geom = geometry.polygon(ring)
    pts = rng.uniform(-2, 2, size=(500, 2))
    got = geometry.contains_points(geom, pts)
    want = [oracles.point_in_geom(geom, x, y) for x, y in pts]
    assert got.tolist() == want


def test_segments_touch_and_overlap():
    a = geometry.boundary_segments(geometry.polygon(UNIT))
    # shares the full right edge
    b = geometry.boundary_segments(
        geometry.polygon([(1, 0), (2, 0), (2, 1), (1, 1), (1, 0)])
    )
    # touches only at the corner (1, 1)
    c = geometry.boundary_segments(
        geometry.polygon([(1, 1), (2, 1), (2, 2), (1, 2), (1, 1)])
    )
    # disjoint
    d = geometry.boundary_segments(
        geometry.polygon([(5, 5), (6, 5), (6, 6), (5, 6), (5, 5)])
    )
    tol = 1e-9
    assert geometry.segments_touch(a, b, tol)
    assert geometry.segments_touch(a, c, tol)
    assert not geometry.segments_touch(a, d, tol)
    assert geometry.max_collinear_overlap(a, b, tol) == pytest.approx(1.0)
    assert geometry.max_collinear_overlap(a, c, tol) <= tol
    assert geometry.max_collinear_overlap(a, d, tol) == 0.0


def test_distance_to_kinds():
    pts = np.array([(0.0, 0.0), (3.0, 4.0)])
    point_set = geometry.PointSet(np.array([[0.0, 0.0]]))
    assert geometry.distance_to(point_set, pts) == pytest.approx([0.0, 5.0])

    line = geometry.LineSet((np.array([[0.0, 1.0], [2.0, 1.0]]),))
    assert geometry.distance_to(line, np.array([(1.0, 0.0)]))[0] == pytest.approx(1.0)

    square = geometry.polygon(UNIT)
    d = geometry.distance_to(square, np.array([(0.5, 0.5), (2.0, 0.5)]))
    assert d[0] == 0.0
    assert d[1] == pytest.approx(1.0)


def circle(n, cx=0.0, radius=1.0):
    """A closed ring of n vertices around (cx, 0)."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ring = np.column_stack([cx + radius * np.cos(t), radius * np.sin(t)])
    return np.vstack([ring, ring[:1]])


RING = circle(300)
EDGES = geometry.boundary_segments(geometry.polygon(RING))
CELLS = np.random.default_rng(4).uniform(-2.0, 2.0, (2_000, 2))
# each kernel on inputs whose pairs exceed a 4,096-pair cap many times over
BLOCKED_KERNELS = {
    "contains_points": lambda: geometry.contains_points(geometry.polygon(RING), CELLS),
    "segments_touch, apart": lambda: geometry.segments_touch(
        EDGES, geometry.boundary_segments(geometry.polygon(circle(300, cx=3.0))), 1e-9),
    "segments_touch, crossing": lambda: geometry.segments_touch(
        EDGES, geometry.boundary_segments(geometry.polygon(circle(301, cx=1.0))), 1e-9),
    "max_collinear_overlap": lambda: geometry.max_collinear_overlap(EDGES, EDGES[::-1], 1e-9),
    "distance_to points": lambda: geometry.distance_to(geometry.PointSet(RING[:-1]), CELLS),
    "distance_to line": lambda: geometry.distance_to(geometry.LineSet((RING[:200],)), CELLS),
    "distance_to polygon": lambda: geometry.distance_to(geometry.polygon(RING), CELLS),
}


@pytest.mark.parametrize("kernel", list(BLOCKED_KERNELS))
def test_kernels_hold_at_most_block_pairs_at_once(monkeypatch, kernel):
    run = BLOCKED_KERNELS[kernel]
    want = run()
    monkeypatch.setattr(geometry, "_BLOCK", 4_096)
    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert type(got) is type(want) and np.array_equal(got, want)
    assert peak < 2 * 2**20, f"{kernel} peaked at {peak / 2**20:.1f} MB"
