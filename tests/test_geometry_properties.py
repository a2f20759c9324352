"""Property tests of the vectorized geometry predicates against the scalar
references in oracles.py.

Both sides evaluate the same IEEE expressions, so they must agree exactly,
not within a tolerance. Coordinates are drawn half from a coarse lattice,
where vertices coincide and edges touch or run collinear, and half from a
bounded float range.
"""

import numpy as np
import pytest

from epigrid import geometry

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

coord = st.one_of(
    st.integers(-4, 4).map(lambda k: k / 2),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
point = st.tuples(coord, coord)
segment = st.tuples(coord, coord, coord, coord)
segments = st.lists(segment, min_size=1, max_size=6).map(lambda s: np.array(s, dtype=float))
tolerance = st.sampled_from([0.0, 1e-9, 0.1, 0.5])
along = st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
ring = st.lists(point, min_size=3, max_size=6).map(lambda v: geometry.as_ring(v + v[:1]))


@st.composite
def polygons_with_holes(draw):
    """One or two parts, each any closed shell (self-crossing too) with up to
    two holes anywhere, inside the shell or not."""
    parts = draw(st.lists(st.tuples(ring, st.lists(ring, max_size=2)), min_size=1, max_size=2))
    return geometry.MultiPolygon(tuple(geometry.Polygon(shell, tuple(holes)) for shell, holes in parts))


@st.composite
def segment_pairs(draw):
    """Two edge sets; half the time B's edges lie along A's supporting lines,
    reaching before, into and past A's edges, so they overlap or touch."""
    segs_a = draw(segments)
    if draw(st.booleans()):
        return segs_a, draw(segments)
    picks = draw(st.lists(st.tuples(st.integers(0, len(segs_a) - 1), along, along), min_size=1, max_size=6))
    segs_b = []
    for k, t, u in picks:
        ax, ay, ax2, ay2 = segs_a[k].tolist()
        dx, dy = ax2 - ax, ay2 - ay
        segs_b.append((ax + t * dx, ay + t * dy, ax + u * dx, ay + u * dy))
    return segs_a, np.array(segs_b)


@given(st.lists(point, min_size=3, max_size=8), st.lists(point, min_size=1, max_size=20))
def test_contains_points_matches_point_in_geom(vertices, pts):
    geom = geometry.polygon(vertices + vertices[:1])  # any closed ring, self-crossing too
    got = geometry.contains_points(geom, pts).tolist()
    assert got == [oracles.point_in_geom(geom, x, y) for x, y in pts]


@given(polygons_with_holes(), st.lists(point, min_size=1, max_size=8))
def test_contains_points_is_false_outside_the_latitude_band(geom, pts):
    """No point below miny or at or above maxy of the bounds is inside: no
    edge straddles its y. features.points_to_district_values rests on this."""
    _, miny, _, maxy = geometry.bounds(geom)
    xs = [x for x, _ in pts] + geometry.vertices(geom)[:, 0].tolist()
    ys = [y for _, y in pts] + [miny, maxy, np.nextafter(miny, -np.inf), np.nextafter(maxy, np.inf)]
    probe = np.array([(x, y) for x in xs for y in ys])
    outside = (probe[:, 1] < miny) | (probe[:, 1] >= maxy)
    assert outside.any()
    assert not geometry.contains_points(geom, probe)[outside].any()


@given(st.lists(point, min_size=1, max_size=8), segments)
def test_point_segment_distance_matches_point_segment_dist(pts, segs):
    got = geometry.point_segment_distance(np.array(pts, dtype=float), segs)
    want = [[oracles.point_segment_dist(px, py, *seg) for seg in segs.tolist()] for px, py in pts]
    assert got.tolist() == want


@given(segment_pairs(), tolerance)
def test_segments_touch_matches_oracle(pair, tol):
    segs_a, segs_b = pair
    assert geometry.segments_touch(segs_a, segs_b, tol) == oracles.segments_touch(
        segs_a.tolist(), segs_b.tolist(), tol
    )


@given(segment_pairs(), tolerance)
def test_max_collinear_overlap_matches_collinear_overlap(pair, tol):
    segs_a, segs_b = pair
    got = geometry.max_collinear_overlap(segs_a, segs_b, tol)
    assert got == oracles.collinear_overlap(segs_a.tolist(), segs_b.tolist(), tol)
