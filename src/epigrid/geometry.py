"""Planar geometry kernel: rings, polygons, containment, distance, contact.

Coordinates are plain (x, y) pairs. Everything here treats the plane as
Euclidean; callers apply any metric scaling (degrees -> km) before asking
distance questions. Containment uses the even-odd rule over all rings, so
holes and multi-part polygons need no special casing.
Every kernel that pairs points or edges with edges (or points with points)
broadcasts over the row blocks of `_blocks`, at most _BLOCK pairs at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError

_BLOCK = 1 << 22  # cap on the pairs (rows x columns) of one broadcast block


def _blocks(n: int, m: int) -> list[slice]:
    """In order, slices of n rows that each pair at most _BLOCK times with m
    columns, or single rows when m alone exceeds _BLOCK."""
    step = max(1, _BLOCK // max(1, m))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def as_ring(coords) -> np.ndarray:
    """Validate and return a closed ring as an (n, 2) float array."""
    ring = np.asarray(coords, dtype=float)
    if ring.ndim != 2 or ring.shape[1] != 2 or ring.shape[0] < 4:
        raise GeometryError("ring must be an (n, 2) array with n >= 4 vertices")
    if not np.all(np.isfinite(ring)):
        raise GeometryError("ring contains non-finite coordinates")
    if ring[0, 0] != ring[-1, 0] or ring[0, 1] != ring[-1, 1]:
        raise GeometryError("ring is not closed (first vertex != last)")
    return ring


@dataclass(frozen=True)
class Polygon:
    shell: np.ndarray
    holes: tuple[np.ndarray, ...] = ()


@dataclass(frozen=True)
class MultiPolygon:
    parts: tuple[Polygon, ...]

    def rings(self):
        for part in self.parts:
            yield part.shell
            yield from part.holes


@dataclass(frozen=True)
class PointSet:
    coords: np.ndarray  # (k, 2)


@dataclass(frozen=True)
class LineSet:
    parts: tuple[np.ndarray, ...]  # each an (k_i, 2) polyline


def polygon(shell, holes=()) -> MultiPolygon:
    return MultiPolygon((Polygon(as_ring(shell), tuple(as_ring(h) for h in holes)),))


def _ring_signed_area(ring: np.ndarray) -> float:
    x, y = ring[:-1, 0], ring[:-1, 1]
    x2, y2 = ring[1:, 0], ring[1:, 1]
    return float(np.sum(x * y2 - x2 * y)) / 2.0


def area(geom: MultiPolygon) -> float:
    """Unsigned area: shells count positive, holes subtract."""
    total = 0.0
    for part in geom.parts:
        total += abs(_ring_signed_area(part.shell))
        for hole in part.holes:
            total -= abs(_ring_signed_area(hole))
    return total


def centroid(geom: MultiPolygon) -> tuple[float, float]:
    """Area-weighted centroid; falls back to the vertex mean for zero area."""
    a_total = 0.0
    mx = 0.0
    my = 0.0
    for part in geom.parts:
        for ring, sign in [(part.shell, 1.0)] + [(h, -1.0) for h in part.holes]:
            a = _ring_signed_area(ring)
            if a == 0.0:
                continue
            x, y = ring[:-1, 0], ring[:-1, 1]
            x2, y2 = ring[1:, 0], ring[1:, 1]
            cross = x * y2 - x2 * y
            # normalize ring orientation so shells add and holes subtract
            flip = sign * (1.0 if a > 0 else -1.0)
            a_total += flip * a
            mx += flip * float(np.sum((x + x2) * cross)) / 6.0
            my += flip * float(np.sum((y + y2) * cross)) / 6.0
    if a_total == 0.0:
        pts = np.vstack([part.shell[:-1] for part in geom.parts])
        return float(pts[:, 0].mean()), float(pts[:, 1].mean())
    return mx / a_total, my / a_total


def bounds(geom) -> tuple[float, float, float, float]:
    pts = vertices(geom)
    return (
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].max()),
    )


def vertices(geom) -> np.ndarray:
    """All vertices of any geometry kind, stacked as (n, 2)."""
    if isinstance(geom, MultiPolygon):
        return np.vstack([ring[:-1] for ring in geom.rings()])
    if isinstance(geom, LineSet):
        return np.vstack(geom.parts)
    if isinstance(geom, PointSet):
        return geom.coords
    raise GeometryError(f"unsupported geometry type {type(geom).__name__}")


def _ring_edges(ring: np.ndarray) -> np.ndarray:
    seg = np.hstack([ring[:-1], ring[1:]])
    keep = (seg[:, 0] != seg[:, 2]) | (seg[:, 1] != seg[:, 3])
    return seg[keep]


def boundary_segments(geom) -> np.ndarray:
    """Edges of every ring (or polyline) as an (m, 4) array of x1,y1,x2,y2."""
    if isinstance(geom, MultiPolygon):
        parts = [_ring_edges(r) for r in geom.rings()]
    elif isinstance(geom, LineSet):
        parts = [_ring_edges(np.asarray(p, dtype=float)) for p in geom.parts]
    else:
        raise GeometryError(f"geometry type {type(geom).__name__} has no boundary")
    parts = [p for p in parts if len(p)]
    if not parts:
        return np.empty((0, 4))
    return np.vstack(parts)


def contains_points(geom: MultiPolygon, pts) -> np.ndarray:
    """Even-odd containment test for each point against all rings."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    segs = boundary_segments(geom)
    out = np.zeros(len(pts), dtype=bool)
    if not len(segs):
        return out
    x1, y1, x2, y2 = segs[:, 0], segs[:, 1], segs[:, 2], segs[:, 3]
    for rows in _blocks(len(pts), len(segs)):
        px = pts[rows, 0][:, None]
        py = pts[rows, 1][:, None]
        straddles = (y1 > py) != (y2 > py)
        # x_at is read only where the edge straddles py; elsewhere it may overflow or divide by 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_at = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        crossings = (straddles & (px < x_at)).sum(axis=1)
        out[rows] = crossings % 2 == 1
    return out


def point_segment_distance(pts: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Pairwise distances, shape (len(pts), len(segs))."""
    p = np.asarray(pts, dtype=float)[:, None, :]
    a = segs[None, :, 0:2]
    d = segs[None, :, 2:4] - a
    len2 = (d * d).sum(-1)
    t = ((p - a) * d).sum(-1) / np.where(len2 > 0.0, len2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    diff = p - (a + t[..., None] * d)
    return np.sqrt((diff * diff).sum(-1))


def _any_proper_crossing(segs_a: np.ndarray, segs_b: np.ndarray) -> bool:
    bx1, by1, bx2, by2 = segs_b.T[:, None, :]  # each (1, m)
    for rows in _blocks(len(segs_a), len(segs_b)):
        ax1, ay1, ax2, ay2 = segs_a[rows].T[:, :, None]  # each (rows, 1)
        # orientation of each endpoint of one segment relative to the other
        d1 = (bx2 - bx1) * (ay1 - by1) - (by2 - by1) * (ax1 - bx1)
        d2 = (bx2 - bx1) * (ay2 - by1) - (by2 - by1) * (ax2 - bx1)
        d3 = (ax2 - ax1) * (by1 - ay1) - (ay2 - ay1) * (bx1 - ax1)
        d4 = (ax2 - ax1) * (by2 - ay1) - (ay2 - ay1) * (bx2 - ax1)
        if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
            return True
    return False


def segments_touch(segs_a: np.ndarray, segs_b: np.ndarray, tol: float) -> bool:
    """True when the two edge sets come within tol of each other."""
    if not len(segs_a) or not len(segs_b):
        return False
    for segs, others in ((segs_a, segs_b), (segs_b, segs_a)):
        ends = np.vstack([segs[:, 0:2], segs[:, 2:4]])
        for rows in _blocks(len(ends), len(others)):
            if point_segment_distance(ends[rows], others).min() <= tol:
                return True
    return _any_proper_crossing(segs_a, segs_b)


def max_collinear_overlap(segs_a: np.ndarray, segs_b: np.ndarray, tol: float) -> float:
    """Longest shared collinear stretch between the two edge sets.

    An edge of B counts against an edge of A when both of its endpoints lie
    within tol of A's supporting line; the overlap is measured along A.
    """
    best = 0.0
    if not len(segs_a) or not len(segs_b):
        return best
    dx, dy = segs_a[:, 2] - segs_a[:, 0], segs_a[:, 3] - segs_a[:, 1]
    length = np.sqrt(dx * dx + dy * dy)
    keep = length != 0.0  # a zero-length edge of A has no supporting line
    segs_a, dx, dy, length = segs_a[keep], dx[keep], dy[keep], length[keep]
    b1x, b1y, b2x, b2y = segs_b.T
    for rows in _blocks(len(segs_a), len(segs_b)):
        ax, ay = segs_a[rows, :2].T[:, :, None]
        span = length[rows][:, None]
        ux, uy = dx[rows][:, None] / span, dy[rows][:, None] / span
        perp1 = (b1x - ax) * (-uy) + (b1y - ay) * ux
        perp2 = (b2x - ax) * (-uy) + (b2y - ay) * ux
        on_line = (np.abs(perp1) <= tol) & (np.abs(perp2) <= tol)
        t1 = (b1x - ax) * ux + (b1y - ay) * uy
        t2 = (b2x - ax) * ux + (b2y - ay) * uy
        lo = np.maximum(np.minimum(t1, t2), 0.0)
        hi = np.minimum(np.maximum(t1, t2), span)
        best = max(best, float(np.where(on_line, hi - lo, 0.0).max()))
    return best


def distance_to(geom, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to the geometry (0 inside polygons)."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if isinstance(geom, PointSet):
        others = geom.coords
    else:
        others = boundary_segments(geom)
        if not len(others):
            return np.full(len(pts), np.inf)
    d = np.empty(len(pts))
    for rows in _blocks(len(pts), len(others)):
        if isinstance(geom, PointSet):
            diff = pts[rows, None, :] - others[None, :, :]
            d[rows] = np.sqrt((diff * diff).sum(-1)).min(axis=1)
        else:
            d[rows] = point_segment_distance(pts[rows], others).min(axis=1)
    if isinstance(geom, MultiPolygon):
        d[contains_points(geom, pts)] = 0.0
    return d
