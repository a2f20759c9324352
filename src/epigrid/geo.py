"""Contiguity-based spatial weights over district polygons, and spatial lags.

Queen contiguity joins regions whose boundaries share at least one point
(within a snapping tolerance); rook requires a shared boundary stretch of
positive length. Adjacency is found through a regular-grid index over
bounding boxes and must agree exactly with an all-pairs sweep (the test
oracle), so both use the same geometric predicates.

Weights are always row-standardized: each of region i's k neighbors weighs
1/k, so every non-island row sums to 1 and an island's row is empty.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, ingest
from .errors import EngineError, EngineWarning, ParseError
from .ingest import AdminRegion


@dataclass(frozen=True)
class SpatialWeights:
    n: int
    neighbors: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]  # 1/k for each of a row's k neighbors
    islands: tuple[int, ...]


def flatten(w: SpatialWeights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-list view: parallel (row, col, weight) arrays in row order."""
    rows = np.fromiter(
        (i for i, nbrs in enumerate(w.neighbors) for _ in nbrs), dtype=np.int64
    )
    cols = np.fromiter(itertools.chain.from_iterable(w.neighbors), dtype=np.int64)
    vals = np.fromiter(itertools.chain.from_iterable(w.weights), dtype=float)
    return rows, cols, vals


def from_adjacency(n: int, pairs) -> SpatialWeights:
    """Row-standardized weights from symmetric index pairs."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if i == j:
            continue
        nbrs[i].add(j)
        nbrs[j].add(i)
    neighbors = tuple(tuple(sorted(s)) for s in nbrs)
    return SpatialWeights(
        n=n,
        neighbors=neighbors,
        weights=tuple(tuple(1.0 / len(s) for _ in s) for s in neighbors),
        islands=tuple(i for i, s in enumerate(neighbors) if not s),
    )


def _grid_candidate_pairs(bboxes: np.ndarray, tolerance: float) -> set[tuple[int, int]]:
    """Pairs whose tolerance-expanded bounding boxes share a grid bin."""
    n = len(bboxes)
    spans = np.maximum(bboxes[:, 2] - bboxes[:, 0], bboxes[:, 3] - bboxes[:, 1])
    cell = max(float(np.median(spans)), tolerance, 1e-12)
    bins: dict[tuple[int, int], list[int]] = {}
    for i, (minx, miny, maxx, maxy) in enumerate(bboxes):
        x0 = int(np.floor((minx - tolerance) / cell))
        x1 = int(np.floor((maxx + tolerance) / cell))
        y0 = int(np.floor((miny - tolerance) / cell))
        y1 = int(np.floor((maxy + tolerance) / cell))
        for bx in range(x0, x1 + 1):
            for by in range(y0, y1 + 1):
                bins.setdefault((bx, by), []).append(i)
    pairs: set[tuple[int, int]] = set()
    for members in bins.values():
        pairs.update(itertools.combinations(members, 2))
    return pairs


def _bbox_gap_exceeds(a, b, tolerance: float) -> bool:
    return (
        a[0] > b[2] + tolerance
        or b[0] > a[2] + tolerance
        or a[1] > b[3] + tolerance
        or b[1] > a[3] + tolerance
    )


def build_contiguity_weights(
    regions: list[AdminRegion],
    kind: str = "queen",
    tolerance: float = 1e-9,
) -> SpatialWeights:
    """Row-standardized queen or rook contiguity weights.

    A regular-grid index over bounding boxes prunes the candidate pairs.
    """
    if not regions:
        raise EngineError("no regions")
    if kind not in ("queen", "rook"):
        raise EngineError(f"unknown contiguity kind {kind!r}")
    n = len(regions)
    segs = [geometry.boundary_segments(r.geometry) for r in regions]
    bboxes = np.array([geometry.bounds(r.geometry) for r in regions])
    pairs = []
    for i, j in _grid_candidate_pairs(bboxes, tolerance):
        if _bbox_gap_exceeds(bboxes[i], bboxes[j], tolerance):
            continue
        if kind == "queen":
            hit = geometry.segments_touch(segs[i], segs[j], tolerance)
        else:
            hit = geometry.max_collinear_overlap(segs[i], segs[j], tolerance) > tolerance
        if hit:
            pairs.append((i, j))
    w = from_adjacency(n, pairs)
    if len(w.islands) == n:
        warnings.warn("all regions are pairwise disjoint: every region is an island",
                      EngineWarning, stacklevel=2)
    return w


def spatial_lag(w: SpatialWeights, x) -> np.ndarray:
    """lag_i = sum_j w_ij x_j; islands get 0 (they are listed in w.islands)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (w.n,):
        raise EngineError(f"vector has length {x.shape}, weights expect {w.n}")
    rows, cols, vals = flatten(w)
    return np.bincount(rows, weights=vals * x[cols], minlength=w.n)


def write_weights_csv(w: SpatialWeights, edges_path, islands_path) -> None:
    """Audit export: an (i, j, weight) edge list plus an island index list."""
    rows = enumerate(zip(w.neighbors, w.weights))
    edges = ([i, j, repr(wij)] for i, (nbrs, wts) in rows for j, wij in zip(nbrs, wts))
    ingest.write_csv(edges_path, ("i", "j", "weight"), edges)
    ingest.write_csv(islands_path, ("island",), ([i] for i in w.islands))


def read_weights_csv(edges_path, islands_path, n: int) -> SpatialWeights:
    """The weights write_weights_csv wrote for n regions. Each edge it writes
    lies in 0..n-1 and has a mirror edge, and the islands are the regions
    without an edge; files that break this were cut short or edited and raise
    a ParseError."""
    neighbors: list[list[int]] = [[] for _ in range(n)]
    weights: list[list[float]] = [[] for _ in range(n)]
    for i, j, wij in ingest.read_csv(edges_path, ("i", "j", "weight"), (int, int, float)):
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{edges_path}: edge ({i}, {j}) leaves the regions 0..{n - 1}")
        neighbors[i].append(j)
        weights[i].append(wij)
    islands = tuple(i for (i,) in ingest.read_csv(islands_path, ("island",), (int,)))
    if any(i not in neighbors[j] for i, nbrs in enumerate(neighbors) for j in nbrs):
        raise ParseError(f"{edges_path}: an edge has no mirror edge")
    if set(islands) != {i for i, nbrs in enumerate(neighbors) if not nbrs}:
        raise ParseError(f"{islands_path}: the islands are not the regions without an edge in {edges_path}")
    return SpatialWeights(
        n=n,
        neighbors=tuple(tuple(r) for r in neighbors),
        weights=tuple(tuple(r) for r in weights),
        islands=islands,
    )
