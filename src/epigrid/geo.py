"""Contiguity-based spatial weights over district polygons, and spatial lags.

Queen contiguity joins regions whose boundaries share at least one point
(within a snapping tolerance); rook requires a shared boundary stretch of
positive length. A sweep over the bounding boxes in min-x order proposes
the pairs whose boxes lie within the tolerance of each other, and adjacency
must agree exactly with an all-pairs test (the test oracle), so both use the
same geometric predicates.

Weights are always row-standardized: each of region i's k neighbors weighs
1/k, so every non-island row sums to 1 and an island's row is empty. They
are stored as an edge list of three parallel arrays, rows (non-decreasing),
cols and weights, so that one bincount over the edges gives the spatial lag
of any vector; `edge_lag` is that kernel, for this module and for esda.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry, ingest
from .errors import EngineError, EngineWarning, ParseError
from .ingest import AdminRegion


@dataclass(frozen=True, eq=False)
class SpatialWeights:
    """Edge e joins region rows[e] to region cols[e] with weight weights[e]."""

    n: int
    rows: np.ndarray  # int64, non-decreasing: a region's edges are contiguous
    cols: np.ndarray  # int64
    weights: np.ndarray  # 1/k for each of a row's k edges

    @property
    def degrees(self) -> np.ndarray:
        """The number of edges of each region."""
        return np.bincount(self.rows, minlength=self.n)

    @property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each region's neighbors in edge order; an island's is empty."""
        cuts = np.searchsorted(self.rows, np.arange(1, self.n))
        return tuple(tuple(part.tolist()) for part in np.split(self.cols, cuts))

    @property
    def islands(self) -> tuple[int, ...]:
        """The regions without an edge, ascending."""
        return tuple(np.flatnonzero(self.degrees == 0).tolist())


def from_adjacency(n: int, pairs) -> SpatialWeights:
    """Row-standardized weights from index pairs in 0..n-1, in either direction;
    self-pairs and repeats are dropped."""
    pairs = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    # both directions, sorted by row and then column, each edge once
    edges = np.unique(np.concatenate([pairs, pairs[:, ::-1]]), axis=0)
    rows, cols = edges.T.copy()  # contiguous
    return SpatialWeights(n, rows, cols, 1.0 / np.bincount(rows, minlength=n)[rows])


def _candidate_pairs(bboxes: np.ndarray, tolerance: float):
    """Each pair (i, j), i < j, of boxes within tolerance of each other in x and y.
    In min-x order a box meets the later boxes that start by its max x + tolerance."""
    order = np.argsort(bboxes[:, 0], kind="stable")
    box = bboxes[order]
    stops = np.searchsorted(box[:, 0], box[:, 2] + tolerance, side="right")
    for a, stop in enumerate(stops.tolist()):
        later = box[a + 1 : stop]
        near = ~((box[a, 1] > later[:, 3] + tolerance) | (later[:, 1] > box[a, 3] + tolerance))
        i = int(order[a])
        for j in order[a + 1 : stop][near].tolist():
            yield (i, j) if i < j else (j, i)


def build_contiguity_weights(
    regions: list[AdminRegion],
    kind: str = "queen",
    tolerance: float = 1e-9,
) -> SpatialWeights:
    """Row-standardized queen or rook contiguity weights.

    Only the pairs whose bounding boxes lie within tolerance of each other are
    tested.
    """
    if not regions:
        raise EngineError("no regions")
    if kind not in ("queen", "rook"):
        raise EngineError(f"unknown contiguity kind {kind!r}")
    n = len(regions)
    segs = [geometry.boundary_segments(r.geometry) for r in regions]
    bboxes = np.array([geometry.bounds(r.geometry) for r in regions])
    pairs = []
    for i, j in _candidate_pairs(bboxes, tolerance):
        if kind == "queen":
            hit = geometry.segments_touch(segs[i], segs[j], tolerance)
        else:
            hit = geometry.max_collinear_overlap(segs[i], segs[j], tolerance) > tolerance
        if hit:
            pairs.append((i, j))
    w = from_adjacency(n, pairs)
    if not w.rows.size:
        warnings.warn("all regions are pairwise disjoint: every region is an island",
                      EngineWarning, stacklevel=2)
    return w


def edge_lag(w: SpatialWeights, edge_values: np.ndarray) -> np.ndarray:
    """Per region, the weighted sum of one value per edge (in edge order): the
    spatial lag for x[w.cols], a permutation draw's lag for permuted values.
    A region without an edge gets 0."""
    return np.bincount(w.rows, weights=w.weights * edge_values, minlength=w.n)


def write_weights_csv(w: SpatialWeights, edges_path, islands_path) -> None:
    """Audit export: an (i, j, weight) edge list plus an island index list."""
    ingest.write_table(edges_path, {"i": w.rows, "j": w.cols, "weight": w.weights})
    ingest.write_table(islands_path, {"island": w.islands})


def read_weights_csv(edges_path, islands_path, n: int) -> SpatialWeights:
    """The weights write_weights_csv wrote for n regions. Each edge it writes
    joins two distinct regions in 0..n-1 once, has a mirror edge and weighs
    1/k of its row's k edges, and the islands are the regions without an edge;
    files that break this were cut short or edited and raise a ParseError."""
    table = ingest.read_table(edges_path, [("i", np.int64), ("j", np.int64), ("weight", float)])
    # stable: each row keeps its edges in file order, so every sum adds in that order
    table = table[np.argsort(table["i"], kind="stable")]
    w = SpatialWeights(n, table["i"].copy(), table["j"].copy(), table["weight"].copy())
    rows, cols = w.rows, w.cols

    def check(bad: np.ndarray, what: str) -> None:
        if bad.any():
            e = int(np.argmax(bad))
            raise ParseError(f"{edges_path}: edge ({rows[e]}, {cols[e]}) {what}")

    check((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n), f"leaves the regions 0..{n - 1}")
    check(rows == cols, "joins a region to itself")
    key = rows * n + cols
    ordered = np.sort(key)
    check(np.isin(key, ordered[1:][ordered[1:] == ordered[:-1]]), "appears twice")
    check(~np.isin(cols * n + rows, key), "has no mirror edge")
    islands = set(ingest.read_table(islands_path, [("island", np.int64)])["island"].tolist())
    if islands != set(w.islands):
        raise ParseError(f"{islands_path}: the islands are not the regions without an edge in {edges_path}")
    check(w.weights != 1.0 / w.degrees[rows], "does not weigh 1/k of its row's k edges")
    return w
