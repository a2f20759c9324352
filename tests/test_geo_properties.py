"""Property tests of the spatial-weights edge arrays and their candidate pairs.

from_adjacency on any pair list, self-pairs and repeats included, agrees with
a dict-of-sets reference, and a weights.csv round trip returns the same arrays
bit for bit. The bounding-box sweep proposes exactly the pairs that the scalar
gap predicate of oracles.py keeps.
"""

import numpy as np
import pytest

from epigrid import geo

import oracles

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@st.composite
def adjacency(draw):
    n = draw(st.integers(1, 12))
    index = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(index, index), max_size=40))


def reference_neighbors(n, pairs) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for i, j in pairs:
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    return nbrs


@given(adjacency())
def test_from_adjacency_matches_dict_of_sets(case):
    n, pairs = case
    nbrs = reference_neighbors(n, pairs)
    w = geo.from_adjacency(n, pairs)
    assert w.n == n
    assert w.rows.dtype == np.int64 and w.cols.dtype == np.int64
    assert w.rows.tolist() == [i for i, s in enumerate(nbrs) for _ in s]
    assert w.neighbors == tuple(tuple(sorted(s)) for s in nbrs)
    assert w.weights.tolist() == [1.0 / len(s) for s in nbrs for _ in s]
    assert w.islands == tuple(i for i, s in enumerate(nbrs) if not s)


@given(adjacency())
def test_weights_csv_roundtrip_returns_equal_arrays(tmp_path_factory, case):
    n, pairs = case
    w = geo.from_adjacency(n, pairs)
    edges, islands = tmp_path_factory.getbasetemp() / "w.csv", tmp_path_factory.getbasetemp() / "i.csv"
    geo.write_weights_csv(w, edges, islands)
    back = geo.read_weights_csv(edges, islands, n)
    assert back.n == n
    for name in ("rows", "cols", "weights"):
        x, y = getattr(back, name), getattr(w, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name


@st.composite
def boxes_and_tolerance(draw):
    """Boxes with coordinates half from a coarse lattice, where min x values
    repeat and edges lie exactly tolerance apart, and half from floats."""
    tolerance = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    coord = st.one_of(
        st.tuples(st.integers(-3, 3), st.booleans()).map(lambda c: c[0] / 2 + tolerance if c[1] else c[0] / 2),
        st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
    )
    boxes = []
    for _ in range(draw(st.integers(1, 24))):
        (x0, x1), (y0, y1) = sorted(draw(st.tuples(coord, coord))), sorted(draw(st.tuples(coord, coord)))
        boxes.append((x0, y0, x1, y1))
    return np.array(boxes), tolerance


@given(boxes_and_tolerance())
def test_sweep_yields_the_pairs_the_gap_predicate_keeps(case):
    boxes, tolerance = case
    got = list(geo._candidate_pairs(boxes, tolerance))
    want = [
        (i, j)
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
        if not oracles.bbox_gap_exceeds(boxes[i].tolist(), boxes[j].tolist(), tolerance)
    ]
    assert sorted(got) == want  # each pair once, as (i, j) with i < j
