"""Property tests of the spatial-weights edge arrays.

from_adjacency on any pair list, self-pairs and repeats included, agrees with
a dict-of-sets reference, and a weights.csv round trip returns the same arrays
bit for bit.
"""

import numpy as np
import pytest

from epigrid import geo

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
