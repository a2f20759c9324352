import numpy as np
import pytest

from epigrid import geo
from epigrid.errors import EngineError, EngineWarning, ParseError

import oracles
from conftest import grid_regions, grid_truth_pairs, jittered_grid_regions, square_region


def neighbor_sets(w):
    return [set(nbrs) for nbrs in w.neighbors]


def assert_same_weights(a, b):
    """Equal region count and bit-identical edge arrays of the same dtypes."""
    assert a.n == b.n
    for name in ("rows", "cols", "weights"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), name


def test_2x2_queen_every_cell_has_three_neighbors():
    w = geo.build_contiguity_weights(grid_regions(2, 2), kind="queen")
    assert [len(n) for n in w.neighbors] == [3, 3, 3, 3]
    assert w.islands == ()


def test_2x2_rook_every_cell_has_two_neighbors():
    w = geo.build_contiguity_weights(grid_regions(2, 2), kind="rook")
    assert [len(n) for n in w.neighbors] == [2, 2, 2, 2]


@pytest.mark.parametrize("kind", ["queen", "rook"])
def test_jittered_grid_matches_truth_and_oracle(kind):
    rng = np.random.default_rng(21)
    regions = jittered_grid_regions(10, 10, rng)
    w = geo.build_contiguity_weights(regions, kind=kind)
    got = {(i, j) for i, nbrs in enumerate(w.neighbors) for j in nbrs if i < j}
    assert got == grid_truth_pairs(10, 10, kind)
    assert got == oracles.contiguity_pairs(regions, kind, 1e-9)


@pytest.mark.parametrize("kind", ["queen", "rook"])
def test_sweep_equals_bruteforce_method(kind):
    # the oracle tests every pair; from_adjacency builds the weights from its pairs
    for trial in range(3):
        regions = jittered_grid_regions(5, 4, np.random.default_rng(100 + trial), jitter=0.3)
        fast = geo.build_contiguity_weights(regions, kind=kind)
        slow = geo.from_adjacency(len(regions), oracles.contiguity_pairs(regions, kind, 1e-9))
        assert_same_weights(fast, slow)


def test_adjacency_symmetric_and_rows_standardized():
    regions = jittered_grid_regions(6, 6, np.random.default_rng(2))
    w = geo.build_contiguity_weights(regions)
    sets = neighbor_sets(w)
    for i, nbrs in enumerate(sets):
        assert i not in nbrs
        for j in nbrs:
            assert i in sets[j]
    row_sums = np.bincount(w.rows, weights=w.weights, minlength=w.n)
    for i, total in enumerate(row_sums):
        if i not in w.islands:
            assert abs(total - 1.0) <= 1e-12


def test_all_disjoint_regions_are_islands():
    regions = [square_region(i, 3.0 * i, 0.0) for i in range(4)]
    with pytest.warns(EngineWarning, match="island"):
        w = geo.build_contiguity_weights(regions)
    assert w.islands == (0, 1, 2, 3)


def test_island_recorded_alongside_connected_component():
    regions = grid_regions(2, 2) + [square_region(900, 50.0, 50.0)]
    w = geo.build_contiguity_weights(regions)
    assert w.islands == (4,)
    assert len(w.neighbors[4]) == 0


def test_edge_lag_constant_field():
    w = geo.build_contiguity_weights(grid_regions(3, 3))
    x = np.full(9, 4.25)
    assert geo.edge_lag(w, x[w.cols]) == pytest.approx(np.full(9, 4.25))


def test_edge_lag_2x2_queen_example():
    w = geo.build_contiguity_weights(grid_regions(2, 2), kind="queen")
    x = np.array([1.0, 0.0, 0.0, 1.0])
    assert geo.edge_lag(w, x[w.cols]) == pytest.approx([1 / 3, 2 / 3, 2 / 3, 1 / 3], abs=1e-15)


def test_edge_lag_island_gets_zero():
    regions = grid_regions(2, 2) + [square_region(900, 50.0, 50.0)]
    w = geo.build_contiguity_weights(regions)
    x = np.array([1.0, 2.0, 3.0, 4.0, 99.0])
    assert geo.edge_lag(w, x[w.cols])[4] == 0.0
    assert 4 in w.islands


def test_weights_csv_roundtrip(tmp_path):
    regions = grid_regions(3, 2) + [square_region(900, 50.0, 50.0)]
    w = geo.build_contiguity_weights(regions)
    edges, islands = tmp_path / "w.csv", tmp_path / "i.csv"
    geo.write_weights_csv(w, edges, islands)
    back = geo.read_weights_csv(edges, islands, w.n)
    assert_same_weights(back, w)
    assert back.islands == w.islands
    rows = [back.weights[back.rows == i].tolist() for i in range(back.n)]
    assert all(sum(row) == 1.0 for i, row in enumerate(rows) if i not in back.islands)


def test_weights_csv_rows_in_any_order(tmp_path):
    # a triangle listed out of row order; each row keeps its edges in file order
    edges = "i,j,weight\r\n1,0,0.5\r\n0,2,0.5\r\n2,0,0.5\r\n0,1,0.5\r\n2,1,0.5\r\n1,2,0.5\r\n"
    (tmp_path / "w.csv").write_text(edges)
    (tmp_path / "i.csv").write_text("island\r\n")
    w = geo.read_weights_csv(tmp_path / "w.csv", tmp_path / "i.csv", 3)
    assert w.rows.tolist() == [0, 0, 1, 1, 2, 2]
    assert w.neighbors == ((2, 1), (0, 2), (0, 1))


EDGES, ISLANDS = "i,j,weight\r\n0,1,1.0\r\n1,0,1.0\r\n", "island\r\n2\r\n"  # 3 regions, 2 an island


@pytest.mark.parametrize(
    "edges, islands, match",
    [
        (EDGES + "2,3,1.0\r\n", ISLANDS, "leaves the regions"),
        (EDGES + "0,99999999999999999999,1.0\r\n", ISLANDS, "line 4: 99999999999999999999 is outside the int64"),
        ("i,j,weight\r\n0,1,1.0\r\n", ISLANDS, "no mirror edge"),
        (EDGES, "island\r\n", "islands are not"),
        (EDGES + "0,1,1.0\r\n", ISLANDS, r"edge \(0, 1\) appears twice"),
        ("i,j,weight\r\n0,1,0.5\r\n1,0,1.0\r\n", ISLANDS, r"edge \(0, 1\) does not weigh 1/k"),
        (EDGES + "2,2,1.0\r\n", "island\r\n", "joins a region to itself"),
    ],
    ids=["out_of_range", "past_int64", "no_mirror", "island_missing", "duplicate", "not_1_over_k",
         "self_loop"],
)
def test_inconsistent_weights_csv_fatal(tmp_path, edges, islands, match):
    (tmp_path / "w.csv").write_text(edges)
    (tmp_path / "i.csv").write_text(islands)
    with pytest.raises(ParseError, match=match):
        geo.read_weights_csv(tmp_path / "w.csv", tmp_path / "i.csv", 3)


def test_unknown_kind_and_empty_regions():
    with pytest.raises(EngineError):
        geo.build_contiguity_weights(grid_regions(2, 2), kind="bishop")
    with pytest.raises(EngineError):
        geo.build_contiguity_weights([])
