import numpy as np
import pytest

from epigrid import esda, geo
from epigrid.errors import ConstantFieldError, EngineError, InsufficientRegionsError

import oracles
from conftest import grid_regions, jittered_grid_regions, square_region


def two_region_weights():
    return geo.build_contiguity_weights(grid_regions(2, 1), kind="rook")


def test_two_regions_distinct_values_give_minus_one_exactly():
    w = two_region_weights()
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.integers(-1000, 1000, size=2)
        if a == b:
            b += 1
        r = esda.morans_i([float(a), float(b)], w, n_perm=9, seed=1)
        assert r.I == -1.0  # integer-valued fields keep the algebra exact
        assert r.expected_I == -1.0
        assert oracles.moran_double_sum([float(a), float(b)], w) == -1.0
    for _ in range(20):
        a, b = rng.normal(size=2)
        r = esda.morans_i([a, b], w, n_perm=9, seed=1)
        assert r.I == pytest.approx(-1.0, abs=1e-12)


def test_2x2_queen_diagonal_is_minus_one_third():
    w = geo.build_contiguity_weights(grid_regions(2, 2), kind="queen")
    x = [1.0, 0.0, 0.0, 1.0]
    r = esda.morans_i(x, w, n_perm=9, seed=1)
    assert r.I == pytest.approx(-1 / 3, abs=1e-12)
    assert r.I == pytest.approx(oracles.moran_double_sum(x, w), abs=1e-12)


def test_matches_double_sum_oracle_on_random_grids():
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        kind = "queen" if trial % 2 == 0 else "rook"
        regions = jittered_grid_regions(6, 6, rng)
        w = geo.build_contiguity_weights(regions, kind=kind)
        x = rng.normal(size=36)
        r = esda.morans_i(x, w, n_perm=9, seed=trial)
        assert r.I == pytest.approx(oracles.moran_double_sum(x, w), abs=1e-10)


def test_constant_field_raises():
    w = geo.build_contiguity_weights(grid_regions(3, 3))
    with pytest.raises(ConstantFieldError):
        esda.morans_i(np.full(9, 3.3), w, n_perm=9, seed=0)
    with pytest.raises(ConstantFieldError):
        esda.lisa(np.full(9, 3.3), w, n_perm=9, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("test", [esda.morans_i, esda.lisa])
def test_non_finite_value_raises(test, bad):
    w = geo.build_contiguity_weights(grid_regions(4, 1), kind="rook")
    with pytest.raises(EngineError, match="NaN or infinite"):
        test([1.0, 2.0, bad, 4.0], w, n_perm=99, seed=0)


def test_insufficient_regions_raises():
    regions = [square_region(1, 0, 0), square_region(2, 5, 0), square_region(3, 10, 0)]
    w = geo.build_contiguity_weights(grid_regions(2, 2) + regions[:1])
    # one usable pair is fine; all-island weights are not
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        all_islands = geo.build_contiguity_weights(regions)
    with pytest.raises(InsufficientRegionsError):
        esda.morans_i([1.0, 2.0, 3.0], all_islands, n_perm=9, seed=0)


def test_mean_local_equals_global_row_standardized():
    for trial in range(50):
        rng = np.random.default_rng(900 + trial)
        nx, ny = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        regions = jittered_grid_regions(nx, ny, rng)
        kind = "queen" if trial % 2 == 0 else "rook"
        w = geo.build_contiguity_weights(regions, kind=kind)
        x = rng.normal(size=nx * ny)
        g = esda.morans_i(x, w, n_perm=1, seed=trial)
        loc = esda.lisa(x, w, n_perm=1, seed=trial)
        assert np.nanmean(loc.local_i) == pytest.approx(g.I, abs=1e-10)


def planted_block_field(n=20, block=3, value=100.0):
    x = np.zeros(n * n)
    cells = []
    r0 = c0 = 8
    for r in range(r0, r0 + block):
        for c in range(c0, c0 + block):
            x[r * n + c] = value
            cells.append(r * n + c)
    return x, cells


def test_planted_hot_block_recovered_as_hh():
    regions = grid_regions(20, 20)
    w = geo.build_contiguity_weights(regions, kind="queen")
    x, block_cells = planted_block_field()
    result = esda.lisa(x, w, n_perm=999, seed=42, alpha=0.05)
    for i in block_cells:
        assert result.quadrant[i] == "HH"
    hh = [i for i, q in enumerate(result.quadrant) if q == "HH"]
    assert set(hh) == set(block_cells)  # nothing outside the block is HH
    center = block_cells[len(block_cells) // 2]
    assert result.p_value[center] == pytest.approx(0.001)
    g = esda.morans_i(x, w, n_perm=999, seed=42)
    assert g.p_value == pytest.approx(0.001)


def test_lisa_matches_naive_reimplementation():
    rng = np.random.default_rng(7)
    regions = jittered_grid_regions(5, 5, rng)
    w = geo.build_contiguity_weights(regions)
    x = rng.normal(size=25)
    result = esda.lisa(x, w, n_perm=99, seed=11)
    local, p = oracles.lisa_naive(x, w, n_perm=99, seed=11)
    assert np.array_equal(result.local_i, local)
    assert np.array_equal(result.p_value, p)


def test_lisa_matches_naive_on_random_graphs():
    """esda.lisa's slot table equals oracles.lisa_naive bit for bit on random
    graphs: islands, drawn degrees 1-8, 2-40 usable regions, a hub next to
    every other region (so the largest degree reaches n_used - 1), and values
    with ties, exact zeros, -0.0 and a mean of exactly 0.0."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given
    from hypothesis import strategies as st

    small = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0])

    @st.composite
    def graph_and_values(draw):
        n_used = draw(st.integers(2, 40))
        n = n_used + draw(st.integers(0, 3))
        label = draw(st.permutations(range(n)))  # islands take the last labels
        pairs = []
        for i in range(n_used):
            others = [j for j in range(n_used) if j != i]
            k = draw(st.integers(1, min(8, n_used - 1)))
            pairs += [(label[i], label[j]) for j in draw(st.permutations(others))[:k]]
        if draw(st.booleans()):
            pairs += [(label[0], label[j]) for j in range(1, n_used)]
        if draw(st.booleans()):  # a mean of exactly 0.0: small values and their negatives
            half = draw(st.lists(small, min_size=n_used // 2, max_size=n_used // 2))
            used = half + [-v for v in half] + [-0.0] * (n_used % 2)
            used = draw(st.permutations(used))
        else:
            used = draw(st.lists(st.one_of(small, st.floats(-1e3, 1e3)), min_size=n_used, max_size=n_used))
        assume(len(set(used)) > 1)  # -0.0 == 0.0, so a field of both is constant
        x = np.zeros(n)
        x[list(label[:n_used])] = used
        x[list(label[n_used:])] = 7.0
        return geo.from_adjacency(n, pairs), x

    @given(graph_and_values(), st.integers(1, 30), st.integers(0, 2**32 - 1))
    def check(case, n_perm, seed):
        w, x = case
        result = esda.lisa(x, w, n_perm=n_perm, seed=seed)
        local, p = oracles.lisa_naive(x, w, n_perm=n_perm, seed=seed)
        active = np.flatnonzero(w.degrees)
        assert result.local_i[active].tobytes() == local.tobytes()
        assert result.p_value[active].tobytes() == p.tobytes()

    check()


def test_global_p_value_matches_naive_loop():
    for trial in range(4):
        rng = np.random.default_rng(600 + trial)
        kind = "queen" if trial % 2 == 0 else "rook"
        w = geo.build_contiguity_weights(jittered_grid_regions(5, 5, rng), kind=kind)
        x = rng.normal(size=25)  # these four fields depart upward, downward, upward, downward
        result = esda.morans_i(x, w, n_perm=99, seed=trial)
        assert result.p_value == oracles.moran_p_naive(x, w, n_perm=99, seed=trial)


def test_distinct_seeds_draw_distinct_permutations():
    w = geo.build_contiguity_weights(grid_regions(12, 12), kind="rook")
    x = np.random.default_rng(12).normal(size=144)
    global_p = {esda.morans_i(x, w, n_perm=1024, seed=seed).p_value for seed in range(6)}
    assert len(global_p) > 1
    local_p = [esda.lisa(x, w, n_perm=199, seed=seed).p_value for seed in (0, 1)]
    assert not np.array_equal(*local_p)


def test_quadrant_sign_consistency():
    rng = np.random.default_rng(70)
    regions = jittered_grid_regions(6, 5, rng)
    w = geo.build_contiguity_weights(regions)
    x = rng.normal(size=30)
    result = esda.lisa(x, w, n_perm=199, seed=5, alpha=0.3)
    for i, q in enumerate(result.quadrant):
        z, lag, p = result.z_value[i], result.lag[i], result.p_value[i]
        if q == "HH":
            assert z > 0 and lag > 0 and p <= 0.3
        elif q == "LL":
            assert z < 0 and lag < 0 and p <= 0.3
        elif q == "HL":
            assert z > 0 and lag < 0 and p <= 0.3
        elif q == "LH":
            assert z < 0 and lag > 0 and p <= 0.3
        else:
            assert q == "NS"


def test_alpha_one_disables_significance_filter():
    rng = np.random.default_rng(71)
    regions = grid_regions(4, 4)
    w = geo.build_contiguity_weights(regions)
    x = rng.normal(size=16)
    result = esda.lisa(x, w, n_perm=99, seed=3, alpha=1.0)
    assert "NS" not in set(result.quadrant) or np.any(result.z_value == 0)


def test_permutation_floor():
    w = geo.build_contiguity_weights(grid_regions(4, 4))
    rng = np.random.default_rng(8)
    for n_perm in (9, 99, 999):
        x = rng.normal(size=16)
        g = esda.morans_i(x, w, n_perm=n_perm, seed=2)
        assert g.p_value >= 1 / (n_perm + 1)
        loc = esda.lisa(x, w, n_perm=n_perm, seed=2)
        assert np.nanmin(loc.p_value) >= 1 / (n_perm + 1)


def test_island_region_is_flagged_island():
    regions = grid_regions(3, 3) + [square_region(900, 50.0, 50.0)]
    w = geo.build_contiguity_weights(regions)
    x = np.r_[np.random.default_rng(1).normal(size=9), 5.0]
    result = esda.lisa(x, w, n_perm=99, seed=1)
    assert result.quadrant[9] == "ISLAND"
    assert np.isnan(result.local_i[9]) and np.isnan(result.p_value[9])
    # islands do not contribute to the mean
    g = esda.morans_i(x, w, n_perm=9, seed=1)
    assert g.n_used == 9


def test_determinism_repeat_calls():
    rng = np.random.default_rng(9)
    regions = jittered_grid_regions(5, 5, rng)
    w = geo.build_contiguity_weights(regions)
    x = rng.normal(size=25)
    a = esda.lisa(x, w, n_perm=199, seed=17)
    b = esda.lisa(x, w, n_perm=199, seed=17)
    assert np.array_equal(a.local_i, b.local_i)
    assert np.array_equal(a.p_value, b.p_value)
    assert a.quadrant == b.quadrant
    ga = esda.morans_i(x, w, n_perm=199, seed=17)
    gb = esda.morans_i(x, w, n_perm=199, seed=17)
    assert ga == gb


def test_null_rejection_rate_calibrated():
    """i.i.d. fields reject at about alpha per direction, 2*alpha combined.

    The p-value is one-sided in the direction of departure, so under the null
    each fixed direction rejects at alpha and the union rejects at 2*alpha
    (direction is picked post hoc). Calibration is asserted per direction,
    where the bound is sharp; the combined rate is checked against 2*alpha.
    """
    alpha = 0.05
    w = geo.build_contiguity_weights(grid_regions(6, 6))
    upper, lower, combined = [], [], []
    for trial in range(40):
        x = np.random.default_rng(3000 + trial).normal(size=36)
        result = esda.lisa(x, w, n_perm=199, seed=trial, alpha=alpha)
        reject = result.p_value <= alpha
        upper.append(float(np.mean(reject & (result.local_i >= 0))))
        lower.append(float(np.mean(reject & (result.local_i < 0))))
        combined.append(float(np.mean(reject)))

    def bound(rates, level):
        rates = np.asarray(rates)
        se = rates.std(ddof=1) / np.sqrt(len(rates))
        assert rates.mean() <= level + 3 * se + 1e-9

    bound(upper, alpha)
    bound(lower, alpha)
    bound(combined, 2 * alpha)


@pytest.mark.parametrize(
    "field, noise_scale, p_value",
    [("clustered", 1.0, 0.05), ("checkerboard", 2.0, 0.08)],
)
def test_global_p_values_pinned(field, noise_scale, p_value):
    """Pinned p-values in both tails: a clustered field departs upward, a
    noisy checkerboard under rook contiguity downward."""
    w = geo.build_contiguity_weights(grid_regions(6, 6), kind="rook")
    row, col = np.divmod(np.arange(36), 6)
    base = (col >= 3) if field == "clustered" else ((row + col) % 2 == 1)
    x = base.astype(float) + noise_scale * np.random.default_rng(11).normal(size=36)
    result = esda.morans_i(x, w, n_perm=199, seed=5)
    assert (result.I > result.expected_I) == (field == "clustered")
    assert result.p_value == p_value
