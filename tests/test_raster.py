import warnings

import numpy as np
import pytest

from epigrid import geometry, ingest, raster
from epigrid.errors import EngineError, EngineWarning

import oracles
from conftest import grid_regions, make_grid, square_region

zones = raster.ZoneIndex.build


def cell_counts(grid, index):
    """(data cells, nodata cells) per region, read from the kernel's counts."""
    vals = index.gather(grid)
    return (
        [int(n) for n in index.totals(vals, vals != grid.nodata)[1]],
        [int(n) for n in index.totals(vals, vals == grid.nodata)[1]],
    )


def mean_records(grid, index):
    """zonal_mean as the oracle's (adm_id, mean or None, cells, nodata cells) rows."""
    counts, nodata = cell_counts(grid, index)
    return [
        (region.adm_id, None if np.isnan(m) else float(m), n, k)
        for region, m, n, k in zip(index.regions, raster.zonal_mean(grid, index), counts, nodata)
    ]


def region_over(x0, y0, x1, y1, adm_id=1):
    ring = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
    return ingest.AdminRegion(
        adm_id=adm_id, name=f"R{adm_id}", province="P", country="C",
        geometry=geometry.polygon(ring),
    )


class TestZonalMean:
    def test_constant_raster(self):
        grid = make_grid(np.full((4, 4), 3.25))
        out = raster.zonal_mean(grid, zones(grid, [region_over(0, 0, 2, 4), region_over(2, 0, 4, 4, 2)]))
        assert list(out) == [3.25, 3.25]

    def test_left_half_of_sequential_values(self):
        grid = make_grid(np.arange(1, 17, dtype=float).reshape(4, 4))
        index = zones(grid, [region_over(0, 0, 2, 4)])
        out = raster.zonal_mean(grid, index)
        # {1,2,5,6,9,10,13,14} -> 7.5
        assert out[0] == 7.5
        assert cell_counts(grid, index)[0][0] == 8

    def test_all_nodata_region(self):
        values = np.full((3, 3), -9999.0)
        values[:, 2] = 5.0
        grid = make_grid(values)
        index = zones(grid, [region_over(0, 0, 2, 3)])
        out = raster.zonal_mean(grid, index)
        assert np.isnan(out[0])
        assert cell_counts(grid, index) == ([0], [6])

    def test_region_outside_extent_warns(self):
        grid = make_grid(np.ones((2, 2)))
        with pytest.warns(EngineWarning, match="no cell centers"):
            out = raster.zonal_mean(grid, zones(grid, [region_over(10, 10, 12, 12)]))
        assert np.isnan(out[0])

    def test_overlapping_regions_first_wins_with_tie_warning(self):
        grid = make_grid(np.arange(16, dtype=float).reshape(4, 4))
        a = region_over(0, 0, 3, 4, adm_id=1)
        b = region_over(1, 0, 4, 4, adm_id=2)
        with pytest.warns(EngineWarning, match="more than one region"):
            index = zones(grid, [a, b])
        assert cell_counts(grid, index)[0] == [12, 4]  # all of columns 0..2; only column 3 remains


class TestTabulateArea:
    def test_pure_region(self):
        grid = make_grid(np.full((4, 4), 2.0))
        counts, fractions = raster.tabulate_area(grid, zones(grid, [region_over(0, 0, 4, 4)]), [1, 2, 3])
        assert {c: f[0] for c, f in fractions.items()} == {1: 0.0, 2: 1.0, 3: 0.0}
        assert counts[2][0] == 16

    def test_fractions_partition_covered_cells(self):
        rng = np.random.default_rng(4)
        values = rng.integers(1, 4, size=(8, 8)).astype(float)
        values[0, 0] = -9999.0
        grid = make_grid(values)
        index = zones(grid, [region_over(0, 2, 5, 8)])
        counts, fractions = raster.tabulate_area(grid, index, [1, 2, 3])
        [covered], _ = cell_counts(grid, index)
        assert sum(n[0] for n in counts.values()) == covered
        if covered:
            assert sum(f[0] for f in fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_table3_row_2160_fixture(self):
        """A district with 11,215 tree cells out of 14,196 covered (79%)."""
        nrows, ncols = 95, 160
        values = np.full((nrows, ncols), 9.0)  # background class
        region = region_over(2.0, 2.0, 2.0 + 156, 2.0 + 91, adm_id=2160)
        # inside the region footprint: first 11,215 cells (row-major) are trees
        count = 0
        for r in range(nrows):
            for c in range(ncols):
                x, y = c + 0.5, nrows - r - 0.5
                if 2.0 <= x <= 158.0 and 2.0 <= y <= 93.0 and count < 11215:
                    values[r, c] = 1.0
                    count += 1
        grid = make_grid(values)
        index = zones(grid, [region])
        counts, fractions = raster.tabulate_area(grid, index, [1, 9])
        assert cell_counts(grid, index)[0] == [156 * 91] == [14196]
        assert counts[1][0] == 11215
        assert round(fractions[1][0], 2) == 0.79


class TestPopulationNearWater:
    def test_zero_buffer_point_water(self):
        grid = make_grid(np.ones((4, 4)))
        water = [geometry.PointSet(np.array([[0.7, 0.7]]))]
        out = raster.population_near_water(grid, water, 0.0, zones(grid, [region_over(0, 0, 4, 4)]))
        assert out[0] == 0.0  # no cell center coincides with the point

    def test_disc_mass_matches_center_count(self):
        # ~1 km cells at the equator; population 1 per cell
        cell_deg = 1.0 / raster.KM_PER_DEG_LAT
        n = 21
        grid = ingest.RasterGrid(
            ncols=n, nrows=n, xll=0.0, yll=-n / 2 * cell_deg,
            cellsize=cell_deg, nodata=-9999.0, values=np.ones((n, n)),
        )
        center = (n / 2 * cell_deg, 0.0)
        water = [geometry.PointSet(np.array([center]))]
        region = region_over(-1, -1, 2, 1)
        got = raster.population_near_water(grid, water, 3.0, zones(grid, [region]))[0]
        want = oracles.population_near_water_percell(grid, water, 3.0, [region])[0][1]
        assert got == want
        # discretized disc area ~ pi * 3^2 km^2 with ~1 km^2 cells
        assert got == pytest.approx(np.pi * 9.0, rel=0.2)

    def test_district_with_no_nearby_water_is_zero(self):
        grid = make_grid(np.full((6, 6), 10.0))
        water = [geometry.PointSet(np.array([[100.0, 0.5]]))]
        out = raster.population_near_water(grid, water, 3.0, zones(grid, [region_over(0, 0, 6, 6, 2157)]))
        assert list(out) == [0.0]

    def test_empty_water_warns_and_zeroes(self):
        grid = make_grid(np.ones((3, 3)))
        with pytest.warns(EngineWarning, match="empty water"):
            out = raster.population_near_water(grid, [], 3.0, zones(grid, [region_over(0, 0, 3, 3)]))
        assert out[0] == 0.0

    def test_polar_latitude_fatal(self):
        grid = make_grid(np.ones((2, 2)))
        water = [geometry.PointSet(np.array([[0.5, 89.95]]))]
        with pytest.raises(EngineError, match="polar"):
            raster.water_buffer_mask(grid, water, 1.0)

    def test_monotone_in_buffer(self):
        rng = np.random.default_rng(12)
        grid = make_grid(rng.uniform(0, 100, (12, 12)), cellsize=0.01)
        water = [
            geometry.LineSet((np.array([[0.02, 0.0], [0.06, 0.12]]),)),
            geometry.PointSet(np.array([[0.1, 0.02]])),
        ]
        regions = [region_over(0, 0, 0.06, 0.12), region_over(0.06, 0, 0.12, 0.12, 2)]
        prev = None
        for km in (0.0, 1.0, 3.0, 6.0):
            vals = raster.population_near_water(grid, water, km, zones(grid, regions))
            if prev is not None:
                assert all(v >= p for v, p in zip(vals, prev))
            prev = vals

    def test_mask_identity_bounded_by_zonal_sum(self):
        rng = np.random.default_rng(13)
        grid = make_grid(rng.uniform(0, 50, (10, 10)), cellsize=0.02)
        water = [geometry.PointSet(np.array([[0.05, 0.05]]))]
        regions = [region_over(0, 0, 0.1, 0.2), region_over(0.1, 0, 0.2, 0.2, 2)]
        masked = raster.population_near_water(grid, water, 2.0, zones(grid, regions))
        totals = raster.zonal_sum(grid, zones(grid, regions))
        for value, total in zip(masked, totals, strict=True):
            assert value <= total + 1e-9

    def test_masked_raster_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        grid = make_grid(rng.uniform(0, 50, (6, 6)), cellsize=0.05)
        water = [geometry.PointSet(np.array([[0.15, 0.15]]))]
        mask = raster.water_buffer_mask(grid, water, 4.0)
        masked = raster.masked_population(grid, mask)
        path = tmp_path / "masked.asc"
        ingest.write_ascii_grid(masked, path)
        back = ingest.parse_ascii_grid(path)
        assert np.array_equal(back.values, masked.values)


class TestOracleEquivalence:
    def random_regions(self, rng, extent, adm_id):
        kind = rng.integers(0, 3)
        x0, y0 = rng.uniform(0, extent * 0.6, 2)
        wd, ht = rng.uniform(extent * 0.2, extent * 0.5, 2)
        if kind == 0:
            return region_over(x0, y0, x0 + wd, y0 + ht, adm_id=adm_id)
        if kind == 1:  # random convex-ish polygon
            angles = np.sort(rng.uniform(0, 2 * np.pi, 7))
            radius = rng.uniform(extent * 0.15, extent * 0.35)
            cx, cy = x0 + wd / 2, y0 + ht / 2
            ring = np.column_stack(
                [cx + radius * np.cos(angles), cy + radius * np.sin(angles)]
            )
            ring = np.vstack([ring, ring[:1]])
            return ingest.AdminRegion(
                adm_id=adm_id, name="poly", province="P", country="C",
                geometry=geometry.polygon(ring),
            )
        parts = (
            geometry.Polygon(geometry.as_ring(
                [(x0, y0), (x0 + wd / 2, y0), (x0 + wd / 2, y0 + ht / 2), (x0, y0 + ht / 2), (x0, y0)]
            )),
            geometry.Polygon(geometry.as_ring(
                [(x0 + wd, y0 + ht), (x0 + wd * 1.4, y0 + ht), (x0 + wd * 1.4, y0 + ht * 1.4),
                 (x0 + wd, y0 + ht * 1.4), (x0 + wd, y0 + ht)]
            )),
        )
        return ingest.AdminRegion(
            adm_id=adm_id, name="multi", province="P", country="C",
            geometry=geometry.MultiPolygon(parts),
        )

    def test_zonal_and_tabulate_match_percell_oracle(self):
        for trial in range(12):
            rng = np.random.default_rng(7000 + trial)
            size = int(rng.integers(6, 20))
            values = rng.integers(1, 5, size=(size, size)).astype(float)
            values[rng.random((size, size)) < 0.1] = -9999.0
            grid = make_grid(values)
            regions = [self.random_regions(rng, size, i + 1) for i in range(3)]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                index = zones(grid, regions)
            got_mean = mean_records(grid, index)
            got_counts, got_fractions = raster.tabulate_area(grid, index, [1, 2, 3, 4])
            covered = cell_counts(grid, index)[0]
            want_mean = oracles.zonal_mean_percell(grid, regions)
            want_tab = oracles.tabulate_percell(grid, regions, [1, 2, 3, 4])
            assert got_mean == want_mean
            for i, (adm, counts, fractions, want_covered) in enumerate(want_tab):
                assert {c: got_counts[c][i] for c in counts} == counts
                assert {c: got_fractions[c][i] for c in fractions} == fractions
                assert covered[i] == want_covered

    def test_class_population_consistent(self):
        rng = np.random.default_rng(42)
        cls_vals = rng.integers(1, 4, size=(10, 10)).astype(float)
        pop_vals = rng.uniform(0, 100, size=(10, 10))
        cls_grid = make_grid(cls_vals)
        pop_grid = make_grid(pop_vals)
        regions = [region_over(0, 0, 5, 10), region_over(5, 0, 10, 10, 2)]
        out = raster.class_population(cls_grid, pop_grid, zones(pop_grid, regions), [1, 2, 3])
        # per-region class populations sum to the zonal population sum
        totals = raster.zonal_sum(pop_grid, zones(pop_grid, regions))
        for i in range(len(regions)):
            class_sum = sum(out[c][i] for c in (1, 2, 3))
            assert class_sum == pytest.approx(totals[i], abs=1e-9)

    def test_class_population_grid_mismatch_fatal(self):
        a = make_grid(np.ones((4, 4)))
        b = make_grid(np.ones((5, 4)))
        with pytest.raises(EngineError, match="different grids"):
            raster.class_population(a, b, zones(b, [region_over(0, 0, 4, 4)]), [1])


class TestZoneIndex:
    def test_grouping_matches_percell_oracle_on_criterion_06_fixtures(self):
        from test_acceptance import _random_fixture

        for trial in range(100):
            grid, regions, _ = _random_fixture(np.random.default_rng(30_000 + trial))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                index = zones(grid, regions)
            owner = oracles.assign_cells_percell(grid, regions).ravel()
            assert index.starts[-1] == len(index.order) == np.count_nonzero(owner >= 0)
            for ri in range(len(regions)):
                cells = index.order[index.starts[ri]:index.starts[ri + 1]]
                assert np.array_equal(cells, np.flatnonzero(owner == ri))

    def test_one_index_reused_equals_a_fresh_index_per_raster(self):
        rng = np.random.default_rng(21)
        regions = [region_over(0, 0, 5, 7), region_over(4, 2, 9, 9, 2), region_over(20, 20, 21, 21, 3)]
        water = [geometry.PointSet(np.array([[3.0, 3.0]]))]
        with pytest.warns(EngineWarning) as record:
            shared = zones(make_grid(np.zeros((9, 9))), regions)
        assert [str(w.message) for w in record][1:] == ["region adm_id=3 covers no cell centers"]
        assert "more than one region" in str(record[0].message)
        for _ in range(4):
            values = rng.integers(1, 4, size=(9, 9)).astype(float)
            values[rng.random((9, 9)) < 0.1] = -9999.0
            grid = make_grid(values)
            pop = make_grid(rng.uniform(0, 100, (9, 9)))
            with pytest.warns(EngineWarning):
                runs = [
                    (
                        raster.zonal_mean(grid, index),
                        raster.zonal_sum(pop, index),
                        raster.tabulate_area(grid, index, [1, 2, 3]),
                        raster.class_population(grid, pop, index, [1, 2, 3]),
                        raster.population_near_water(pop, water, 200.0, index),
                    )
                    for index in (shared, zones(grid, regions))
                ]
            np.testing.assert_equal(runs[0], runs[1])

    @pytest.mark.parametrize(
        "reduce",
        [
            lambda g, index: raster.zonal_mean(g, index),
            lambda g, index: raster.zonal_sum(g, index),
            lambda g, index: raster.tabulate_area(g, index, [1]),
            lambda g, index: raster.class_population(g, g, index, [1]),
            lambda g, index: raster.population_near_water(g, [geometry.PointSet(np.array([[1.0, 1.0]]))], 1.0, index),
        ],
        ids=["zonal_mean", "zonal_sum", "tabulate_area", "class_population", "population_near_water"],
    )
    @pytest.mark.parametrize(
        "other",
        [
            make_grid(np.ones((4, 5))),
            make_grid(np.ones((4, 4)), xll=0.5),
            make_grid(np.ones((4, 4)), cellsize=0.5),
        ],
        ids=["shape", "origin", "cellsize"],
    )
    def test_raster_on_another_grid_is_an_engine_error(self, reduce, other):
        index = zones(make_grid(np.ones((4, 4))), [region_over(0, 0, 4, 4)])
        with pytest.raises(EngineError, match="differs from the zone index grid"):
            reduce(other, index)

    def test_an_empty_footprint_warns_once_at_build(self):
        grid = make_grid(np.ones((2, 2)))
        regions = [region_over(0, 0, 2, 2), region_over(10, 10, 12, 12, adm_id=3)]
        with pytest.warns(EngineWarning, match="adm_id=3 covers no cell centers") as record:
            index = zones(grid, regions)
        assert len(record) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                raster.zonal_mean(grid, index)


def owner_index(owner, n):
    """A ZoneIndex over a flat owner map (-1 = unassigned), built as ZoneIndex.build does."""
    order = np.argsort(owner, kind="stable")
    starts = np.searchsorted(owner[order], np.arange(n + 1))
    return raster.ZoneIndex((), (), order[starts[0]:], starts - starts[0])


def check_totals(owner, n, values, keep):
    """The kernel's sums equal a per-region np.sum in raster order bit for bit."""
    index = owner_index(owner, n)
    sums, counts = index.totals(values[index.order], keep[index.order])
    assert len(sums) == len(counts) == n
    for i in range(n):
        mine = owner == i
        want = np.sum(values[mine][keep[mine]])
        assert sums[i].tobytes() == want.tobytes()
        assert counts[i] == np.count_nonzero(keep[mine])


def random_owner_case(rng, sizes, keep_share):
    """Regions of the given sizes (0 = empty) plus unassigned cells, shuffled
    over the raster, with values from 1e-3 to 1e15 in magnitude."""
    owner = rng.permutation(np.repeat(np.arange(-1, len(sizes)), [rng.integers(0, 20), *sizes]))
    scale = rng.choice([1e-3, 1.0, 1e6, 1e15], len(owner))
    return owner, scale * rng.standard_normal(len(owner)), rng.random(len(owner)) < keep_share


def test_totals_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.given(
        st.lists(st.integers(0, 300), min_size=1, max_size=8),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
    )
    @hypothesis.example([0, 7, 0, 300, 0], 0.8, 5)  # empty regions first, in the middle and last
    def check(sizes, keep_share, seed):
        owner, values, keep = random_owner_case(np.random.default_rng(seed), sizes, keep_share)
        check_totals(owner, len(sizes), values, keep)

    check()
