"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria rest on oracle equivalence, planted-pattern recovery, and structural
arithmetic at desk scale; the full-data reproduction is an operator procedure
(see README) and is skipped here.
"""

import json
import shutil
import subprocess
import sys
import time
import warnings
from datetime import date
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from epigrid import cli, esda, features, geo, ingest, learn, raster

import oracles
import synthetic
from conftest import grid_regions, jittered_grid_regions, make_grid, square_region


def report(number, description):
    print(f"\nACCEPTANCE {number:>2} PASS: {description}")


def test_criterion_01_moran_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(10_000 + trial)
        regions = jittered_grid_regions(10, 10, rng)
        kind = "queen" if trial % 2 == 0 else "rook"
        w = geo.build_contiguity_weights(regions, kind=kind)
        x = rng.normal(size=100) * rng.uniform(0.5, 50)
        got = esda.morans_i(x, w, n_perm=1, seed=trial).I
        want = oracles.moran_double_sum(x, w)
        worst = max(worst, abs(got - want))
        assert abs(got - want) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    report(1, f"50 random 10x10 fields match the double-sum oracle "
              f"(worst |diff| {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_02_two_region_exactness():
    w2 = geo.build_contiguity_weights(grid_regions(2, 1), kind="rook")
    rng = np.random.default_rng(2)
    for _ in range(50):
        a, b = (float(v) for v in rng.integers(-10_000, 10_000, 2))
        if a == b:
            b += 1.0
        r = esda.morans_i([a, b], w2, n_perm=1, seed=0)
        assert r.I == -1.0
        assert oracles.moran_double_sum([a, b], w2) == -1.0
    for _ in range(50):
        a, b = rng.normal(size=2) * rng.uniform(1, 100)
        r = esda.morans_i([a, b], w2, n_perm=1, seed=0)
        assert abs(r.I - (-1.0)) <= 1e-12

    w4 = geo.build_contiguity_weights(grid_regions(2, 2), kind="queen")
    x = [1.0, 0.0, 0.0, 1.0]
    r = esda.morans_i(x, w4, n_perm=1, seed=0)
    assert abs(r.I - (-1 / 3)) <= 1e-12
    assert abs(oracles.moran_double_sum(x, w4) - r.I) <= 1e-12
    report(2, "two adjacent regions give I = -1 exactly; 2x2 queen diagonal gives -1/3")


def test_criterion_03_lisa_global_identity():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(20_000 + trial)
        nx, ny = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        regions = jittered_grid_regions(nx, ny, rng)
        kind = "queen" if trial % 2 == 0 else "rook"
        w = geo.build_contiguity_weights(regions, kind=kind)
        x = rng.normal(size=nx * ny)
        g = esda.morans_i(x, w, n_perm=1, seed=trial).I
        mean_local = float(np.nanmean(esda.lisa(x, w, n_perm=1, seed=trial).local_i))
        worst = max(worst, abs(mean_local - g))
        assert abs(mean_local - g) <= 1e-10
    report(3, f"mean local I equals global I on 50 instances (worst |diff| {worst:.2e})")


def test_criterion_04_permutation_floor_and_planted_block():
    n_perm = 999
    floor = 1 / (n_perm + 1)
    assert floor == 0.001

    regions = grid_regions(20, 20)
    w = geo.build_contiguity_weights(regions, kind="queen")
    x = np.zeros(400)
    block = [r * 20 + c for r in range(8, 11) for c in range(8, 11)]
    x[block] = 100.0

    first = esda.lisa(x, w, n_perm=n_perm, seed=42, alpha=0.05)
    second = esda.lisa(x, w, n_perm=n_perm, seed=42, alpha=0.05)
    assert np.array_equal(first.p_value, second.p_value)  # seed-stable
    assert first.quadrant == second.quadrant
    for i in block:
        assert first.quadrant[i] == "HH"
    assert {i for i, q in enumerate(first.quadrant) if q == "HH"} == set(block)
    assert np.nanmin(first.p_value) == floor
    center = 9 * 20 + 9
    assert first.p_value[center] == floor

    g = esda.morans_i(x, w, n_perm=n_perm, seed=42)
    assert g.p_value == floor
    assert np.all(first.p_value[~np.isnan(first.p_value)] >= floor)
    report(4, "999 permutations floor p at exactly 0.001; the 3x3 hot block is "
              "recovered as HH with p = 0.001, seed-stable")


def test_criterion_05_panel_arithmetic():
    districts = [square_region(i + 1, float(i % 70), float(i // 70)) for i in range(4506)]
    panel, _ = ingest.build_panel([], districts, date(2019, 1, 1), 209, "cholera")
    assert panel.flattened_length() == 941_754

    datasets = {
        name: features.DistrictDataset(np.random.default_rng(5).random(4506))
        for name in features.FEATURE_NAMES
        if name != "week"
    }
    table = features.assemble_feature_table(panel, datasets)
    assert len(table) == 941_754

    rows = []
    for disease in ("Malaria", "Cholera"):
        for district in ("A", "B"):
            for week in (1, 2):
                rows.append(f"2019,{week},X,P,{district},{disease},1,0")
    import io, csv, tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
        fh.write("Year,Week,Country,Province,District,Disease,Number of cases,Number of deaths\n")
        fh.write("\n".join(rows) + "\n")
        path = fh.name
    records, _ = ingest.parse_surveillance_csv(path)
    assert len(records) == 8
    report(5, "4506 districts x 209 weeks -> exactly 941,754 feature rows; "
              "the 2x2x2 fixture parses to exactly 8 records")


def _random_fixture(rng):
    size = int(rng.integers(5, 51))
    values = rng.integers(1, 5, size=(size, size)).astype(float)
    values[rng.random((size, size)) < 0.08] = -9999.0
    cellsize = float(rng.uniform(0.01, 0.05))
    grid = make_grid(values, xll=float(rng.uniform(-1, 1)), yll=float(rng.uniform(-1, 1)),
                     cellsize=cellsize)
    extent = size * cellsize
    regions = []
    for i in range(3):
        x0 = grid.xll + rng.uniform(0, 0.5) * extent
        y0 = grid.yll + rng.uniform(0, 0.5) * extent
        wd = rng.uniform(0.2, 0.6) * extent
        ht = rng.uniform(0.2, 0.6) * extent
        ring = [(x0, y0), (x0 + wd, y0), (x0 + wd, y0 + ht), (x0, y0 + ht), (x0, y0)]
        from epigrid import geometry

        regions.append(
            ingest.AdminRegion(adm_id=i + 1, name=f"R{i}", province="P", country="C",
                               geometry=geometry.polygon(ring))
        )
    from epigrid import geometry

    water = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.random() < 0.5:
            water.append(geometry.PointSet(
                np.column_stack([
                    grid.xll + rng.uniform(0, extent, 1),
                    grid.yll + rng.uniform(0, extent, 1),
                ])
            ))
        else:
            pts = np.column_stack([
                grid.xll + rng.uniform(0, extent, 3),
                grid.yll + rng.uniform(0, extent, 3),
            ])
            water.append(geometry.LineSet((pts,)))
    return grid, regions, water


def test_criterion_06_raster_oracles():
    buffers = (0.0, 1.0, 3.0, 6.0)
    for trial in range(100):
        rng = np.random.default_rng(30_000 + trial)
        grid, regions, water = _random_fixture(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            index = raster.ZoneIndex.build(grid, regions)
            got_mean = raster.zonal_mean(grid, index)
            got_counts, got_fractions = raster.tabulate_area(grid, index, [1, 2, 3, 4])
            near = {
                km: raster.population_near_water(grid, water, km, index)
                for km in buffers
            }
        # results are arrays in region order; cell counts are the kernel's counts
        adm_ids = [r.adm_id for r in index.regions]
        vals = index.gather(grid)
        cells = index.totals(vals, vals != grid.nodata)[1]
        nodata_cells = index.totals(vals, vals == grid.nodata)[1]
        want_mean = oracles.zonal_mean_percell(grid, regions)
        assert len(got_mean) == len(want_mean)
        for i, (adm, mean, count, nodata) in enumerate(want_mean):
            got = None if np.isnan(got_mean[i]) else got_mean[i]
            assert (adm_ids[i], got, cells[i], nodata_cells[i]) == (adm, mean, count, nodata)
        want_tab = oracles.tabulate_percell(grid, regions, [1, 2, 3, 4])
        for i, (adm, counts, fractions, covered) in enumerate(want_tab):
            got_tab = ({c: got_counts[c][i] for c in counts}, {c: got_fractions[c][i] for c in fractions})
            assert (adm_ids[i], *got_tab, cells[i]) == (adm, counts, fractions, covered)
        # water oracle is slow: check one buffer per fixture exactly
        km = buffers[trial % len(buffers)]
        assert list(zip(adm_ids, near[km])) == oracles.population_near_water_percell(grid, water, km, regions)
        for region_idx in range(len(regions)):
            series = [near[km][region_idx] for km in buffers]
            assert all(b >= a for a, b in zip(series, series[1:]))
    report(6, "zonal mean, tabulate area, and water-buffer sums match per-cell "
              "oracles exactly on 100 fixtures; monotone in buffer distance")


def test_criterion_07_metric_exactness():
    cases = [
        (2, 1, 1, 6),
        (0, 0, 0, 10),
        (10, 0, 0, 0),
        (5, 5, 5, 5),
        (1, 0, 0, 1),
        (0, 3, 2, 5),
        (7, 2, 1, 90),
        (3, 3, 0, 4),
        (0, 0, 5, 5),
        (12, 1, 7, 80),
        (2, 8, 2, 88),
        (50, 10, 5, 935),
        (1, 1, 1, 1),
        (4, 0, 6, 90),
        (9, 9, 9, 73),
        (25, 5, 15, 55),
        (6, 1, 0, 3),
        (0, 10, 0, 90),
        (33, 3, 3, 61),
        (2, 0, 8, 0),
    ]
    for tp, fp, fn, tn in cases:
        y = np.r_[np.ones(tp + fn, dtype=int), np.zeros(fp + tn, dtype=int)]
        yp = np.r_[np.ones(tp, dtype=int), np.zeros(fn, dtype=int),
                   np.ones(fp, dtype=int), np.zeros(tn, dtype=int)]
        rep = learn.evaluate(y, yp, yp.astype(float))
        assert rep.confusion == (tp, fp, fn, tn)
        total = tp + fp + fn + tn
        assert abs(rep.accuracy - float(Fraction(tp + tn, total))) <= 1e-12
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        assert abs(rep.precision - float(precision)) <= 1e-12
        assert abs(rep.recall - float(recall)) <= 1e-12
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        assert abs(rep.f1 - float(f1)) <= 1e-12
        tnr = Fraction(tn, tn + fp) if tn + fp else Fraction(0)
        assert abs(rep.balanced_accuracy - float((recall + tnr) / 2)) <= 1e-12
        den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc = (tp * tn - fp * fn) / np.sqrt(den) if den else 0.0
        assert abs(rep.mcc - mcc) <= 1e-12

    rng = np.random.default_rng(7)
    for n in (50, 400, 1000):
        y = rng.integers(0, 2, n)
        if len(np.unique(y)) < 2:
            continue
        scores = np.round(rng.random(n), 2)
        assert learn.roc_auc_score(y, scores) == oracles.pairwise_auc(y, scores)
    report(7, "20 confusion matrices reproduce closed forms to 1e-12 "
              "(incl. f1=2/3, mcc=11/21); rank AUC equals the pairwise brute force")


def test_criterion_08_classifier_sanity():
    start = time.time()
    base = synthetic.box_table(50_000, positive_rate=0.03, seed=77)
    train, test = learn.random_split(base, learn.SplitSpec(0.2, seed=77))
    model = learn.train_forest(train, n_trees=15, seed=77)
    labels, scores = learn.predict(model, test)
    rep = learn.evaluate(test.labels, labels, scores)
    assert rep.f1 >= 0.95, f"F1 {rep.f1:.4f} below 0.95"

    first_ok = last_ok = 0
    for trial in range(20):
        data = synthetic.box_table(50_000, positive_rate=0.03, seed=100 + trial)
        with_copy = synthetic.inject_columns(data, seed=100 + trial, label_copy=True, noise=True)
        tr, te = learn.random_split(with_copy, learn.SplitSpec(0.2, seed=trial))
        sub = te.take(np.arange(0, len(te), 3))  # deterministic held-out subset
        m = learn.train_forest(tr, n_trees=10, seed=trial)
        entries = learn.permutation_importance(m, sub, n_repeats=3, seed=trial)
        first_ok += entries[0].feature == "label_copy"

        with_noise = synthetic.inject_columns(data, seed=100 + trial, label_copy=False, noise=True)
        tr, te = learn.random_split(with_noise, learn.SplitSpec(0.2, seed=trial))
        sub = te.take(np.arange(0, len(te), 3))
        m = learn.train_forest(tr, n_trees=10, seed=trial)
        entries = learn.permutation_importance(m, sub, n_repeats=3, seed=trial)
        last_ok += entries[-1].feature == "noise"
    elapsed = time.time() - start
    assert first_ok >= 19, f"label copy ranked first in only {first_ok}/20 trials"
    assert last_ok >= 19, f"noise ranked last in only {last_ok}/20 trials"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(8, f"3%-positive 50k dataset: F1 {rep.f1:.3f} >= 0.95; label copy first "
              f"{first_ok}/20, noise last {last_ok}/20 ({elapsed:.1f}s)")


def test_criterion_09_pipeline_determinism(mini_world, tmp_path):
    src = Path(mini_world).parent

    def run_world(name, threads):
        world = tmp_path / name
        shutil.copytree(src, world)
        config = world / "config.json"
        assert cli.main(["run", "--config", str(config), "--stage", "all",
                         "--threads", str(threads)]) == 0
        first = {
            p.name: p.read_bytes()
            for p in (world / "out").iterdir()
            if p.is_file() and p.name != ".lock"
        }
        assert cli.main(["run", "--config", str(config), "--stage", "all",
                         "--force", "--threads", str(threads)]) == 0
        second = {
            p.name: p.read_bytes()
            for p in (world / "out").iterdir()
            if p.is_file() and p.name != ".lock"
        }
        assert first == second, f"re-run at {threads} threads changed artifacts"
        return first

    one = run_world("t1", 1)
    eight = run_world("t8", 8)
    assert one == eight, "thread count changed artifacts"
    report(9, "all stages bit-identical across re-runs at 1 and 8 threads")


@pytest.mark.skip(
    reason="full-data reproduction (Table 5 within +/-0.01, exact class balance) "
    "needs the complete surveillance export and source rasters; operator "
    "procedure documented in README, excluded from CI by design"
)
def test_criterion_10_full_data_reproduction():
    pass
