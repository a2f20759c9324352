import dataclasses
from datetime import date

import numpy as np
import pytest

from epigrid import features, geometry, ingest
from epigrid.errors import EngineError, EngineWarning, SchemaMismatchError

from conftest import grid_regions


def test_minmax_endpoints():
    scaled, params = features.minmax_scale([0.0, 5.0, 10.0])
    assert scaled.tolist() == [0.0, 0.5, 1.0]
    assert (params.low, params.high) == (0.0, 10.0)


def test_minmax_constant_column():
    scaled, _ = features.minmax_scale([7.0, 7.0, 7.0])
    assert scaled.tolist() == [0.0, 0.0, 0.0]


def test_robust_hand_example():
    scaled, params = features.robust_scale([1.0, 2.0, 3.0, 4.0, 100.0])
    assert (params.median, params.q1, params.q3) == (3.0, 2.0, 4.0)
    assert scaled.tolist() == [-1.0, -0.5, 0.0, 0.5, 48.5]


def test_robust_constant_column():
    scaled, _ = features.robust_scale([4.0, 4.0])
    assert scaled.tolist() == [0.0, 0.0]


def test_robust_median_of_output_is_zero():
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=31) * rng.uniform(1, 50)
        scaled, _ = features.robust_scale(x)
        assert np.median(scaled) == pytest.approx(0.0, abs=1e-12)


def test_landcover_composite_example():
    out, params = features.landcover_composite([0, 5, 10], [0, 0.5, 1], [0, 50, 100])
    assert out.tolist() == [0.0, 1.5, 3.0]
    assert params == {
        "area": features.MinMaxParams(0.0, 10.0),
        "fraction": features.MinMaxParams(0.0, 1.0),
        "population": features.MinMaxParams(0.0, 100.0),
    }


def test_landcover_composite_single_district_and_bounds():
    assert features.landcover_composite([4], [0.3], [10])[0].tolist() == [0.0]
    rng = np.random.default_rng(3)
    out, _ = features.landcover_composite(
        rng.uniform(0, 100, 20), rng.uniform(0, 1, 20), rng.uniform(0, 1e5, 20)
    )
    assert np.all(out >= 0.0) and np.all(out <= 3.0)


def test_landcover_composite_length_mismatch():
    with pytest.raises(EngineError, match="length"):
        features.landcover_composite([1, 2], [1], [1, 2])


def test_table_scaler_no_leakage_and_no_refit():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(50, 3)) * [1, 10, 100]
    test = rng.normal(size=(20, 3)) * [1, 10, 100]
    scaler = features.TableScaler.fit(train)
    t1 = scaler.transform(test)
    fresh = features.TableScaler.fit(train)
    assert np.array_equal(t1, fresh.transform(test))
    with pytest.raises(dataclasses.FrozenInstanceError):
        scaler.params = features.TableScaler.fit(test).params
    roundtrip = features.TableScaler.from_dict(scaler.to_dict())
    assert np.array_equal(roundtrip.transform(test), t1)


def test_table_scaler_is_robust_only():
    doc = features.TableScaler.fit(np.arange(6.0).reshape(3, 2)).to_dict()
    assert doc["kind"] == "robust"
    with pytest.raises(EngineError, match="minmax"):
        features.TableScaler.from_dict({**doc, "kind": "minmax"})


@pytest.mark.parametrize("width", [1, 3])
def test_table_scaler_rejects_another_width(width):
    scaler = features.TableScaler.fit(np.arange(6.0).reshape(3, 2))
    with pytest.raises(SchemaMismatchError, match="fitted on 2 columns"):
        scaler.transform(np.zeros((4, width)))


def test_points_to_district_values_with_fallback():
    regions = grid_regions(2, 1)  # squares [0,1]x[0,1] and [1,2]x[0,1]
    points = ingest.PointValueSet(
        lons=np.array([0.2, 0.4, 5.0]),
        lats=np.array([0.5, 0.5, 0.5]),
        values=np.array([1.0, 3.0, 9.0]),
    )
    with pytest.warns(EngineWarning, match="nearest point"):
        vals = features.points_to_district_values(points, regions)
    assert vals[0] == pytest.approx(2.0)  # mean of the two inside points
    # second square holds no points; its centroid (1.5, 0.5) is closest to x=0.4
    assert vals[1] == 3.0


def make_panel(counts, start=date(2019, 1, 1)):
    counts = np.asarray(counts)
    d, t = counts.shape
    return ingest.SurveillancePanel(
        disease="m",
        start=start,
        n_weeks=t,
        districts=tuple(11 + i for i in range(d)),
        counts=counts,
    )


def full_datasets(d, t, **overrides):
    base = {
        "precipitation": features.DistrictDataset(np.full((d, t), 2.0)),
        "temperature": features.DistrictDataset(np.full((d, t), 25.0)),
        "trees": features.DistrictDataset(np.linspace(0, 1, d)),
        "crops": features.DistrictDataset(np.linspace(0, 2, d)),
        "built_up": features.DistrictDataset(np.linspace(0, 3, d)),
        "bare_ground": features.DistrictDataset(np.zeros(d)),
        "rangeland": features.DistrictDataset(np.ones(d)),
        "population_density": features.DistrictDataset(np.arange(d, dtype=float)),
        "population_near_water": features.DistrictDataset(np.arange(d, dtype=float) * 10),
        "relative_wealth": features.DistrictDataset(np.full(d, 1.5)),
        "elevation": features.DistrictDataset(np.array([100.0 * (i + 1) for i in range(d)])),
    }
    base.update(overrides)
    return base


class TestAssemble:
    def test_static_broadcast_and_binarize(self):
        panel = make_panel([[0, 2], [1, 0]])
        table = features.assemble_feature_table(panel, full_datasets(2, 2))
        assert len(table) == 4
        j = table.feature_names.index("elevation")
        # sorted by adm_id then week; district 11 first
        assert table.X[:, j].tolist() == [100.0, 100.0, 200.0, 200.0]
        assert table.labels.tolist() == [0, 1, 1, 0]
        assert table.cases.tolist() == [0, 2, 1, 0]

    def test_row_order_is_adm_then_week(self):
        panel = make_panel([[1, 0, 0], [0, 0, 2]])
        table = features.assemble_feature_table(panel, full_datasets(2, 3))
        assert table.adm_ids.tolist() == [11, 11, 11, 12, 12, 12]
        assert table.weeks.tolist() == [1, 2, 3, 1, 2, 3]
        assert table.X[:, 0].tolist() == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]

    def test_subweekly_aggregation_mean_and_sum(self):
        panel = make_panel([[0, 0]])
        daily = np.arange(14, dtype=float)[None, :]  # 7 samples per week
        mean_ds = features.DistrictDataset(daily, agg="mean")
        sum_ds = features.DistrictDataset(daily, agg="sum")
        t1 = features.assemble_feature_table(
            panel, full_datasets(1, 2, precipitation=mean_ds)
        )
        j = t1.feature_names.index("precipitation")
        assert t1.X[:, j].tolist() == [3.0, 10.0]
        t2 = features.assemble_feature_table(
            panel, full_datasets(1, 2, precipitation=sum_ds)
        )
        assert t2.X[:, j].tolist() == [21.0, 70.0]

    def test_missing_dataset_fatal(self):
        panel = make_panel([[1]])
        datasets = full_datasets(1, 1)
        del datasets["elevation"]
        with pytest.raises(EngineError, match="elevation"):
            features.assemble_feature_table(panel, datasets)

    def test_nan_district_value_fatal_names_dataset_and_district(self):
        panel = make_panel([[1], [0]])
        datasets = full_datasets(2, 1)
        datasets["relative_wealth"] = features.DistrictDataset(np.array([1.0, np.nan]))
        with pytest.raises(EngineError, match="relative_wealth.*12"):
            features.assemble_feature_table(panel, datasets)

    def test_positive_count_matches_panel(self):
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 3, size=(5, 7))
        panel = make_panel(counts)
        table = features.assemble_feature_table(panel, full_datasets(5, 7))
        assert table.labels.sum() == np.count_nonzero(counts)


def test_feature_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    counts = rng.integers(0, 4, size=(3, 4))
    panel = make_panel(counts)
    table = features.assemble_feature_table(panel, full_datasets(3, 4))
    path = tmp_path / "features.csv"
    features.write_feature_csv(table, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(features.CSV_DTYPE.names)
    back = features.read_feature_csv(path)
    assert np.array_equal(back.X, table.X)
    assert np.array_equal(back.labels, table.labels)
    assert np.array_equal(back.adm_ids, table.adm_ids)
    assert np.array_equal(back.cases, table.cases)


def test_feature_csv_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaMismatchError):
        features.read_feature_csv(path)
