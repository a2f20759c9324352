"""A writer that fails partway leaves the previous file intact and no temp file."""

import numpy as np
import pytest

from epigrid import features, geo, ingest


class Unprintable:
    def __repr__(self):
        raise RuntimeError("cannot format this value")


def table_failing_at_row_3():
    n = 4
    return features.FeatureTable(
        adm_ids=np.array([1, 2, Unprintable(), 4], dtype=object),
        weeks=np.arange(1, n + 1),
        X=np.zeros((n, len(features.FEATURE_NAMES))),
        feature_names=features.FEATURE_NAMES,
        cases=np.zeros(n, dtype=np.int64),
        labels=np.zeros(n, dtype=np.int64),
    )


def grid_failing_at_row_2():
    values = np.ones((3, 2), dtype=object)
    values[1, 1] = "bad"
    return ingest.RasterGrid(ncols=2, nrows=3, xll=0.0, yll=0.0, cellsize=1.0,
                             nodata=-9999.0, values=values)


def weights_failing_at_row_2():
    return geo.SpatialWeights(n=2, rows=np.array([0, 1]), cols=np.array([1, 0]),
                              weights=np.array([1.0, Unprintable()], dtype=object))


WRITERS = {
    "write_feature_csv": lambda paths: features.write_feature_csv(table_failing_at_row_3(), paths[0]),
    "write_ascii_grid": lambda paths: ingest.write_ascii_grid(grid_failing_at_row_2(), paths[0]),
    "write_weights_csv": lambda paths: geo.write_weights_csv(weights_failing_at_row_2(), *paths),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, name):
    paths = [tmp_path / "first.out", tmp_path / "second.out"]
    for path in paths:
        path.write_text(f"previous {path.name}\n")
    with pytest.raises((ValueError, RuntimeError)):
        WRITERS[name](paths)
    for path in paths:
        assert path.read_text() == f"previous {path.name}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.out", "second.out"]
