"""A writer that fails partway leaves the previous file intact and no temp file."""

import builtins
import errno
import os
from pathlib import Path

import numpy as np
import pytest

from epigrid import features, geo, ingest
from epigrid.errors import ConfigError


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


def test_failed_json_write_keeps_previous_file(tmp_path):
    """write_json streams a document without indent, so it fails partway through its trees."""
    path = tmp_path / "model.json"
    path.write_text("previous model\n")
    with pytest.raises(TypeError):
        ingest.write_json(path, {"n_trees": 3, "trees": [{"leaf": True}, object(), {"leaf": True}]})
    assert path.read_text() == "previous model\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_read_only_mount_is_a_config_error(tmp_path, monkeypatch):
    """On a read-only mount the temp file's open fails, and so does the clean-up's unlink, with EROFS."""
    path = tmp_path / "model.json"
    path.write_text("previous model\n")
    real_open = builtins.open

    def read_only_open(file, *args, **kwargs):
        if str(file) == f"{path}.tmp":
            raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(file))
        return real_open(file, *args, **kwargs)

    def read_only_unlink(self, missing_ok=False):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), str(self))

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", read_only_open)
        patch.setattr(Path, "unlink", read_only_unlink)
        with pytest.raises(ConfigError) as info:
            ingest.write_json(path, {"n_trees": 0})
    assert str(info.value) == f"{path} cannot be written: Read-only file system"
    assert path.read_text() == "previous model\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
