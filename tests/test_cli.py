import builtins
import collections
import dataclasses
import errno
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epigrid import cli, esda, geo, ingest, raster
from epigrid.errors import ConfigError, DependencyError, LockError

from conftest import grid_regions

ARTIFACTS = [
    "panel.csv",
    "weights.csv",
    "islands.csv",
    "moran.json",
    "lisa.geojson",
    "lisa.csv",
    "features.csv",
    "features_meta.json",
    "model.json",
    "metrics.json",
    "metrics.csv",
    "importance.csv",
    "importance.json",
    "manifest.json",
]


@pytest.fixture()
def world(mini_world, tmp_path):
    """A private copy of the bundled mini world per test."""
    src = Path(mini_world).parent
    dst = tmp_path / "world"
    shutil.copytree(src, dst)
    return dst / "config.json"


def run_cli(config, *args):
    return cli.main(["run", "--config", str(config), *args])


def edit_config(config, section, key, value):
    doc = json.loads(config.read_text())
    (doc[section] if section else doc)[key] = value
    config.write_text(json.dumps(doc))


def artifacts(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


def error_report(capsys):
    return json.loads(capsys.readouterr().err.strip())["error"]


class TestFullRun:
    def test_all_stages_write_all_artifacts(self, world, capsys):
        assert run_cli(world, "--stage", "all") == 0
        out = world.parent / "out"
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [e["stage"] for e in events if e["event"] == "stage_end"] == list(cli.STAGES)

    def test_second_run_skips_everything(self, world, capsys):
        assert run_cli(world, "--stage", "all") == 0
        before = {
            p.name: p.read_bytes() for p in (world.parent / "out").iterdir() if p.is_file()
        }
        capsys.readouterr()
        assert run_cli(world, "--stage", "all") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(e["event"] == "stage_skip" for e in events)
        after = {
            p.name: p.read_bytes() for p in (world.parent / "out").iterdir() if p.is_file()
        }
        assert before == after

    def test_esda_artifacts_valid(self, world):
        assert run_cli(world, "--stage", "ingest") == 0
        assert run_cli(world, "--stage", "weights") == 0
        assert run_cli(world, "--stage", "esda") == 0
        out = world.parent / "out"
        moran = json.loads((out / "moran.json").read_text())
        assert moran["n_used"] == 16
        assert 0 < moran["p_value"] <= 1
        doc = json.loads((out / "lisa.geojson").read_text())
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 16
        vocab = {"HH", "LL", "HL", "LH", "NS", "ISLAND"}
        quads = [f["properties"]["quadrant"] for f in doc["features"]]
        assert set(quads) <= vocab
        assert "HH" in quads  # the planted NE cholera cluster
        for f in doc["features"]:
            assert set(f["properties"]) == {"adm_id", "quadrant", "local_I", "p_value"}

    def test_feature_table_shape(self, world):
        for stage in ("ingest", "features"):
            assert run_cli(world, "--stage", stage) == 0
        lines = (world.parent / "out" / "features.csv").read_text().splitlines()
        assert len(lines) == 1 + 16 * 8  # header + districts x weeks


class TestFailures:
    def test_train_without_features_names_dependency(self, world, capsys):
        assert run_cli(world, "--stage", "ingest") == 0
        code = run_cli(world, "--stage", "train")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["stage"] == "train"
        assert err["error"]["type"] == "DependencyError"
        assert "features" in err["error"]["message"]

    def test_missing_input_path_is_config_error(self, world, capsys):
        doc = json.loads(world.read_text())
        doc["paths"]["surveillance_csv"] = "nope.csv"
        world.write_text(json.dumps(doc))
        assert run_cli(world, "--stage", "all") == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]["type"] == "ConfigError"

    def test_lockfile_blocks_concurrent_runs(self, world, capsys):
        out = world.parent / "out"
        out.mkdir()
        with cli._Lock(out):
            assert run_cli(world, "--stage", "ingest") == 1
        err = error_report(capsys)
        assert err["type"] == "LockError" and str(out / ".lock") in err["message"]
        assert not (out / ".lock").exists()  # released by its holder
        assert run_cli(world, "--stage", "ingest") == 0
        assert not (out / ".lock").exists()  # released after the run

    def test_sigkilled_holder_releases_the_lock(self, world, capsys):
        out = world.parent / "out"
        out.mkdir()
        hold = "import sys; from pathlib import Path; from epigrid import cli; " \
               "cli._Lock(Path(sys.argv[1])).__enter__(); print(flush=True); sys.stdin.read()"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-c", hold, str(out)], env=env,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
            try:
                assert proc.stdout.readline() == b"\n"  # the child holds the lock
                assert run_cli(world, "--stage", "ingest") == 1
            finally:
                proc.kill()
                proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
        assert error_report(capsys)["type"] == "LockError"
        assert (out / ".lock").exists()  # a killed holder leaves its file, but not its lock
        assert run_cli(world, "--stage", "ingest") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [e["event"] for e in events] == ["stage_start", "stage_end"]
        assert not (out / ".lock").exists()

    def test_lock_file_naming_a_live_process_does_not_block(self, world, capsys):
        out = world.parent / "out"
        out.mkdir()
        (out / ".lock").write_text("1")  # a live process that holds no lock
        assert run_cli(world, "--stage", "ingest") == 0
        assert not (out / ".lock").exists()

    def test_opener_of_a_released_lock_does_not_own_it(self, world, monkeypatch):
        out = world.parent / "out"
        out.mkdir()
        owner, third = cli._Lock(out).__enter__(), cli._Lock(out)
        flock, interleaved = fcntl.flock, []

        def owner_finishes_then_third_locks(fd, operation):  # between the opener's open and its flock
            if not interleaved:
                interleaved.append(fd)
                owner.__exit__(None, None, None)
                third.__enter__()
            return flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", owner_finishes_then_third_locks)
        with pytest.raises(LockError, match="another run owns"):
            cli._Lock(out).__enter__()
        with pytest.raises(OSError):
            os.fstat(interleaved[0])  # the opener closed its descriptor
        with pytest.raises(LockError, match="another run owns"):
            cli._Lock(out).__enter__()  # the third run still owns the directory
        third.__exit__(None, None, None)
        assert list(out.iterdir()) == []
        with cli._Lock(out):
            pass

    def test_exit_of_a_lock_deleted_by_hand_spares_the_new_lock_file(self, world):
        out = world.parent / "out"
        out.mkdir()
        first = cli._Lock(out).__enter__()
        (out / ".lock").unlink()
        second = cli._Lock(out).__enter__()  # locks a new file
        first.__exit__(None, None, None)
        assert (out / ".lock").exists()
        with pytest.raises(LockError, match="another run owns"):
            cli._Lock(out).__enter__()
        second.__exit__(None, None, None)
        assert list(out.iterdir()) == []

    def test_failed_open_of_lock_leaves_out_empty(self, world, capsys, monkeypatch):
        def disk_full(path, flags, *mode):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "open", disk_full)
            assert run_cli(world, "--stage", "ingest") == 1
        err = error_report(capsys)
        out = world.parent / "out"
        assert [p.name for p in out.iterdir()] == []
        assert err["type"] == "LockError" and "No space left" in err["message"]
        assert run_cli(world, "--stage", "ingest") == 0

    def test_unexpected_stage_exception_is_structured_report(self, world, capsys, monkeypatch):
        def boom(cfg, out):
            raise RuntimeError("disk on fire")

        pipeline = tuple(
            dataclasses.replace(s, run=boom) if s.name == "weights" else s for s in cli.PIPELINE
        )
        monkeypatch.setattr(cli, "PIPELINE", pipeline)
        assert run_cli(world, "--stage", "all") == 1
        err = error_report(capsys)
        assert (err["stage"], err["type"], err["message"]) == ("weights", "RuntimeError", "disk on fire")
        assert "boom" in err["traceback"]
        assert not (world.parent / "out" / ".lock").exists()

    def test_truncated_manifest_reruns_every_stage(self, world, capsys):
        out = world.parent / "out"
        assert run_cli(world, "--stage", "all") == 0
        clean = artifacts(out)
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:50])
        capsys.readouterr()
        assert run_cli(world, "--stage", "all") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert events[0]["event"] == "warning" and "manifest.json" in events[0]["message"]
        assert [e["stage"] for e in events if e["event"] == "stage_end"] == list(cli.STAGES)
        assert artifacts(out) == clean

    @pytest.mark.parametrize("unreadable", ["manifest", "input"],
                             ids=["manifest_is_a_directory", "input_permission_denied"])
    def test_unreadable_file_is_config_error(self, world, capsys, monkeypatch, unreadable):
        if unreadable == "manifest":
            path, reason = world.parent / "out" / "manifest.json", "Is a directory"
            path.mkdir(parents=True)
        else:  # root reads any file whatever its mode, so the error is injected
            path, reason, real_open = world.parent / "surveillance.csv", "Permission denied", builtins.open

            def denied(file, *args, **kwargs):
                if str(file) == str(path):
                    raise PermissionError(errno.EACCES, reason, str(file))
                return real_open(file, *args, **kwargs)

            monkeypatch.setattr(builtins, "open", denied)
        assert run_cli(world, "--stage", "ingest") == 1
        err = error_report(capsys)
        assert err["type"] == "ConfigError" and "traceback" not in err
        assert str(path) in err["message"] and reason in err["message"]

    def test_stale_upstream_is_dependency_error(self, world, capsys):
        assert run_cli(world, "--stage", "all") == 0
        edit_config(world, "panel", "n_weeks", 4)
        capsys.readouterr()
        assert run_cli(world, "--stage", "esda") == 1
        err = error_report(capsys)
        assert err["type"] == "DependencyError"
        assert err["stage"] == "esda"
        assert "'ingest'" in err["message"]

    @pytest.mark.parametrize(
        "section, key, value, args",
        [
            ("learn", "n_trees", 0, ()),
            ("learn", "max_depth", "3", ()),
            ("learn", "stratify", "false", ()),
            ("esda", "n_perm", 0, ()),
            ("learn", "test_fraction", 1.5, ()),
            ("weights", "kind", "bishop", ()),
            (None, "buffers_km", [3, 3.0000001], ()),  # both name population_within_3km.asc
            (None, None, None, ("--seed", "-1")),
            # keys the pipeline would not read: a misspelt key, a class no feature
            # column uses, a code that merges two classes, a raster no stage reads
            ("esda", "nperm", 9, ()),
            (None, "landcover_classes", {"water": 6}, ()),
            (None, "landcover_classes", {"crops": 1}, ()),
            ("paths", "rasters", {"elevation": "elevation.asc", "population": "population.asc",
                                  "landcover": "landcover.asc", "precipitation": "precipitation",
                                  "temperature": "temperature", "ndvi": "elevation.asc"}, ()),
        ],
    )
    def test_bad_config_value_is_config_error(self, world, capsys, section, key, value, args):
        if key is not None:
            edit_config(world, section, key, value)
        assert run_cli(world, "--stage", "all", *args) == 1
        err = error_report(capsys)
        assert err["type"] == "ConfigError"
        assert (key or "--seed") in err["message"]
        assert not (world.parent / "out" / "panel.csv").exists()

    @pytest.mark.parametrize("text", [b'{"disease": "\xff"}', b"[" * 100_000], ids=["not_utf8", "nested"])
    def test_unreadable_config_is_config_error(self, world, capsys, text):
        world.write_bytes(text)
        assert run_cli(world, "--stage", "all") == 1
        err = error_report(capsys)
        assert err["type"] == "ConfigError" and "traceback" not in err
        assert str(world) in err["message"]

    @pytest.mark.parametrize(
        "keys",
        [("surveillance_csv",), ("districts_geojson",), ("water_geojson",), ("wealth_points_csv",),
         ("rasters", "elevation"), ("rasters", "population"), ("rasters", "landcover")],
    )
    def test_directory_where_a_file_belongs_is_config_error(self, world, capsys, keys):
        doc = json.loads(world.read_text())
        node = doc["paths"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = "precipitation"
        world.write_text(json.dumps(doc))
        assert run_cli(world, "--stage", "all") == 1
        err = error_report(capsys)
        assert err["type"] == "ConfigError" and "is not a file" in err["message"]
        assert not (world.parent / "out" / "panel.csv").exists()

    @pytest.mark.parametrize(
        "config, output_dir",
        [(".", None), ("config.json/config.json", None), (None, "config.json"), (None, "config.json/out")],
        ids=["config_is_a_directory", "config_under_a_file", "output_dir_is_a_file", "output_dir_under_a_file"],
    )
    def test_unusable_start_up_path_is_config_error(self, world, capsys, config, output_dir):
        if output_dir is not None:
            edit_config(world, None, "output_dir", output_dir)
        path = world if config is None else world.parent / config
        assert run_cli(path, "--stage", "all") == 1
        err = error_report(capsys)
        assert err["type"] == "ConfigError" and "traceback" not in err
        assert str(path) in err["message"] if output_dir is None else "output_dir" in err["message"]

    def test_weekly_raster_directory_ignores_subdirectories(self, world, capsys):
        out = world.parent / "out"
        assert run_cli(world, "--stage", "all") == 0
        clean = artifacts(out)
        (world.parent / "precipitation" / "zz.asc").mkdir()
        assert run_cli(world, "--stage", "all", "--force") == 0
        assert artifacts(out) == clean

    def test_sidecar_in_a_weekly_raster_directory_changes_no_signature(self, world, capsys):
        assert run_cli(world, "--stage", "all") == 0
        (world.parent / "precipitation" / "week_001.asc.aux.xml").write_text("<PAMDataset/>\n")
        capsys.readouterr()
        assert run_cli(world, "--stage", "all") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(e["event"], e["stage"]) for e in events] == [("stage_skip", s) for s in cli.STAGES]

    def test_weekly_raster_directory_without_rasters_fails_before_any_stage(self, world, capsys):
        weekly = world.parent / "precipitation"
        for path in weekly.glob("*.asc"):
            path.unlink()
        (weekly / "week_001.asc.aux.xml").write_text("<PAMDataset/>\n")
        assert run_cli(world, "--stage", "all") == 1
        captured = capsys.readouterr()
        assert "stage_start" not in captured.out
        err = json.loads(captured.err)["error"]
        assert err["type"] == "ConfigError" and f"{weekly} holds no .asc rasters" in err["message"]
        assert list((world.parent / "out").glob("*")) == []

    def test_weekly_rasters_take_a_file_or_a_directory(self, world):
        doc = json.loads(world.read_text())
        doc["paths"]["rasters"]["precipitation"] = "precipitation/week_001.asc"
        world.write_text(json.dumps(doc))
        rasters = cli.load_config(world).rasters
        assert rasters["precipitation"].is_file() and rasters["temperature"].is_dir()

    def test_seed_override_triggers_rerun(self, world, capsys):
        assert run_cli(world, "--stage", "esda") == 1  # needs ingest first
        capsys.readouterr()
        for stage in ("ingest", "weights", "esda"):
            assert run_cli(world, "--stage", stage) == 0
        capsys.readouterr()
        assert run_cli(world, "--stage", "esda", "--seed", "99") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert any(e["event"] == "stage_start" for e in events)


def cut(data: bytes) -> bytes:
    return data[: len(data) // 2]


def not_utf8(data: bytes) -> bytes:
    return cut(data) + b"\xff" + data[len(data) // 2 :]


def first_row(edit):
    """Apply edit to the first data row of a CSV artifact; a file with no data
    row (the mini world has no island) gets the row "0" first."""

    def damage(data: bytes) -> bytes:
        header, _, rows = data.partition(b"\r\n")
        row, _, rest = (rows or b"0\r\n").partition(b"\r\n")
        return header + b"\r\n" + edit(row) + b"\r\n" + rest

    return damage


def model_doc(edit):
    def damage(data: bytes) -> bytes:
        doc = json.loads(data)
        edit(doc)
        return json.dumps(doc).encode()

    return damage


def first_tree(edit):
    return model_doc(lambda doc: edit(doc["trees"][0]))


CSV_DAMAGE = {
    "truncated": cut,
    # a one-field row without its field is blank and skipped, so it gets a second field
    "short_row": first_row(lambda row: row.rpartition(b",")[0] or row + b",0"),
    "non_numeric": first_row(lambda row: b"abc" + row.lstrip(b"0123456789")),
    "not_utf8": not_utf8,
    "past_int64": first_row(lambda row: b"".join(row.rpartition(b",")[:2]) + b"99999999999999999999"),
}
MODEL_DAMAGE = {
    "truncated": cut,
    "short_row": first_tree(lambda root: root.pop("threshold")),
    "non_numeric": first_tree(lambda root: root.update(threshold="abc")),
    "not_utf8": not_utf8,
    "past_int64": first_tree(lambda root: root.update(feature=99999999999999999999)),
}


def first_leaf(edit):
    def walk(node):
        if node.get("leaf"):
            edit(node)
        else:
            walk(node["left"])

    return first_tree(walk)


# model.json that decodes as JSON but holds what the trainer cannot write
MODEL_DECODE_DAMAGE = {
    "format_unknown": model_doc(lambda doc: doc.update(format="other-forest")),
    "version_2": model_doc(lambda doc: doc.update(version=2)),
    "scaler_kind_unknown": model_doc(lambda doc: doc["scaler"].update(kind="minmax")),
    "no_trees": model_doc(lambda doc: doc.update(trees=[], n_trees=0)),
    "fewer_trees_than_n_trees": model_doc(lambda doc: doc["trees"].pop()),
    "feature_99": first_tree(lambda root: root.update(feature=99)),
    "feature_negative": first_tree(lambda root: root.update(feature=-1)),
    "threshold_infinite": first_tree(lambda root: root.update(threshold=float("inf"))),
    "threshold_nan": first_tree(lambda root: root.update(threshold=float("nan"))),
    "child_a_list": first_tree(lambda root: root.update(left=[])),
    "leaf_p1_above_one": first_leaf(lambda leaf: leaf.update(p1=2.0)),
    "scaler_column_dropped": model_doc(lambda doc: doc["scaler"]["columns"].pop()),
    "scaler_column_extra": model_doc(lambda doc: doc["scaler"]["columns"].append(doc["scaler"]["columns"][0])),
    "scaler_median_text": model_doc(lambda doc: doc["scaler"]["columns"][0].update(median="0.5")),
    "scaler_q3_nan": model_doc(lambda doc: doc["scaler"]["columns"][0].update(q3=float("nan"))),
    "split_seed_negative": model_doc(lambda doc: doc["split"].update(seed=-1)),
    "split_test_fraction_text": model_doc(lambda doc: doc["split"].update(test_fraction="0.2")),
    "split_test_fraction_one": model_doc(lambda doc: doc["split"].update(test_fraction=1.0)),
    "split_stratify_text": model_doc(lambda doc: doc["split"].update(stratify="yes")),
}
READERS = {
    "panel.csv": "esda",
    "weights.csv": "esda",
    "islands.csv": "esda",
    "features.csv": "train",
    "model.json": "importance",
}


def vouch_for(out: Path, name: str) -> None:
    """Record the bytes `name` holds now as its writer stage's output digest."""
    manifest = out / "manifest.json"
    doc = json.loads(manifest.read_text())
    entry = next(e for e in doc["stages"].values() if name in e["outputs"])
    entry["outputs"][name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cut_at_row_end(data: bytes) -> bytes:
    """Drop the last data row: what is left is well-formed, only shorter."""
    return data.rsplit(b"\r\n", 2)[0] + b"\r\n"


class TestDamagedArtifacts:
    """A damaged artifact stops the stage that reads it with a report naming
    the file, never with a traceback. Each case runs in two arms: the damage
    alone, which the manifest does not vouch for, is a DependencyError; with
    the writer's recorded digest rewritten to match the damage, the reader's
    own checks must catch it."""

    @pytest.fixture(scope="class")
    def finished(self, mini_world, tmp_path_factory):
        world = tmp_path_factory.mktemp("finished") / "world"
        shutil.copytree(Path(mini_world).parent, world)
        assert run_cli(world / "config.json", "--stage", "all") == 0
        return world

    @pytest.fixture(params=[False, True], ids=["unvouched", "vouched"])
    def vouched(self, request):
        return request.param

    def damaged_run_report(self, finished, tmp_path, capsys, name, damage, vouched):
        """The error report of the stage reading `name` after `damage`."""
        world = tmp_path / "world"
        shutil.copytree(finished, world)
        path = world / "out" / name
        path.write_bytes(damage(path.read_bytes()))
        if vouched:
            vouch_for(world / "out", name)
        capsys.readouterr()
        assert run_cli(world / "config.json", "--stage", READERS[name]) == 1
        err = error_report(capsys)
        assert "traceback" not in err
        assert str(path) in err["message"]
        assert vouched or err["type"] == "DependencyError"
        return err

    @pytest.mark.parametrize("damage", sorted(CSV_DAMAGE))
    @pytest.mark.parametrize("name", sorted(READERS))
    def test_damaged_artifact_is_a_parse_error(self, finished, tmp_path, capsys, name, damage, vouched):
        edit = (MODEL_DAMAGE if name == "model.json" else CSV_DAMAGE)[damage]
        err = self.damaged_run_report(finished, tmp_path, capsys, name, edit, vouched)
        assert not vouched or err["type"] in ("ParseError", "SchemaMismatchError")

    @pytest.mark.parametrize("damage", sorted(MODEL_DECODE_DAMAGE))
    def test_model_the_trainer_cannot_write_is_a_parse_error(self, finished, tmp_path, capsys, damage, vouched):
        edit = MODEL_DECODE_DAMAGE[damage]
        err = self.damaged_run_report(finished, tmp_path, capsys, "model.json", edit, vouched)
        assert not vouched or err["type"] == "ParseError"

    def test_panel_missing_its_last_week_is_a_parse_error(self, finished, tmp_path, capsys):
        err = self.damaged_run_report(finished, tmp_path, capsys, "panel.csv", cut_at_row_end, vouched=True)
        assert err["type"] == "ParseError" and "expected weeks 1..8 of every district" in err["message"]

    @pytest.mark.parametrize("name", ["panel.csv", "features.csv"])
    def test_artifact_cut_at_a_row_boundary_is_a_dependency_error(self, finished, tmp_path, capsys, name):
        # nothing in features.csv says how many rows it should hold; only its digest does
        self.damaged_run_report(finished, tmp_path, capsys, name, cut_at_row_end, vouched=False)


class TestManifestTrust:
    def test_inputs_sharing_a_file_name_keep_their_own_keys(self, world, capsys):
        root = world.parent
        for role, folder in (("elevation", "dem"), ("population", "pop")):
            (root / folder).mkdir()
            (root / f"{role}.asc").rename(root / folder / "data.asc")
            edit_config(world, "paths", "rasters", {**json.loads(world.read_text())["paths"]["rasters"],
                                                    role: f"{folder}/data.asc"})
        assert run_cli(world, "--stage", "all") == 0
        out = root / "out"
        before = (out / "features.csv").read_bytes()
        elevation = ingest.parse_ascii_grid(root / "dem" / "data.asc")
        ingest.write_ascii_grid(dataclasses.replace(elevation, values=elevation.values + 100.0), root / "dem" / "data.asc")
        capsys.readouterr()
        assert run_cli(world, "--stage", "all") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert "features" in [e["stage"] for e in events if e["event"] == "stage_start"]
        assert (out / "features.csv").read_bytes() != before
        inputs = json.loads((out / "manifest.json").read_text())["stages"]["features"]["inputs"]
        assert {"dem/data.asc", "pop/data.asc"} <= set(inputs)

    @pytest.mark.parametrize("outputs", [["panel.csv"], {}], ids=["list", "empty"])
    def test_entry_without_output_digests_vouches_for_nothing(self, world, capsys, outputs):
        assert run_cli(world, "--stage", "all") == 0
        out = world.parent / "out"
        clean = artifacts(out)
        doc = json.loads(clean["manifest.json"])
        doc["stages"]["ingest"]["outputs"] = outputs
        (out / "manifest.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(world, "--stage", "all") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [e["stage"] for e in events if e["event"] == "stage_start"] == ["ingest"]
        assert artifacts(out) == clean
        (out / "manifest.json").write_text(json.dumps(doc))
        assert run_cli(world, "--stage", "esda") == 1
        err = error_report(capsys)
        assert err["type"] == "DependencyError" and str(out / "panel.csv") in err["message"]

    def test_missing_input_of_an_upstream_stage_is_a_dependency_error(self, world, capsys):
        assert run_cli(world, "--stage", "all") == 0
        panel = world.parent / "out" / "panel.csv"
        panel.unlink()
        capsys.readouterr()
        assert run_cli(world, "--stage", "train") == 1
        err = error_report(capsys)
        assert err["type"] == "DependencyError" and str(panel) in err["message"]

    def test_no_path_is_hashed_twice_in_one_run(self, world, capsys, monkeypatch):
        calls = []
        sha256 = cli._sha256

        def counting(path):
            calls.append(Path(path))
            return sha256(path)

        monkeypatch.setattr(cli, "_sha256", counting)
        for args in (("--force",), ()):  # a forced run on a fresh world, then a no-op run
            calls.clear()
            assert run_cli(world, "--stage", "all", *args) == 0
            hashed = collections.Counter(calls)
            assert hashed[world.parent / "districts.geojson"] == 1
            assert max(hashed.values()) == 1, hashed.most_common(3)
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [e["stage"] for e in events if e["event"] == "stage_skip"] == list(cli.STAGES)


class TestZoneIndexPerGrid:
    """The features stage assigns cells once per distinct grid geometry."""

    def run_features(self, world, monkeypatch, capsys):
        layouts = []
        assign_cells = raster.assign_cells

        def counting(grid, regions):
            layouts.append(grid.layout)
            return assign_cells(grid, regions)

        assert run_cli(world, "--stage", "ingest") == 0
        monkeypatch.setattr(raster, "assign_cells", counting)
        capsys.readouterr()
        assert run_cli(world, "--stage", "features") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        ties = [e for e in events if e["event"] == "warning" and "more than one region" in e["message"]]
        return layouts, ties

    def test_one_assignment_and_one_tie_warning_for_one_geometry(self, world, monkeypatch, capsys):
        # widen D01 half a degree into D02, so 50 cell centers lie in both
        districts = world.parent / "districts.geojson"
        doc = json.loads(districts.read_text())
        ring = doc["features"][0]["geometry"]["coordinates"][0]
        for point in ring:
            if point[0] == 31.0:
                point[0] = 31.5
        districts.write_text(json.dumps(doc))
        layouts, ties = self.run_features(world, monkeypatch, capsys)
        assert len(layouts) == 1  # 19 rasters, one grid geometry
        assert len(ties) == 1
        assert ties[0]["message"].startswith("50 cell centers")

    def test_one_assignment_per_distinct_geometry(self, world, monkeypatch, capsys):
        elevation = world.parent / "elevation.asc"
        fine = ingest.parse_ascii_grid(elevation)
        coarse = dataclasses.replace(
            fine, ncols=20, nrows=20, cellsize=fine.cellsize * 2, values=fine.values[::2, ::2]
        )
        ingest.write_ascii_grid(coarse, elevation)
        layouts, ties = self.run_features(world, monkeypatch, capsys)
        assert sorted(layouts) == sorted({fine.layout, coarse.layout})
        assert ties == []


class TestLisaExports:
    def build_fixture(self):
        regions = grid_regions(4, 4)
        w = geo.build_contiguity_weights(regions)
        x = np.zeros(16)
        # a high block in one corner: rows 2-3, cols 2-3
        for i in (10, 11, 14, 15):
            x[i] = 60.0
        result = esda.lisa(x, w, n_perm=999, seed=4, alpha=0.05)
        return regions, result

    def test_export_carries_hh(self, tmp_path):
        regions, result = self.build_fixture()
        path = tmp_path / "lisa.geojson"
        cli.export_lisa_geojson(regions, result, path)
        doc = json.loads(path.read_text())
        assert len(doc["features"]) == 16
        hh = [f["properties"]["adm_id"] for f in doc["features"] if f["properties"]["quadrant"] == "HH"]
        assert hh  # the planted block is recovered

    def test_export_length_mismatch_fatal(self, tmp_path):
        regions, result = self.build_fixture()
        from epigrid.errors import EngineError

        with pytest.raises(EngineError, match="regions"):
            cli.export_lisa_geojson(regions[:3], result, tmp_path / "x.geojson")

    def test_csv_export_schema(self, tmp_path):
        regions, result = self.build_fixture()
        path = tmp_path / "lisa.csv"
        cli.export_lisa_csv(regions, result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "adm_id,local_i,p_value,quadrant"
        assert len(lines) == 17


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "epigrid", "run", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "--stage" in proc.stdout


class TestEvents:
    def events(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_rows_rejected_lists_every_row(self, world, capsys):
        surveillance = world.parent / "surveillance.csv"
        n_lines = len(surveillance.read_text().splitlines())
        with open(surveillance, "a", encoding="utf-8") as fh:
            fh.write("2019,x,Atlantis,North,D01,Cholera,1,0\n")
            fh.write("2019,2,Atlantis,North,D01,Cholera,-4,0\n")
        assert run_cli(world, "--stage", "ingest") == 0
        [rejected] = [e for e in self.events(capsys) if e["event"] == "rows_rejected"]
        assert rejected["count"] == 2
        assert [r["line"] for r in rejected["rows"]] == [n_lines + 1, n_lines + 2]
        assert "non-integer" in rejected["rows"][0]["reason"]
        assert "outside [0" in rejected["rows"][1]["reason"]

    def test_every_warning_event_names_its_category(self, world, capsys):
        surveillance = world.parent / "surveillance.csv"
        first_row = surveillance.read_text().splitlines()[1]
        with open(surveillance, "a", encoding="utf-8") as fh:
            fh.write(first_row + "\n")  # a duplicate key
        out = world.parent / "out"
        assert run_cli(world, "--stage", "all") == 0
        (out / "manifest.json").write_text("{")
        assert run_cli(world, "--stage", "ingest") == 0
        warned = [e for e in self.events(capsys) if e["event"] == "warning"]
        assert any("duplicate" in e["message"] for e in warned)
        assert any("manifest.json" in e["message"] for e in warned)
        assert all(e["category"] == "EngineWarning" for e in warned)
        for path in out.iterdir():  # events go to stdout only
            assert b'"event"' not in path.read_bytes(), path.name

    def test_a_failed_stage_reports_the_warnings_it_raised(self, world, capsys):
        # move D01 (adm_id 101) 10 degrees east, off every raster: its zonal means
        # are nan, so the stage fails, and the warning that says why still shows
        districts = world.parent / "districts.geojson"
        doc = json.loads(districts.read_text())
        for point in doc["features"][0]["geometry"]["coordinates"][0]:
            point[0] += 10.0
        districts.write_text(json.dumps(doc))
        assert run_cli(world, "--stage", "ingest") == 0
        capsys.readouterr()
        assert run_cli(world, "--stage", "features") == 1
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.out.splitlines()]
        assert "no value for adm_id 101" in json.loads(captured.err)["error"]["message"]
        # one warning for the one grid geometry, not one per raster reduced on it
        warned = [(e["stage"], e["message"]) for e in events if e["event"] == "warning"]
        assert [w for w in warned if "cell centers" in w[1]] == [
            ("features", "region adm_id=101 covers no cell centers")
        ]


class TestWaterBuffers:
    @pytest.mark.parametrize("masked", [False, True])
    def test_population_near_water_once_for_the_feature_buffer(self, world, monkeypatch, masked):
        edit_config(world, None, "buffers_km", [3, 10])
        edit_config(world, None, "write_masked_raster", masked)
        near, masks = [], []
        population_near_water, water_buffer_mask = raster.population_near_water, raster.water_buffer_mask

        def counting_near(pop, water, buffer_km, index):
            near.append(buffer_km)
            return population_near_water(pop, water, buffer_km, index)

        def counting_mask(grid, water, buffer_km):
            masks.append(buffer_km)
            return water_buffer_mask(grid, water, buffer_km)

        assert run_cli(world, "--stage", "ingest") == 0
        monkeypatch.setattr(raster, "population_near_water", counting_near)
        monkeypatch.setattr(raster, "water_buffer_mask", counting_mask)
        assert run_cli(world, "--stage", "features") == 0
        # with masked rasters the feature is summed from the 3 km one
        assert near == ([] if masked else [3.0])
        assert masks == ([3.0, 10.0] if masked else [3.0])
        written = sorted(p.name for p in (world.parent / "out").glob("population_within_*"))
        assert written == (["population_within_10km.asc", "population_within_3km.asc"] if masked else [])

    @pytest.mark.parametrize("masked", [False, True])
    def test_empty_water_set_warns_once(self, world, capsys, masked):
        edit_config(world, None, "buffers_km", [3, 10])
        edit_config(world, None, "write_masked_raster", masked)
        (world.parent / "water.geojson").write_text('{"type": "FeatureCollection", "features": []}')
        assert run_cli(world, "--stage", "ingest") == 0
        capsys.readouterr()
        assert run_cli(world, "--stage", "features") == 0
        events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        warned = [e["message"] for e in events if e["event"] == "warning"]
        assert [m for m in warned if "water" in m] == ["empty water set: population near water is 0 everywhere"]
