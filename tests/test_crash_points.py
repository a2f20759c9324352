"""A run killed at a manifest write, or at a stage's first artifact write, does not wedge the
next one.

A child process runs the CLI with pathlib.Path.replace wrapped so that its
k-th call ends the process with os._exit, just before or just after the real
replace. Every file the pipeline writes, manifest.json included, goes through
one such replace. After each kill, an unforced re-run must exit 0, skip
exactly the stages that the manifest on disk records, and leave out/
byte-identical to a clean run, with no temp file.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from epigrid import cli

# argv: config path, the call to kill at (0: none), "before" or "after", a log of every replaced name
CHILD = """
import os, pathlib, sys
config, kill_at, when, log = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
real_replace, calls = pathlib.Path.replace, [0]

def replace(self, target):
    calls[0] += 1
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(pathlib.Path(target).name + "\\n")
    if calls[0] == kill_at and when == "before":
        os._exit(9)
    result = real_replace(self, target)
    if calls[0] == kill_at and when == "after":
        os._exit(9)
    return result

pathlib.Path.replace = replace
from epigrid import cli
sys.exit(cli.main(["run", "--config", config, "--force"]))
"""

def fresh_world(mini_world, dst: Path) -> Path:
    shutil.copytree(Path(mini_world).parent, dst)
    shutil.rmtree(dst / "out", ignore_errors=True)
    return dst / "config.json"


def run_child(config: Path, kill_at: int, when: str, log: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(config), str(kill_at), when, str(log)],
                          env=env, capture_output=True, text=True)
    return proc.returncode


def contents(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.fixture(scope="module")
def clean(mini_world, tmp_path_factory):
    """The out/ of an uninterrupted run, and the 1-based replace calls that wrote manifest.json."""
    base = tmp_path_factory.mktemp("clean")
    config = fresh_world(mini_world, base / "world")
    assert run_child(config, 0, "before", base / "replaced.log") == 0
    names = (base / "replaced.log").read_text(encoding="utf-8").split()
    return contents(config.parent / "out"), [k for k, name in enumerate(names, 1) if name == "manifest.json"]


def test_every_stage_writes_the_manifest_once(clean):
    _, manifest_writes = clean
    assert len(manifest_writes) == len(cli.STAGES)


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("write", range(len(cli.STAGES)))
def test_rerun_after_a_kill_at_a_manifest_write(mini_world, tmp_path, capsys, clean, write, when):
    clean_out, manifest_writes = clean
    config = fresh_world(mini_world, tmp_path / "world")
    out = config.parent / "out"
    assert run_child(config, manifest_writes[write], when, tmp_path / "replaced.log") == 9
    manifest = out / "manifest.json"
    recorded = set(json.loads(manifest.read_text())["stages"]) if manifest.exists() else set()
    assert len(recorded) == write + (when == "after")

    capsys.readouterr()
    assert cli.main(["run", "--config", str(config)]) == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {e["stage"] for e in events if e["event"] == "stage_skip"} == recorded
    assert {e["stage"] for e in events if e["event"] == "stage_start"} == set(cli.STAGES) - recorded
    assert contents(out) == clean_out
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("stage", range(len(cli.STAGES)))
def test_rerun_after_a_kill_at_a_stage_first_artifact(mini_world, tmp_path, capsys, clean, stage, when):
    """Killed before or after the stage's first file lands, the stage is unrecorded, so the re-run starts at it."""
    clean_out, manifest_writes = clean
    kill_at = [0, *manifest_writes][stage] + 1  # the first replace after the last stage recorded itself
    assert kill_at not in manifest_writes
    config = fresh_world(mini_world, tmp_path / "world")
    out = config.parent / "out"
    assert run_child(config, kill_at, when, tmp_path / "replaced.log") == 9
    manifest = out / "manifest.json"
    recorded = set(json.loads(manifest.read_text())["stages"]) if manifest.exists() else set()
    assert recorded == set(cli.STAGES[:stage])

    capsys.readouterr()
    assert cli.main(["run", "--config", str(config)]) == 0
    events = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [e["stage"] for e in events if e["event"] == "stage_start"] == list(cli.STAGES[stage:])
    assert contents(out) == clean_out
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
