"""Tests of the benchmark's own code: generator, checker, tracer, metric map.

Run from the repository root:  python -m pytest -q bench/tests
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import world  # noqa: E402

TINY = world.WorldSpec(
    districts_per_side=4,
    cells_per_side=3,
    weeks=8,
    weekly_rasters=True,
    jitter=0.15,
    trees=3,
    permutations=19,
    importance_repeats=1,
)


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_for_a_seed(tmp_path):
    a = world.make_world(TINY, tmp_path / "a", seed=5)
    b = world.make_world(TINY, tmp_path / "b", seed=5)
    c = world.make_world(TINY, tmp_path / "c", seed=6)
    assert files(a.root) == files(b.root)
    assert np.array_equal(a.cases, b.cases)
    assert files(a.root) != files(c.root)


def test_fixed_width_tokens_parse_back_to_the_returned_values(tmp_path):
    k = np.array([[0, 5, 12345], [99999, 70, 1]])
    values = world.write_grid(tmp_path / "g.asc", k, 3, 2)
    lines = (tmp_path / "g.asc").read_text().splitlines()
    assert lines[0] == "ncols 3" and lines[1] == "nrows 2"
    parsed = np.array([[float(tok) for tok in line.split()] for line in lines[6:]])
    assert np.array_equal(parsed, values)
    assert lines[6] == "000.00 000.05 123.45"
    with pytest.raises(ValueError):
        world.fixed_width_tokens(np.array([[100000]]), 3, 2)


def test_generator_refuses_jitter_that_moves_cells(tmp_path):
    with pytest.raises(ValueError):
        world.make_world(replace(TINY, jitter=0.2), tmp_path, seed=1)


def test_queen_edge_count_matches_the_lattice():
    assert world.queen_edge_count(50) == 19404
    for d in (1, 2, 5):
        assert len(world.queen_pairs(d)) == world.queen_edge_count(d)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One real CLI run on a tiny world; returns (world, output directory)."""
    w = world.make_world(TINY, tmp_path_factory.mktemp("tiny"), seed=3)
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, "-m", "epigrid", "run", "--config", str(w.config)],
        check=True, env=env, stdout=subprocess.DEVNULL, cwd=REPO, timeout=120,
    )
    return w, w.root / "out"


def test_checker_accepts_a_correct_run(pipeline_run):
    w, out = pipeline_run
    assert checks.check_outputs(w, out) == []


def test_checker_flags_corrupted_features(pipeline_run, tmp_path):
    w, out = pipeline_run
    lines = (out / "features.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index("cases")] = str(int(row[header.index("cases")]) + 1)
    lines[5] = ",".join(row)
    bad = tmp_path / "features.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert checks.check_features(w, out / "features.csv") == []
    assert any("cases differ" in f for f in checks.check_features(w, bad))


def test_checker_flags_truncated_weights(pipeline_run, tmp_path):
    w, out = pipeline_run
    lines = (out / "weights.csv").read_text().splitlines()
    bad = tmp_path / "weights.csv"
    bad.write_text("\n".join(lines[:-3]) + "\n")
    failures = checks.check_weights(w, bad, out / "islands.csv")
    assert failures and "directed edges" in failures[0]


def test_digests_cover_every_artifact(pipeline_run):
    _, out = pipeline_run
    assert set(checks.ARTIFACTS) <= set(run.digests(out))


def test_checker_script_reports_failures_as_json(pipeline_run, tmp_path):
    w, out = pipeline_run
    done = subprocess.run(
        [sys.executable, str(BENCH / "checks.py"), str(w.root), str(out)],
        capture_output=True, check=True, timeout=60,
    )
    result = json.loads(done.stdout)
    assert result["failures"] == [] and 0 < result["roc_auc"] <= 1


def test_world_round_trips_through_truth_json(tmp_path):
    made = world.make_world(TINY, tmp_path, seed=2)
    loaded = world.load(tmp_path)
    assert loaded.spec == made.spec
    assert np.array_equal(loaded.cases, made.cases)
    assert np.array_equal(loaded.elevation_mean, made.elevation_mean)


def test_runner_process_stays_free_of_numpy():
    # children inherit the parent's peak RSS in ru_maxrss, so the runner stays small
    code = "import sys; sys.path.insert(0, sys.argv[1]); import run; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code, str(BENCH)], capture_output=True, check=True)
    assert done.stdout.strip() == b"False"


def test_self_times_subtract_child_spans():
    spans = [
        ["cli.run", 0.0, 10.0, -1],
        ["raster.zonal_mean", 1.0, 4.0, 0],
        ["raster.assign_cells", 2.0, 3.0, 1],
        ["raster.zonal_mean", 5.0, 6.5, 0],
        ["raster.assign_cells", 5.5, 6.0, 3],
    ]
    got = tracer.self_times(spans)
    assert got["cli.run"] == pytest.approx((10.0 - 3.0 - 1.5, 1))
    assert got["raster.zonal_mean"] == pytest.approx((2.0 + 1.0, 2))
    assert got["raster.assign_cells"] == pytest.approx((1.5, 2))


def test_recorder_links_parents_and_sums_counters():
    rec = tracer.Recorder()
    inner = rec.wrap("m.inner", lambda n: list(range(n)), {"m.items": lambda a, k, r: len(r)})
    outer = rec.wrap("m.outer", lambda: inner(3) + inner(n=2), {})
    assert outer() == [0, 1, 2, 0, 1]
    assert [(s[0], s[3]) for s in rec.spans] == [("m.outer", -1), ("m.inner", 0), ("m.inner", 0)]
    assert rec.counts["m.items"] == 5
    assert all(s[1] <= s[2] for s in rec.spans)


def test_benchmark_json_matches_the_metric_map():
    doc = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(world.WORKLOADS) == list(run.WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in doc["end_to_end"]] == list(run.END_TO_END.values())
    assert doc["per_layer"] == [m.to_benchmark() for m in layers.METRICS]
    assert doc["paths"] == ["bench"]
