"""Ground-truth checks on the artifacts of one pipeline run.

    python bench/checks.py WORLD_DIR OUT_DIR

Every check compares an artifact with what the world generator knows
exactly; none of them imports epigrid.  check_outputs returns a list of
failure messages, empty when the run is correct.  Run as a script, it prints
{"failures": [...], "roc_auc": ...} as one JSON line.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from world import FEATURE_NAMES, World, load, queen_edge_count, queen_pairs

ARTIFACTS = (
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
)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def check_features(world: World, path: Path) -> list[str]:
    rows = _rows(path)
    header, body = rows[0], rows[1:]
    weeks = world.spec.weeks
    expected = world.n_districts * weeks
    if len(body) != expected:
        return [f"features.csv has {len(body)} rows, expected {expected}"]
    if any(len(r) != len(header) for r in body):
        return ["features.csv has rows of the wrong width"]
    col = {name: i for i, name in enumerate(header)}
    adm = np.array([int(r[col["adm_id"]]) for r in body])
    week = np.array([int(float(r[col["week"]])) for r in body])
    cases = np.array([int(r[col["cases"]]) for r in body])
    elevation = np.array([float(r[col["elevation"]]) for r in body])
    # adm_ids grow with region order, so rows run in region order, then week
    if not (np.array_equal(adm, np.repeat(world.adm_ids, weeks))
            and np.array_equal(week, np.tile(np.arange(1, weeks + 1), world.n_districts))):
        return ["features.csv rows are not ordered by adm_id, then week"]
    failures = []
    if not np.array_equal(cases, world.cases.reshape(-1)):
        bad = int(np.count_nonzero(cases != world.cases.reshape(-1)))
        failures.append(f"features.csv cases differ from the generated counts in {bad} rows")
    err = np.abs(elevation - np.repeat(world.elevation_mean, weeks))
    if not err.max() <= 1e-9:
        failures.append(f"features.csv elevation is off its block mean by up to {err.max():.3g}")
    return failures


def check_weights(world: World, edges_path: Path, islands_path: Path) -> list[str]:
    d = world.spec.districts_per_side
    body = _rows(edges_path)[1:]
    if len(body) != queen_edge_count(d):
        return [f"weights.csv has {len(body)} directed edges, expected {queen_edge_count(d)}"]
    pairs = {(int(r[0]), int(r[1])) for r in body}
    if pairs != queen_pairs(d):
        return ["weights.csv edges differ from the lattice's queen adjacency"]
    degree = np.bincount([i for i, _ in pairs], minlength=d * d)
    if any(abs(float(r[2]) - 1.0 / degree[int(r[0])]) > 1e-12 for r in body):
        return ["weights.csv weights are not row-standardized"]
    if len(_rows(islands_path)) != 1:
        return ["islands.csv lists islands on a connected lattice"]
    return []


def check_outputs(world: World, out: Path) -> list[str]:
    """All ground-truth checks on one run's output directory."""
    out = Path(out)
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    failures = []
    try:
        failures += check_features(world, out / "features.csv")
        failures += check_weights(world, out / "weights.csv", out / "islands.csv")
        moran = json.loads((out / "moran.json").read_text())
        if moran["n_permutations"] != world.spec.permutations or moran["n_used"] != world.n_districts:
            failures.append("moran.json permutations or regions differ from the config")
        ranking = json.loads((out / "importance.json").read_text())["ranking"]
        names = [entry["feature"] for entry in ranking]
        if sorted(names) != sorted(FEATURE_NAMES) or not all(
            math.isfinite(entry["importance"]) for entry in ranking
        ):
            failures.append(f"importance.json does not rank the 12 features: {names}")
        auc = roc_auc(out)
        if not 0.0 < auc <= 1.0:
            failures.append(f"metrics.json roc_auc {auc!r} is out of range")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        failures.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return failures


def roc_auc(out: Path) -> float:
    return float(json.loads((Path(out) / "metrics.json").read_text())["roc_auc"])


def main(argv=None) -> int:
    world_dir, out = argv if argv is not None else sys.argv[1:]
    failures = check_outputs(load(world_dir), Path(out))
    print(json.dumps({"failures": failures, "roc_auc": None if failures else roc_auc(out)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
