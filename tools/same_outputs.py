"""Check that a refactor leaves every pipeline artifact and event as it was.

    python3 tools/same_outputs.py REF

Exports REF's src/ with git archive into a temp directory and writes the
seed-7 weekly-rasters, long-panel and many-regions worlds with bench/world.py.
It makes four runs: one per world with the world's config.json, and one more
on weekly-rasters with a copy of that config that writes the masked population
rasters (`write_masked_raster: true`, `buffers_km: [3.0, 10.0]`). Each run is a
forced `epigrid run --stage all` with REF's source, then with the working
tree's, from the same directory, so that paths in the output are the same.
It prints every out/ file whose bytes differ (manifest.json included) and
every stdout line that differs, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (name, world, config keys set over the world's config.json)
RUNS = (
    ("weekly-rasters", "weekly-rasters", {}),
    ("long-panel", "long-panel", {}),
    ("many-regions", "many-regions", {}),
    ("weekly-rasters-masked", "weekly-rasters", {"write_masked_raster": True, "buffers_km": [3.0, 10.0]}),
)
SEED = 7


def export_src(ref: str, dest: Path) -> Path:
    """REF's src/ under dest, as git archive gives it."""
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", ref, "src"], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} src failed")
    return dest / "src"


def run_pipeline(src: Path, config: Path) -> tuple[dict[str, bytes], list[str]]:
    """The out/ files and stdout lines of a forced --stage all run with src on the path; out/ is removed after."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "epigrid", "run", "--config", str(config), "--stage", "all",
                           "--force"], cwd=config.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: the run on {config} exited {proc.returncode}: {proc.stderr.strip()}")
    out = config.parent / "out"
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out)
    return files, proc.stdout.splitlines()


def compare(run: str, ref: tuple, new: tuple) -> list[str]:
    """One line per out/ file or stdout line that differs between the two runs."""
    (ref_files, ref_lines), (new_files, new_lines) = ref, new
    problems = [f"{run}: out/{name} differs" for name in sorted(ref_files.keys() | new_files.keys())
                if ref_files.get(name) != new_files.get(name)]
    diff = list(difflib.unified_diff(ref_lines, new_lines, n=0, lineterm=""))[2:]  # past the --- and +++ lines
    problems += [f"{run}: {'REF' if line[0] == '-' else 'new'} stdout {line[1:]}" for line in diff
                 if not line.startswith("@@")]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git revision to compare the working tree's src/ against")
    args = parser.parse_args(argv)
    problems = []
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        ref_src = export_src(args.ref, Path(tmp) / "ref")
        for name, workload, overrides in RUNS:
            world = Path(tmp) / workload
            if not world.exists():
                subprocess.run([sys.executable, str(ROOT / "bench" / "world.py"), "--workload", workload,
                                "--seed", str(SEED), "--out", str(world)],
                               env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"), check=True)
            config = world / f"{name}.json"
            config.write_text(json.dumps({**json.loads((world / "config.json").read_text()), **overrides}))
            ref = run_pipeline(ref_src, config)
            new = run_pipeline(ROOT / "src", config)
            found = compare(name, ref, new)
            print(f"{name}: {len(ref[0])} out/ files, {len(ref[1])} stdout lines, "
                  + (f"{len(found)} differences" if found else "identical"))
            problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
