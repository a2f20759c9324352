"""Measure the pipeline on a world of the paper's shape.

    python3 tools/paper_scale.py [--side 67]

Writes a side x side lattice of districts, 2 x 2 cells each, with 209 weeks of
surveillance and static rasters, through bench/world.make_world with seed 7 (at
the default side: 4,489 districts and 938,201 panel rows, about the paper's
4,506 x 209). It then runs this checkout's src/ on it: one forced `epigrid run
--stage all`, then each stage alone, forced. Each run is timed from spawn to
exit, and its peak RSS is the child's ru_maxrss from os.wait4. The seconds of
each stage within the full run are the time between the arrivals of its
stage_start and stage_end events. The last stdout line is one JSON object:

    {"side", "districts", "weeks", "rows",
     "all": {"s", "peak_mb", "stages": {stage: s}},
     "alone": {stage: {"s", "peak_mb"}}}

This process never imports numpy: a child's ru_maxrss starts from its
parent's resident size, so the world is written by a child of its own. At the
default side the tool takes about three minutes and up to 1 GB.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("ingest", "weights", "esda", "features", "train", "importance")
WEEKS = 209
SEED = 7
MAKE_WORLD = """
import sys
sys.path.insert(0, {bench!r})
from world import WorldSpec, make_world
make_world(WorldSpec({side}, 2, {weeks}, False, 0.0, 15, 999, 5), {root!r}, {seed})
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def timed_run(config: Path, stage: str) -> dict:
    """Seconds and peak RSS of one forced run of `stage`, plus the seconds of each stage it ran."""
    argv = [sys.executable, "-m", "epigrid", "run", "--config", str(config), "--stage", stage, "--force"]
    began, stages = {}, {}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=config.parent, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            for line in proc.stdout:
                event = json.loads(line)
                if event.get("event") == "stage_start":
                    began[event["stage"]] = time.perf_counter()
                elif event.get("event") == "stage_end":
                    stages[event["stage"]] = round(time.perf_counter() - began[event["stage"]], 3)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"--stage {stage} exited {os.waitstatus_to_exitcode(status)}: {stderr.strip()}")
    return {"s": round(wall, 3), "peak_mb": round(usage.ru_maxrss / 1024.0, 1), "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", type=int, default=67, help="districts along one side of the lattice")
    args = parser.parse_args(argv)
    if args.side < 2:
        parser.error("--side must be at least 2")
    with tempfile.TemporaryDirectory(prefix="paper_scale_") as tmp:
        code = MAKE_WORLD.format(bench=str(ROOT / "bench"), side=args.side, weeks=WEEKS, root=tmp, seed=SEED)
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True)
        config = Path(tmp) / "config.json"
        full = timed_run(config, "all")
        alone = {}
        for stage in STAGES:
            run = timed_run(config, stage)
            alone[stage] = {"s": run["s"], "peak_mb": run["peak_mb"]}
    districts = args.side * args.side
    print(json.dumps({"side": args.side, "districts": districts, "weeks": WEEKS, "rows": districts * WEEKS,
                      "all": full, "alone": alone}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
