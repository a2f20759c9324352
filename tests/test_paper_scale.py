"""tools/paper_scale.py at side 3: a 3 x 3 world of 209 weeks, measured in a few seconds."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paper_scale.py"
STAGES = ["ingest", "weights", "esda", "features", "train", "importance"]


def test_prints_each_stage_of_the_full_run_and_each_stage_alone():
    proc = subprocess.run([sys.executable, str(TOOL), "--side", "3"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert (doc["side"], doc["districts"], doc["weeks"], doc["rows"]) == (3, 9, 209, 1881)
    assert list(doc["all"]["stages"]) == STAGES and list(doc["alone"]) == STAGES
    for run in (doc["all"], *doc["alone"].values()):
        assert run["s"] > 0 and run["peak_mb"] > 0
