"""``repro metrics <model> --json`` pinned for every catalog model.

Each model runs in a fresh interpreter, because the lowering cache and
the manifest memo are process-wide: a warm cache would change the
``exec.lower_cache.*`` and ``build.store.*`` counts.  Only the wall-clock
fields of ``build.job_wall_ms`` vary between runs, so the pin keeps its
sample count and nothing else.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).with_name("metrics_golden.json")
ROOT = pathlib.Path(__file__).resolve().parents[2]
MODELS = ("checksum", "elevator", "microwave", "packetproc", "trafficlight")


def _metrics_json(model: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-m", "repro", "metrics", model, "--json"],
        capture_output=True, text=True, env=env, check=True, cwd=ROOT)
    snapshot = json.loads(out.stdout)
    wall = snapshot["histograms"]["build.job_wall_ms"]
    snapshot["histograms"]["build.job_wall_ms"] = {"count": wall["count"]}
    return snapshot


@pytest.mark.parametrize("model", MODELS)
def test_metrics_json_matches_golden(model):
    golden = json.loads(GOLDEN.read_text())
    assert _metrics_json(model) == golden[model]
