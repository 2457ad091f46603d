"""Smoke test: the demo scripts run to completion against the package in
``src/``.  Demo 05 is left out: it writes into ``demos/output/``, and the
harness tests cover its code path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_auction_clearing.py",
    "02_action_graph.py",
    "03_weight_pushing_sampler.py",
    "04_estimators_and_feedback.py",
    "06_estimator_drift.py",
]


@pytest.mark.parametrize("script", DEMOS)
def test_demo_exits_0(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
