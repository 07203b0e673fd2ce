"""Every demo runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def demo_env(extra_path=None):
    env = dict(os.environ)
    env.pop("TRACKMERGE_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if extra_path is not None:
        env["PATH"] = os.pathsep.join((str(extra_path), env.get("PATH", "")))
    return env


def check_run(argv, cwd, env):
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


PYTHON_DEMOS = [
    "01_masks_flow_and_formats.py",
    "02_scenarios_and_filtering.py",
    "03_merging_and_evaluation.py",
    "04_weight_search_and_ensembling.py",
]


@pytest.mark.parametrize("name", PYTHON_DEMOS)
def test_python_demo(name, tmp_path):
    check_run([sys.executable, str(DEMOS / name)], tmp_path, demo_env())


def test_command_line_demo(tmp_path):
    # no console script is installed when running from a checkout: put a
    # `trackmerge` on PATH that runs the CLI module with this interpreter
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "trackmerge"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m trackmerge.cli "$@"\n')
    shim.chmod(0o755)
    demo = DEMOS / "05_command_line_pipeline.sh"
    check_run(["sh", str(demo)], tmp_path, demo_env(bin_dir))
