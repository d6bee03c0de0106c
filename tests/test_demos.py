"""Every demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, timeout=120
    )


# Lines each demo must print, where one pins a published count or a verdict.
EXPECTED_LINES = {
    "04_token_arrangements": ["deployment GSF: 9248 content tokens, 1 separator"],
    "05_token_budgets": [
        "stage II at context 10000: worst-case image tokens 9792 + allowance 512 exceed "
        "context 10000",
        "a 10x10 video band is rejected: video_max_area too small for one patch",
    ],
}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_cleanly(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    lines = result.stdout.splitlines()
    assert [line for line in EXPECTED_LINES.get(path.stem, []) if line not in lines] == []
