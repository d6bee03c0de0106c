"""Every demo script, and the README's examples, run against the current package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(*args: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
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
    result = run_python(str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout
    lines = result.stdout.splitlines()
    assert [line for line in EXPECTED_LINES.get(path.stem, []) if line not in lines] == []


def readme_blocks(lang: str) -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{lang}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


def test_readme_python_block_runs():
    (block,) = readme_blocks("python")
    result = run_python("-c", block)
    assert result.returncode == 0, result.stderr


def test_readme_sft_lines_exit_as_their_comments_say():
    lines = "".join(readme_blocks("bash")).replace("\\\n", "").splitlines()
    commands = [line for line in lines if line.startswith("sft ")]
    documented = [2 if "exits 2" in line else 0 for line in commands]
    got = [run_python("-m", "sftokens", *shlex.split(line, comments=True)[1:]).returncode
           for line in commands]
    assert got == documented == [0, 2, 2, 0, 0, 0, 0]
