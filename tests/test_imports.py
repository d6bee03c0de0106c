"""Import and process cost: planning runs without numpy; numpy-backed names and
stdlib modules that only some commands need load on use."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftokens
from sftokens import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_LAYOUT = ROOT / "tests" / "data" / "gsf_miniature_layout.txt"

PLANNING_COMMANDS = [
    ["plan"],
    ["plan", "--set", "n_slow=128", "--set", "arrangement=ISF"],
    ["plan", "--config", "table1_stage1.cfg", "--format", "text"],
    ["sweep", "--config", "table4.cfg"],
    ["sweep", "--config", "table5.cfg", "--format", "json"],
]
MINIATURE = [
    "arrange", "--set", "n_total=2", "--set", "n_slow=1", "--set", "grid_rows=2",
    "--set", "grid_cols=2", "--set", "fast_rows=1", "--set", "fast_cols=1",
]
ARRANGE_COMMANDS = [
    ["arrange"],
    ["arrange", "--set", "arrangement=ISF"],
    ["arrange", "--set", "n_slow=128", "--set", "arrangement=ISF"],
    ["arrange", "--set", "n_slow=0"],
    MINIATURE,
    ["arrange", "--set", "grid_rows=5", "--set", "grid_cols=5",
     "--set", "fast_rows=1", "--set", "fast_cols=1"],
]

# Runs each command through cli.main and prints [[exit code, stdout], ...].
# With "block", sys.modules["numpy"] = None makes every numpy import fail.
CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import sftokens
from sftokens.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def child_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p), "SFT_NO_COLOR": "1"}


def run_python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=child_env(), timeout=120
    )


def cli_results(mode: str, commands: list) -> list:
    done = run_python("-c", CHILD, mode, json.dumps(commands))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_planning_runs_with_numpy_absent():
    blocked = cli_results("block", PLANNING_COMMANDS)
    assert blocked == cli_results("normal", PLANNING_COMMANDS)
    assert [code for code, _ in blocked] == [0, 2, 0, 0, 0]
    assert json.loads(blocked[0][1])["content_tokens"] == 9248


def test_arrange_runs_with_numpy_absent():
    blocked = cli_results("block", ARRANGE_COMMANDS)
    assert blocked == cli_results("normal", ARRANGE_COMMANDS)
    assert [code for code, _ in blocked] == [0, 0, 0, 0, 0, 1]
    assert [len(out.splitlines()) for _, out in blocked[:4]] == [9249, 8864, 28928, 2049]
    assert blocked[4][1] == GOLDEN_LAYOUT.read_text()


def test_every_public_name_resolves():
    assert [name for name in sftokens.__all__ if not hasattr(sftokens, name)] == []


def test_star_import():
    namespace: dict = {}
    exec("from sftokens import *", namespace)
    assert set(sftokens.__all__) <= set(namespace)
    assert namespace["FrameGrid"] is sftokens.kernels.FrameGrid


def test_numpy_backed_submodules_resolve():
    assert sftokens.kernels.__name__ == "sftokens.kernels"
    assert sftokens.selfcheck.__name__ == "sftokens.selfcheck"


# Checks the numpy-backed names in a fresh process, where nothing has
# touched them yet; with "block", numpy cannot be imported.
FIRST_USE = """
import sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import sftokens
assert sys.modules.get("numpy") is None and "FrameGrid" not in vars(sftokens)
try:
    grid = sftokens.FrameGrid
except ImportError:
    assert sys.argv[1] == "block" and "FrameGrid" not in vars(sftokens)
else:
    assert vars(sftokens)["FrameGrid"] is grid is sftokens.kernels.FrameGrid
    assert "avg_pool_strided" not in vars(sftokens)
print("ok")
"""


@pytest.mark.parametrize("mode", ["normal", "block"])
def test_kernel_names_bound_on_first_use(mode):
    done = run_python("-c", FIRST_USE, mode)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sftokens.no_such_name  # noqa: B018


def test_arrange_and_check_in_a_fresh_process():
    arrange = run_python("-m", "sftokens", *MINIATURE)
    assert (arrange.returncode, arrange.stdout) == (0, GOLDEN_LAYOUT.read_text())
    check = run_python("-m", "sftokens", "check")
    assert check.returncode == 0, check.stdout


@pytest.mark.parametrize(
    "module, attr",
    [
        ("cli", "project_video"),
        ("projector", "run_slow_pathway"),
        ("projector", "run_fast_pathway"),
        ("projector", "arrange_gsf"),
        ("projector", "arrange_isf"),
        ("config", "load_config"),
        ("config", "stage_from_config"),
        ("config", "pathway_from_config"),
        ("config", "sweep_configs"),
    ],
)
def test_traced_names_stay_module_attributes(module, attr):
    # The benchmark's traced runs swap these attributes for recording wrappers.
    __import__(f"sftokens.{module}")
    assert callable(getattr(getattr(sftokens, module), attr))


# Imports the kernels and pools stacked C=4 frames in a fresh process, then
# builds one encoder-width grid, whose copy splits over two CPUs.
FIRST_SPLIT = """
import sys, threading
import numpy as np
import sftokens.kernels as kernels
from sftokens import DEFAULT_VIDEO_CONFIG, FrameGrid, project_video

def serial():
    return "concurrent.futures" not in sys.modules and threading.active_count() == 1

assert serial()
frames = [FrameGrid(np.full((30, 30, 4), float(i), np.float32)) for i in range(128)]
project_video(frames, DEFAULT_VIDEO_CONFIG)
assert serial()
kernels._cpus = lambda: 2
FrameGrid(np.ones((30, 30, 1024), np.float32))
assert not serial()
print("ok")
"""


def test_workers_start_at_the_first_split():
    done = run_python("-c", FIRST_SPLIT)
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


# Runs each command through cli.main without the site module (no .pth file
# preloads anything) and prints, after each, which watched modules are
# loaded; the collector's state must be as it was before the import.
LAZY_STDLIB = """
import contextlib, gc, io, json, sys
WATCHED = ("csv", "dataclasses", "importlib.resources", "inspect", "numbers", "pathlib", "typing")
state = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
from sftokens.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    loaded.append([name for name in WATCHED if name in sys.modules])
assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state
print(json.dumps(loaded))
"""


def test_commands_import_only_the_stdlib_they_use():
    commands = [["plan"], ["arrange"], ["sweep"], ["arrange", "--config", "table4.cfg"]]
    done = run_python("-S", "-c", LAZY_STDLIB, json.dumps(commands))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], [], ["csv"], ["csv", "pathlib"]]


# A bare import: the planning records are built without dataclasses, and the
# dataclasses functions load it only when first called on a record; nothing
# imports typing.
BARE_IMPORT = """
import sys
import sftokens
assert not {"dataclasses", "inspect", "typing"} & set(sys.modules), sys.modules
import dataclasses
grid = dataclasses.replace(sftokens.PatchGrid(2, 3), cols=4)
print(grid, [f.name for f in dataclasses.fields(grid)])
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    done = run_python("-S", "-c", BARE_IMPORT)
    assert (done.returncode, done.stdout) == (0, "PatchGrid(rows=2, cols=4) ['rows', 'cols']\n"), (
        done.stderr
    )


def test_main_leaves_the_collector_as_it_found_it(capsys):
    state = (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count())
    for argv in (["plan"], MINIATURE, ["sweep", "--config", "table4.cfg"]):
        assert cli.main(list(argv)) == 0
    capsys.readouterr()
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == state


# Runs cli.entry for the given arguments, printing on stderr the freeze
# count that main sees.
ENTRY = """
import gc, sys
from sftokens import cli
run = cli.main

def main(argv=None):
    print(gc.get_freeze_count(), file=sys.stderr)
    return run(argv)

cli.main = main
sys.argv = ["sft", *sys.argv[1:]]
cli.entry()
"""


def test_entry_freezes_before_main():
    done = run_python("-c", ENTRY, *MINIATURE)
    assert (done.returncode, done.stdout) == (0, GOLDEN_LAYOUT.read_text()), done.stderr
    assert int(done.stderr) > 0


# The benchmark's cli commands (bench/workloads.py, Cli.COMMANDS) and check.
# Under -X dev -W error a warning, at shutdown too, ends up on stderr.
PROCESS_COMMANDS = {
    "plan": (["plan"], ""),
    "plan-overflow": (["plan", "--set", "n_slow=128", "--set", "arrangement=ISF"],
                      "finding: video tokens 28928 + allowance 512 exceed context 16384\n"),
    "plan-stage1": (["plan", "--config", "table1_stage1.cfg", "--format", "text"], ""),
    "sweep-table4": (["sweep", "--config", "table4.cfg"], ""),
    "sweep-table5": (["sweep", "--config", "table5.cfg", "--format", "json"], ""),
    "arrange": (["arrange"], ""),
    "arrange-miniature": (MINIATURE, ""),
    "check": (["check"], ""),
}


@pytest.mark.parametrize("kind", PROCESS_COMMANDS)
def test_commands_run_clean_in_dev_mode(kind):
    argv, stderr = PROCESS_COMMANDS[kind]
    plain = run_python("-m", "sftokens", *argv)
    dev = run_python("-X", "dev", "-W", "error", "-m", "sftokens", *argv)
    assert (dev.returncode, dev.stdout) == (plain.returncode, plain.stdout)
    assert (plain.stderr, dev.stderr) == (stderr, stderr)


# Each benchmark command in a process of its own, without the site module:
# -X importtime names on stderr every module the process imports.
@pytest.mark.parametrize("kind", [kind for kind in PROCESS_COMMANDS if kind != "check"])
def test_benchmark_commands_load_neither_typing_nor_resources(kind):
    argv, stderr = PROCESS_COMMANDS[kind]
    done = run_python("-S", "-X", "importtime", "-m", "sftokens", *argv)
    lines = done.stderr.splitlines()
    imported = {line.rpartition("|")[2].strip() for line in lines if line.startswith("import time:")}
    assert (done.returncode, [line for line in lines if not line.startswith("import time:")]) == (
        2 if stderr else 0, stderr.splitlines()
    )
    assert "sftokens.cli" in imported and not {"typing", "importlib.resources"} & imported
