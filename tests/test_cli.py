"""CLI surface: commands, formats, exit codes, determinism."""

import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftokens import DEFAULT_VIDEO_CONFIG, StageConfig, cli, selfcheck, validate_stage
from sftokens.config import KNOWN_KEYS, PATHWAY_KEYS, STAGE_KEYS, load_config, sweep_configs
from sftokens.errors import ConfigError
from sftokens.kernels import FrameGrid

DATA = Path(__file__).parent / "data"
INTEGER_KEYS = sorted((STAGE_KEYS | PATHWAY_KEYS) - {"stage", "arrangement"})
PINNED_ERRORS = [
    ([f"{key}=1.5"], f"error: {key} must be an integer, got 1.5\n") for key in INTEGER_KEYS
] + [
    (["text_allowance=-1"], "error: text_allowance must be a non-negative integer, got -1\n"),
    (["stage=III"], "error: stage must be 'I' or 'II', got 'III'\n"),
    (["arrangement=gsf"], "error: arrangement must be 'GSF' or 'ISF', got 'gsf'\n"),
    # The default pathway is sized to max_frames, so a cap below 1 stops here.
    (["max_frames=0"], "error: max_frames must be at least 1, got 0\n"),
    (["max_frames=-5"], "error: max_frames must be at least 1, got -5\n"),
    # With two bad fields the record's first field is named.
    (["n_slow=1.5", "n_total=2.5"], "error: n_total must be an integer, got 2.5\n"),
]
# Each video band fault names the stage keys the user set.
VIDEO_BAND_ERRORS = [
    (["video_min_area=0", "video_max_area=100"],
     "error: video_max_area too small for one patch\n"),
    (["video_min_area=-1"], "error: video_min_area must be non-negative, got -1\n"),
    (["video_min_area=300000"],
     "error: video_min_area must be below video_max_area, got [300000, 230400]\n"),
]
# Each malformed stage fails where it is built, before any budget is planned.
STAGE_1 = ["--config", "table1_stage1.cfg"]
VIDEO_BAND = ["--set", "video_min_area=82944", "--set", "video_max_area=230400"]
THREE_FIELDS = "video_min_area, video_max_area and max_frames must be set together, got"
STAGE_RULE_ERRORS = [
    (["--set", "min_image_area=500", "--set", "max_image_area=400"],
     "min_image_area must be below max_image_area, got [500, 400]"),
    (["--set", "max_image_area=100"], "max_image_area too small for one patch"),
    (["--set", "max_frames=null"],
     f"{THREE_FIELDS} video_min_area=82944, video_max_area=230400, max_frames=None"),
    (["--set", "video_min_area=null", "--set", "video_max_area=null"],
     f"{THREE_FIELDS} video_min_area=None, video_max_area=None, max_frames=128"),
    ([*STAGE_1, "--set", "max_frames=64"], "stage I is image-only but sets max_frames"),
    ([*STAGE_1, *VIDEO_BAND], "stage I is image-only but sets video_min_area, video_max_area"),
    ([*STAGE_1, *VIDEO_BAND, "--set", "max_frames=128"],
     "stage I is image-only but sets video_min_area, video_max_area, max_frames"),
    (["--config", "table1_stage2.cfg", "--set", "stage=I"],
     "stage I is image-only but sets video_min_area, video_max_area, max_frames"),
    ([*STAGE_1, "--set", "min_image_area=-1"], "min_image_area must be non-negative, got -1"),
]
# Each finding of validate_stage makes plan exit 2 and shows on stderr, while
# the video budget on stdout still fits.
PLAN_FINDINGS = [
    (["context_length=10000"], "worst-case image tokens 9792 + allowance 512 exceed context 10000"),
    (["n_total=200"], "pathway wants 200 frames but the stage samples at most 128"),
    (["n_total=16", "n_slow=8", "fast_rows=15", "fast_cols=15"],
     "fast grid (225 tokens/frame) is not coarser than the pooled slow grid (225 tokens/frame)"),
]
NON_ROW_KEYS = sorted(KNOWN_KEYS - PATHWAY_KEYS - {"label"})
MALFORMED_GRIDS = [
    ("5", "sweep_grid must be a non-empty object of value lists"),
    ("{}", "sweep_grid must be a non-empty object of value lists"),
    ('{"n_slow":[]}', "sweep_grid.n_slow must be a non-empty list"),
    ('{"n_slow":4}', "sweep_grid.n_slow must be a non-empty list"),
    ('{"n_slow":[4],"text_allowance":[9000],"label":["x"]}',
     "sweep_grid keys must be pathway fields, got: label, text_allowance"),
]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_quiet(argv):
    """``run_cli`` without the capsys fixture, for use under hypothesis."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestPlan:
    def test_defaults_emit_published_budget(self, capsys):
        code, out, _ = run_cli(capsys, "plan")
        assert code == 0
        doc = json.loads(out)
        assert doc["content_tokens"] == 9248
        assert doc["total_tokens"] == 9249
        assert doc["fits_context"] is True

    def test_slow_only_overflows_with_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys, "plan", "--set", "n_slow=128", "--set", "arrangement=ISF"
        )
        assert (code, err) == (2, "finding: video tokens 28928 + allowance 512 exceed context 16384\n")
        assert json.loads(out)["fits_context"] is False

    @pytest.mark.parametrize("sets, finding", PLAN_FINDINGS,
                             ids=[",".join(s) for s, _ in PLAN_FINDINGS])
    def test_each_finding_exits_2_on_stderr(self, capsys, sets, finding):
        argv = [arg for item in sets for arg in ("--set", item)]
        code, out, err = run_cli(capsys, "plan", *argv)
        assert (code, err) == (2, f"finding: {finding}\n")
        assert json.loads(out)["fits_context"] is True

    @pytest.mark.parametrize("value, err", [
        ("a", "n_slow must be an integer, got 'a'"),
        ("999", "n_slow must be in [0, 128], got 999"),
    ])
    def test_image_only_stage_checks_the_pathway(self, capsys, value, err):
        # Stage I plans no video, but plan still builds and checks the base pathway.
        assert run_cli(capsys, "plan", *STAGE_1, "--set", f"n_slow={value}") == (
            1, "", f"error: {err}\n"
        )

    def test_missing_config_names_path(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--config", "/no/such/file.cfg")
        assert code == 1
        assert "/no/such/file.cfg" in err

    def test_bundled_stage2_config(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--config", "table1_stage2.cfg")
        assert code == 0
        assert json.loads(out)["content_tokens"] == 9248

    def test_image_only_stage_plans_image_budget(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--config", "table1_stage1.cfg")
        assert code == 0
        doc = json.loads(out)
        # Worst case at 1280^2: 80*80 high-res + 576 low-res tokens.
        assert doc["content_tokens"] == 6400 + 576
        assert doc["fits_context"] is True

    def test_worst_image_is_a_strip_not_a_square(self, capsys):
        # The largest patch-aligned square in 10^6 px^2, 992x992, has 3844
        # high-res tokens and would fit; a 16x62496 strip plans to
        # 10^6 // 16**2 = 3906, and does not.
        code, out, err = run_cli(
            capsys, "plan", "--config", "table1_stage1.cfg", "--set", "max_image_area=1000000",
            "--set", "context_length=4932", "--format", "text",
        )
        assert (code, err) == (
            2, "finding: worst-case image tokens 4482 + allowance 512 exceed context 4932\n"
        )
        assert out.splitlines() == [
            "slow tokens       3906",
            "fast tokens       576",
            "separators        0",
            "content tokens    4482 (4K)",
            "total tokens      4482",
            "text allowance    512",
            "context 4932:  overflow",
        ]

    def test_text_format_mentions_fit(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--format", "text")
        assert code == 0
        assert "fits" in out
        assert "\x1b[" not in out

    def test_unknown_key_rejected(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--set", "n_slowish=3")
        assert code == 1
        assert "n_slowish" in err

    @pytest.mark.parametrize("sets, err", PINNED_ERRORS, ids=[",".join(s) for s, _ in PINNED_ERRORS])
    def test_bad_value_exits_1_with_pinned_message(self, capsys, sets, err):
        argv = [arg for item in sets for arg in ("--set", item)]
        assert run_cli(capsys, "plan", *argv) == (1, "", err)

    @pytest.mark.parametrize("command", ["plan", "sweep", "arrange"])
    @pytest.mark.parametrize("sets, err", VIDEO_BAND_ERRORS,
                             ids=[",".join(s) for s, _ in VIDEO_BAND_ERRORS])
    def test_bad_video_band_names_its_keys(self, capsys, command, sets, err):
        argv = [arg for item in sets for arg in ("--set", item)]
        assert run_cli(capsys, command, *argv) == (1, "", err)

    def test_half_set_video_band_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "plan", "--config", "table1_stage2.cfg", "--set", "video_max_area=null"
        )
        assert (code, out) == (1, "")
        assert f"{THREE_FIELDS} video_min_area=82944, video_max_area=None, max_frames=128" in err

    @pytest.mark.parametrize("argv, err", STAGE_RULE_ERRORS,
                             ids=[" ".join(a) for a, _ in STAGE_RULE_ERRORS])
    def test_malformed_stage_exits_1_with_pinned_message(self, capsys, argv, err):
        assert run_cli(capsys, "plan", *argv) == (1, "", f"error: {err}\n")

    def test_image_only_stage_two_plans_image_budget(self, capsys):
        unset = [arg for key in ("video_min_area", "video_max_area", "max_frames")
                 for arg in ("--set", f"{key}=null")]
        code, out, err = run_cli(capsys, "plan", *unset)
        assert (code, err) == (0, "")
        # Worst case at 1536^2: 96*96 high-res + 576 low-res tokens.
        assert json.loads(out)["content_tokens"] == 9216 + 576

    def test_top_level_label_is_unknown(self, capsys):
        assert run_cli(capsys, "plan", "--set", "label=x") == (
            1, "", "error: unknown keys in config: label\n"
        )

    def test_default_pathway_sized_to_the_stage_frame_cap(self, capsys):
        # validate_stage sizes its default pathway to max_frames, and so does plan.
        code, out, _ = run_cli(capsys, "plan", "--set", "max_frames=64", "--format", "csv")
        assert (code, out.splitlines()[1]) == (0, "32,64,64,GSF,8224,1,8K,true")
        code, out, err = run_cli(capsys, "plan", "--set", "max_frames=16", "--set", "n_slow=32")
        assert (code, out, err) == (1, "", "error: n_slow must be in [0, 16], got 32\n")

    @pytest.mark.parametrize("text, err", [
        ('{"n_slow": ', "is not valid JSON: Expecting value: line 1 column 12 (char 11)\n"),
        ("[1]", "must hold a JSON object\n"),
    ])
    def test_config_file_must_hold_a_json_object(self, tmp_path, capsys, text, err):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, stderr = run_cli(capsys, "plan", "--config", str(cfg))
        assert (code, out, stderr) == (1, "", f"error: config file {cfg} {err}")

    def test_image_plan_has_no_csv_form(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--config", "table1_stage1.cfg", "--format", "csv"
        )
        assert code == 1
        assert "video" in err


class TestSweep:
    def test_table4_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--config", "table4.cfg")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        rounded = [line.split(",")[6] for line in lines[1:]]
        assert rounded == ["7K", "10K", "14K", "28K", "2K", "9K"]
        content = [int(line.split(",")[4]) for line in lines[1:]]
        assert content == [7200, 10800, 14400, 28800, 2048, 9248]

    def test_table5_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--config", "table5.cfg")
        assert code == 0
        rounded = [line.split(",")[6] for line in out.strip().split("\n")[1:]]
        assert rounded == ["28K", "28K", "2K", "2K", "9K"]

    def test_single_config_sweep_matches_plan(self, capsys):
        code, sweep_out, _ = run_cli(capsys, "sweep", "--format", "csv")
        assert code == 0
        code, plan_out, _ = run_cli(capsys, "plan", "--format", "csv")
        assert code == 0
        assert sweep_out == plan_out

    def test_json_rows_keep_order(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--config", "table4.cfg", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["content_tokens"] for r in rows] == [7200, 10800, 14400, 28800, 2048, 9248]
        assert rows[0]["label"] == "slow-only-32"

    def test_table5_text(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--config", "table5.cfg", "--format", "text")
        assert code == 0
        assert out.splitlines()[::4] == [
            "spatial-pooling-2x2        slow=128 fast=0   total=128 ISF  "
            "content=28800  (28K)  overflow",
            "slowfast-32-128            slow=32  fast=128 total=128 GSF  "
            "content=9248   ( 9K)  fits",
        ]

    def test_grid_sized_to_the_stage_frame_cap(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--set", "max_frames=64",
                               "--set", 'sweep_grid={"n_slow":[0,64]}')
        assert code == 0
        assert out.splitlines()[1:] == [
            "0,64,64,GSF,1024,1,1K,true",
            "64,64,64,GSF,15424,1,15K,true",
        ]

    @pytest.mark.parametrize("command, err", [
        ("sweep", "sweep needs a video-capable stage config"),
        ("arrange", "arrange needs grid_rows/grid_cols or a video-capable stage"),
    ])
    def test_image_only_stage_rejected(self, capsys, command, err):
        code, out, stderr = run_cli(capsys, command, "--config", "table1_stage1.cfg")
        assert (code, out, stderr) == (1, "", f"error: {err}\n")

    @pytest.mark.parametrize("command", ["plan", "sweep", "arrange"])
    def test_both_sweep_forms_rejected(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--set", 'sweep=[{"n_slow":0}]',
                                 "--set", 'sweep_grid={"n_slow":[32,64]}')
        assert (code, out, err) == (1, "", "error: sweep and sweep_grid must not be set together\n")

    def test_sweep_grid_expansion(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(json.dumps({"sweep_grid": {"n_slow": [0, 32, 64]}}))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["0", "32", "64"]

    def test_malformed_grid_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(json.dumps({"sweep_grid": {"n_slow": []}}))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 1
        assert "n_slow" in err

    @pytest.mark.parametrize("command", ["plan", "sweep", "arrange"])
    @pytest.mark.parametrize("value", ["5", '"rows"', "true", "null", '{"n_slow":0}', "[]"])
    def test_non_list_sweep_rejected(self, capsys, command, value):
        code, out, err = run_cli(capsys, command, "--set", f"sweep={value}")
        assert (code, out) == (1, "")
        assert err == "error: sweep must be a non-empty list of objects\n"

    @pytest.mark.parametrize("command", ["plan", "sweep", "arrange"])
    def test_non_object_row_rejected(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--set", 'sweep=[{"n_slow":0},5]')
        assert (code, out, err) == (1, "", "error: sweep row 1 must be an object\n")

    @pytest.mark.parametrize("command", ["plan", "sweep"])
    @pytest.mark.parametrize("key", NON_ROW_KEYS)
    def test_row_with_non_pathway_key_rejected(self, capsys, command, key):
        # A row setting text_allowance, context_length or grid_rows used to
        # be swept with that key silently dropped.
        row = json.dumps([{"n_slow": 0}, {"n_slow": 32, key: 9000}])
        code, out, err = run_cli(capsys, command, "--config", "table4.cfg", "--set", f"sweep={row}")
        assert (code, out) == (1, "")
        assert err == f"error: sweep row 1 keys must be pathway fields or label, got: {key}\n"

    @pytest.mark.parametrize("command", ["plan", "sweep", "arrange"])
    @pytest.mark.parametrize("value, message", MALFORMED_GRIDS, ids=[v for v, _ in MALFORMED_GRIDS])
    def test_malformed_sweep_grid_rejected_by_every_command(self, capsys, command, value, message):
        code, out, err = run_cli(capsys, command, "--set", f"sweep_grid={value}")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_row_values_checked_by_every_command(self, capsys):
        # plan and arrange used to ignore row values and exit 0.
        error = (1, "", "error: n_slow must be an integer, got 'a'\n")
        for sweep in ('sweep=[{"n_slow":"a"}]', 'sweep_grid={"n_slow":[0,"a"]}'):
            for command in ("plan", "sweep", "arrange"):
                assert run_cli(capsys, command, "--set", sweep) == error
        # Rows are built before sweep asks for a video stage.
        image_stage = [*STAGE_1, "--set", 'sweep=[{"n_slow":"a"}]']
        for command in ("plan", "sweep", "arrange"):
            assert run_cli(capsys, command, *image_stage) == error
        assert run_cli(capsys, "plan", "--set", 'sweep=[{"n_slow":999}]') == (
            1, "", "error: n_slow must be in [0, 128], got 999\n"
        )
        # Rows that build leave plan and arrange to the base pathway.
        for command in ("plan", "arrange"):
            good = run_cli(capsys, command, "--set", 'sweep=[{"n_slow":0}]')
            assert good == run_cli(capsys, command)

    def test_non_list_sweep_in_a_file_exits_without_traceback(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(json.dumps({"sweep": 5}))
        done = subprocess.run(
            [sys.executable, "-m", "sftokens", "sweep", "--config", str(cfg)],
            capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: sweep must be a non-empty list of objects\n"


class TestArrange:
    MINI = ("--set", "n_total=2", "--set", "n_slow=1", "--set", "grid_rows=2",
            "--set", "grid_cols=2", "--set", "fast_rows=1", "--set", "fast_cols=1")

    def test_gsf_miniature_matches_golden(self, capsys):
        code, out, _ = run_cli(capsys, "arrange", *self.MINI)
        assert code == 0
        assert out == (DATA / "gsf_miniature_layout.txt").read_text()

    def test_isf_miniature(self, capsys):
        code, out, _ = run_cli(capsys, "arrange", *self.MINI, "--set", "arrangement=ISF")
        assert code == 0
        assert out.splitlines() == [
            "TOK slow 0 0 0",
            "SEP - - - -",
            "TOK fast 1 0 0",
            "SEP - - - -",
        ]

    def test_gsf_without_slow_starts_with_separator(self, capsys):
        code, out, _ = run_cli(capsys, "arrange", *self.MINI, "--set", "n_slow=0")
        assert code == 0
        assert out.splitlines()[0] == "SEP - - - -"

    def test_default_grid_comes_from_stage(self, capsys):
        code, out, _ = run_cli(capsys, "arrange", "--set", "n_total=1", "--set", "n_slow=1")
        assert code == 0
        lines = out.strip().split("\n")
        # One frame on the 30x30 stage grid: 225 slow + 1 sep + 16 fast.
        assert len(lines) == 242

    def test_grid_dims_must_come_together(self, capsys):
        code, _, err = run_cli(capsys, "arrange", "--set", "grid_rows=4")
        assert code == 1
        assert "grid_cols" in err

    def test_indivisible_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "arrange", "--set", "grid_rows=5", "--set", "grid_cols=5",
            "--set", "fast_rows=1", "--set", "fast_cols=1",
        )
        assert code == 1
        assert "stride" in err.lower()

    def test_oversized_fast_grid_rejected(self, capsys):
        code, out, err = run_cli(capsys, "arrange", "--set", "fast_rows=31")
        assert (code, out) == (1, "")
        assert err == "error: fast grid 31x4 exceeds frame grid 30x30\n"

    @pytest.mark.parametrize("command", ["plan", "sweep", "arrange"])
    def test_channels_key_rejected(self, capsys, command):
        # No command reads a channels key, so every command rejects it.
        for value in ("7", "0"):
            code, out, err = run_cli(capsys, command, *self.MINI, "--set", f"channels={value}")
            assert (code, out, err) == (1, "", "error: unknown keys in config: channels\n")

    @pytest.mark.parametrize("key", ["grid_rows", "grid_cols", "channels"])
    @pytest.mark.parametrize("value, shown", [("1.5", "1.5"), ("true", "True"), ('"x"', "'x'")])
    def test_non_integer_grid_or_channels_pinned(self, capsys, key, value, shown):
        code, out, err = run_cli(capsys, "arrange", *self.MINI, "--set", f"{key}={value}")
        if key == "channels":
            want = "error: unknown keys in config: channels\n"
        else:
            want = f"error: {key} must be an integer, got {shown}\n"
        assert (code, out, err) == (1, "", want)


class TestCheck:
    def test_fresh_build_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        assert all(line.startswith("ok") for line in lines)

    def test_perturbed_kernel_fails_with_exit_3(self, capsys, monkeypatch):
        def skewed(grid, stride_h, stride_w):
            out = selfcheck.kernels.avg_pool_strided(grid, stride_h, stride_w)
            return FrameGrid(out.values + 1e-3)

        monkeypatch.setitem(selfcheck.DEFAULT_KERNELS, "avg_pool_strided", skewed)
        code, out, _ = run_cli(capsys, "check", "--seed", "42")
        assert code == 3
        fail_lines = [l for l in out.splitlines() if l.startswith("FAIL")]
        assert fail_lines and "avg_pool_strided" in fail_lines[0]
        assert "seed 42" in fail_lines[0]

    def test_seeded_runs_are_byte_identical(self):
        # The golden file holds the output every run and every change must give.
        cmd = [sys.executable, "-m", "sftokens", "check", "--seed", "42"]
        done = subprocess.run(cmd, capture_output=True, check=True)
        assert done.stdout == (DATA / "check_seed42.txt").read_bytes()

    def test_different_seeds_still_pass(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--seed", "7")
        assert code == 0

    def test_negative_seed_names_the_option(self, capsys):
        assert run_cli(capsys, "check", "--seed", "-1") == (
            1, "", "error: argument --seed: must be non-negative, got -1\n"
        )


class TestPlumbing:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "plan", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["content_tokens"] == 9248

    def test_no_command_prints_help(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "plan" in err

    def test_bad_flag_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "plan", "--format", "yaml")
        assert code == 1

    def test_each_command_registers_only_the_options_it_reads(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
            for name, sub in commands.choices.items()
        }
        config = {"--config", "--set"}
        assert options == {
            "plan": config | {"--format", "--out"},
            "sweep": config | {"--format", "--out"},
            "arrange": config | {"--out"},
            "check": {"--seed", "--out"},
        }

    @pytest.mark.parametrize("argv", [
        ["plan", "--seed", "1"],
        ["sweep", "--seed", "1"],
        ["arrange", "--seed", "1"],
        ["arrange", "--format", "json"],
        ["check", "--format", "json"],
        ["check", "--config", "table4.cfg"],
        ["check", "--set", "n_slow=0"],
    ], ids=" ".join)
    def test_an_option_the_command_does_not_read_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: unrecognized arguments: {' '.join(argv[1:])}\n")

    @pytest.mark.parametrize("command, key", [
        ("plan", "grid_rows"),
        ("sweep", "grid_rows"),
        ("arrange", "context_length"),
        ("arrange", "text_allowance"),
    ])
    def test_a_set_key_the_command_does_not_read_exits_1(self, tmp_path, capsys, command, key):
        # These exited 0 and ignored the key. A config file is shared by every
        # command, so the same key in a file is still accepted.
        assert run_cli(capsys, command, "--set", f"{key}=7") == (
            1, "", f"error: {command} does not read {key}\n"
        )
        cfg = tmp_path / "shared.cfg"
        cfg.write_text(json.dumps({key: 7}))
        assert run_cli(capsys, command, "--config", str(cfg)) == run_cli(capsys, command)

    def test_overrides_parse_json_scalars(self):
        doc = load_config(None, ["n_slow=16", "arrangement=ISF"])
        assert doc["n_slow"] == 16
        assert doc["arrangement"] == "ISF"

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            load_config(None, ["n_slow"])

    @pytest.mark.parametrize("where", ["override", "sweep", "file"])
    def test_an_int_past_the_digit_limit_is_a_config_error(self, tmp_path, capsys, where):
        digits = "1" * (sys.get_int_max_str_digits() + 700)
        with pytest.raises(ValueError) as limit:
            int(digits)
        cfg = tmp_path / "big.cfg"
        cfg.write_text(f'{{"context_length": {digits}}}')
        path, overrides, named = {
            "override": (None, [f"context_length={digits}"], "override context_length"),
            "sweep": (None, [f'sweep=[{{"n_total": {digits}}}]'], "override sweep"),
            "file": (str(cfg), [], f"config file {cfg}"),
        }[where]
        with pytest.raises(ConfigError, match="digits"):
            load_config(path, overrides)
        argv = ["--config", path] if path else ["--set", overrides[0]]
        assert run_cli(capsys, "plan", *argv) == (1, "", f"error: {named}: {limit.value}\n")

    @pytest.mark.parametrize("where", ["override", "file"])
    def test_json_nested_past_the_recursion_limit_is_a_config_error(self, tmp_path, capsys, where):
        deep = "[" * 100_000
        with pytest.raises(RecursionError) as limit:
            json.loads(deep)
        cfg = tmp_path / "deep.cfg"
        cfg.write_text(f'{{"sweep": {deep}}}')
        argv, named = {
            "override": (["--set", f"sweep={deep}"], "override sweep"),
            "file": (["--config", str(cfg)], f"config file {cfg}"),
        }[where]
        assert run_cli(capsys, "plan", *argv) == (1, "", f"error: {named}: {limit.value}\n")

    def test_sweep_labels_default_to_row_index(self):
        doc = {"sweep": [{"n_slow": 0}, {"n_slow": 32}]}
        _, labels = sweep_configs(doc, DEFAULT_VIDEO_CONFIG)
        assert labels == ["row0", "row1"]


AREAS = st.integers(-2, 4_000_000)
DRAWN = ("stage", "context_length", "min_image_area", "max_image_area", "video_min_area",
         "video_max_area", "max_frames", "patch")


@st.composite
def stage_fields(draw):
    """Both stages, each band as a low bound and a width that may be negative, and
    each video field unset in a quarter of the draws, independently."""
    fields = {"stage": draw(st.sampled_from(["I", "II"])),
              "context_length": draw(st.integers(0, 40_000))}
    for low, high in (("min_image_area", "max_image_area"), ("video_min_area", "video_max_area")):
        fields[low] = draw(AREAS)
        fields[high] = fields[low] + draw(AREAS)
    fields["max_frames"] = draw(st.integers(-1, 300))
    for key in ("video_min_area", "video_max_area", "max_frames"):
        if draw(st.sampled_from([False, False, False, True])):
            fields[key] = None
    fields["patch"] = draw(st.sampled_from([14, 16, 32]))
    return fields


def drawn(*values):
    return dict(zip(DRAWN, values))


class TestStageRule:
    """A stage either fails where it is built or ``sft plan`` agrees with ``validate_stage``."""

    @settings(max_examples=500, deadline=None)
    @given(stage_fields())
    @example(drawn("II", 16384, 0, 1536 ** 2, 82944, 230400, 128, 16))  # the stage II defaults
    @example(drawn("I", 8192, 0, 1280 ** 2, None, None, None, 16))  # the stage I defaults
    @example(drawn("II", 16384, 0, 1536 ** 2, 0, (31 * 16) ** 2, 128, 16))  # odd 31x31 grid
    @example(drawn("II", 9000, 0, 1536 ** 2, 82944, 230400, 128, 16))  # video overflow
    @example(drawn("II", 10000, 0, 1536 ** 2, 82944, 230400, 128, 16))  # only the image overflows
    @example(drawn("II", 16384, 0, 1536 ** 2, None, None, None, 16))  # image-only stage II
    @example(drawn("II", 16384, 0, 1536 ** 2, 0, 16 ** 2, 4, 16))  # 1x1 grid under a 4x4 fast grid
    @example(drawn("II", 16384, 0, 16 ** 2 - 1, 82944, 230400, 128, 16))  # image cap under a patch
    @example(drawn("I", 16384, -1, 400, None, None, None, 16))  # negative image bound
    def test_plan_agrees_with_validate_stage(self, fields):
        fields = {**fields, "base_image_side": 448}  # a multiple of every drawn patch
        argv = ["plan"] + [arg for key, value in fields.items()
                           for arg in ("--set", f"{key}={json.dumps(value)}")]
        code, out, err = run_cli_quiet(argv)
        try:
            stage = StageConfig(**fields)
        except ValueError as exc:
            assert str(exc).split()[0].rstrip(",") in STAGE_KEYS
            assert (code, out, err) == (1, "", f"error: {exc}\n")
            return

        try:
            findings = validate_stage(stage)
        except ValueError as exc:
            assert (code, out, err) == (1, "", f"error: {exc}\n")
            return
        assert (code, err) == (2 if findings else 0, "".join(f"finding: {f}\n" for f in findings))
