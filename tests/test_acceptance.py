"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion. Tolerances and runtime bounds are asserted, not logged.
"""

import functools
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sftokens import (
    Arrangement,
    DEFAULT_VIDEO_CONFIG,
    AreaThresholds,
    DegenerateResize,
    PathwayConfig,
    Resolution,
    compute_scale,
    plan_resize,
    project_video,
    sample_frames,
    stage_two_defaults,
    stage_video_grid,
    synth_features,
    validate_stage,
    video_budget,
)
from sftokens import cli, selfcheck
from sftokens.geometry import PatchGrid
from sftokens.projector import SEPARATOR

DATA = Path(__file__).parent / "data"


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL  {name}")
                raise
            print(f"PASS  {name}")
            return result

        return run

    return wrap


@criterion("table4.cfg sweep: 7200/10800/14400/28800/2048/9248 -> 7K..9K")
def test_table4_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["sweep", "--config", "table4.cfg"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [int(r[4]) for r in rows] == [7200, 10800, 14400, 28800, 2048, 9248]
    assert [r[6] for r in rows] == ["7K", "10K", "14K", "28K", "2K", "9K"]
    assert elapsed < 1.0


@criterion("table5.cfg sweep: 28K/28K/2K/2K/9K")
def test_table5_reproduction(capsys):
    start = time.perf_counter()
    code = cli.main(["sweep", "--config", "table5.cfg"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [r[6] for r in rows] == ["28K", "28K", "2K", "2K", "9K"]
    assert [int(r[4]) for r in rows] == [28800, 28800, 2048, 2048, 9248]
    assert elapsed < 1.0


@criterion("stage II defaults validate clean and fit 16K with >=512 spare")
def test_stage2_consistency():
    stage = stage_two_defaults()
    assert stage.context_length == 16384
    assert stage.max_frames == 128
    assert stage.video_max_area == 480 * 480
    assert DEFAULT_VIDEO_CONFIG.n_slow == 32
    assert (DEFAULT_VIDEO_CONFIG.stride_h, DEFAULT_VIDEO_CONFIG.stride_w) == (2, 2)
    assert (DEFAULT_VIDEO_CONFIG.fast_rows, DEFAULT_VIDEO_CONFIG.fast_cols) == (4, 4)
    assert stage.patch == 16

    assert validate_stage(stage) == []
    report = video_budget(DEFAULT_VIDEO_CONFIG, stage_video_grid(stage), stage)
    assert report.fits_context
    assert stage.context_length - report.total_tokens >= 512


@criterion("resize property suite: 10,000 resolutions, zero violations")
def test_resize_property_suite():
    rng = np.random.default_rng(2024)
    bands = [AreaThresholds(288 * 288, 480 * 480), AreaThresholds(0, 1536 * 1536)]
    start = time.perf_counter()
    checked = 0
    for _ in range(10_000):
        res = Resolution(int(rng.integers(1, 4097)), int(rng.integers(1, 4097)))
        band = bands[int(rng.integers(len(bands)))]
        patch = int(rng.choice([8, 14, 16, 32]))
        try:
            plan = plan_resize(res, band, patch)
        except DegenerateResize:
            continue
        checked += 1
        th, tw = plan.target.height, plan.target.width
        # Outputs are always multiples of the patch size.
        assert th % patch == 0 and tw % patch == 0
        # Post-resize area never exceeds the cap once the shrink branch fires.
        if res.area > band.max_area:
            assert th * tw <= band.max_area
        # Aspect-ratio drift, measured relative to the source ratio.
        drift = abs((th / tw) / (res.height / res.width) - 1.0)
        assert drift <= patch * (1.0 / tw + 1.0 / th)
        # Re-planning an in-band target is the identity.
        if band.min_area <= th * tw <= band.max_area:
            assert compute_scale(plan.target, band) == 1.0
    elapsed = time.perf_counter() - start
    assert checked > 9000
    assert elapsed < 5.0


@criterion("oracle equivalence: 1,000 grids per kernel within 1e-6, affine 1e-9")
def test_oracle_equivalence():
    # CPU time of this process: the bound is on the work, not on the host's
    # other jobs.
    start = time.process_time()
    results = [
        selfcheck.check_kernel_oracle(name, seed=42, trials=1000)
        for name in ("avg_pool_strided", "avg_pool_adaptive", "bilinear_resample")
    ]
    results.append(selfcheck.check_bilinear_affine(seed=42, trials=1000))
    elapsed = time.process_time() - start
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
    assert elapsed < 10.0


@criterion("arrangement laws: 1,000 random configs, zero violations")
def test_arrangement_laws():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        stride_h = int(rng.integers(1, 4))
        stride_w = int(rng.integers(1, 4))
        rows = stride_h * int(rng.integers(1, 4))
        cols = stride_w * int(rng.integers(1, 4))
        n_total = int(rng.integers(1, 13))
        n_slow = int(rng.integers(0, n_total + 1))
        fast_rows = int(rng.integers(1, rows + 1))
        fast_cols = int(rng.integers(1, cols + 1))
        frames = [synth_features(i, PatchGrid(rows, cols), 1) for i in range(n_total)]

        gsf = PathwayConfig(n_total=n_total, n_slow=n_slow, stride_h=stride_h,
                            stride_w=stride_w, fast_rows=fast_rows, fast_cols=fast_cols)
        isf = replace(gsf, arrangement=Arrangement.ISF)
        slow_per_frame = (rows // stride_h) * (cols // stride_w)
        fast_per_frame = fast_rows * fast_cols

        seq_g = project_video(frames, gsf)
        assert len(seq_g) == n_slow * slow_per_frame + n_total * fast_per_frame + 1

        seq_i = project_video(frames, isf)
        assert len(seq_i) == (
            n_slow * slow_per_frame + (n_total - n_slow) * fast_per_frame + n_total
        )
        content_frames = [
            b.frame for b in seq_i.blocks for _ in range(b.rows * b.cols) if b != SEPARATOR
        ]
        assert sorted(set(content_frames)) == list(range(n_total))
        assert content_frames == sorted(content_frames)
        assert seq_g.content_count - seq_i.content_count == n_slow * fast_per_frame


@criterion("sampling contract: 1,000 random durations in (0, 1e4]")
def test_sampling_contract():
    rng = np.random.default_rng(555)
    for _ in range(1000):
        duration = float(rng.uniform(1e-4, 1e4))
        fps = float(rng.choice([0.25, 0.5, 1.0, 2.0, 24.0]))
        cap = int(rng.integers(1, 257))
        plan = sample_frames(duration, fps, cap)
        fps_count = math.ceil(duration * fps)
        assert len(plan.timestamps) == min(fps_count, cap)
        if fps_count > cap:
            assert plan.mode == "uniform-fallback"
            assert len(plan.timestamps) == cap
        else:
            assert plan.mode == "fps"
        ts = np.asarray(plan.timestamps)
        assert (ts >= 0.0).all() and (ts < duration).all()
        assert (np.diff(ts) > 0.0).all()


@criterion("determinism: seeded check byte-identical, golden layout byte-for-byte")
def test_determinism(tmp_path):
    cmd = [sys.executable, "-m", "sftokens", "check", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout and first.stdout

    out_file = tmp_path / "layout.txt"
    arrange = [
        sys.executable, "-m", "sftokens", "arrange",
        "--set", "n_total=2", "--set", "n_slow=1",
        "--set", "grid_rows=2", "--set", "grid_cols=2",
        "--set", "fast_rows=1", "--set", "fast_cols=1",
        "--out", str(out_file),
    ]
    subprocess.run(arrange, capture_output=True, check=True)
    assert out_file.read_bytes() == (DATA / "gsf_miniature_layout.txt").read_bytes()
