"""Built-in correctness checks: kernel-vs-oracle and golden sweep counts.

Backs the CLI ``check`` command. Every check is deterministic given the
seed; kernel implementations are looked up through ``DEFAULT_KERNELS`` at
call time so tests can inject a faulty kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import budget, config, kernels

GOLDEN_SWEEPS = {
    "table4.cfg": ([7200, 10800, 14400, 28800, 2048, 9248], ["7K", "10K", "14K", "28K", "2K", "9K"]),
    "table5.cfg": ([28800, 28800, 2048, 2048, 9248], ["28K", "28K", "2K", "2K", "9K"]),
}

DEFAULT_KERNELS: dict[str, Callable] = {
    "avg_pool_strided": kernels.avg_pool_strided,
    "avg_pool_adaptive": kernels.avg_pool_adaptive,
    "bilinear_resample": kernels.bilinear_resample,
}

ORACLE_TOLERANCE = 1e-6
AFFINE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_grid(rng: np.random.Generator, max_side: int = 64, max_channels: int = 8):
    rows = int(rng.integers(1, max_side + 1))
    cols = int(rng.integers(1, max_side + 1))
    channels = int(rng.integers(1, max_channels + 1))
    return kernels.FrameGrid(rng.uniform(-10.0, 10.0, size=(rows, cols, channels)))


def _random_strided_case(rng: np.random.Generator):
    stride_h = int(rng.integers(1, 5))
    stride_w = int(rng.integers(1, 5))
    rows = stride_h * int(rng.integers(1, 64 // stride_h + 1))
    cols = stride_w * int(rng.integers(1, 64 // stride_w + 1))
    channels = int(rng.integers(1, 9))
    grid = kernels.FrameGrid(rng.uniform(-10.0, 10.0, size=(rows, cols, channels)))
    return grid, (stride_h, stride_w)


def _random_adaptive_case(rng: np.random.Generator):
    grid = _random_grid(rng)
    out_rows = int(rng.integers(1, grid.rows + 1))
    out_cols = int(rng.integers(1, grid.cols + 1))
    return grid, (out_rows, out_cols)


def _random_bilinear_case(rng: np.random.Generator):
    grid = _random_grid(rng)
    out_rows = int(rng.integers(1, 65))
    out_cols = int(rng.integers(1, 65))
    return grid, (out_rows, out_cols)


_CASES = {
    "avg_pool_strided": (_random_strided_case, kernels.naive_avg_pool_strided),
    "avg_pool_adaptive": (_random_adaptive_case, kernels.naive_avg_pool_adaptive),
    "bilinear_resample": (_random_bilinear_case, kernels.naive_bilinear_resample),
}


def check_kernel_oracle(name: str, seed: int, trials: int) -> CheckResult:
    """Compare one kernel against its loop oracle on seeded random grids."""
    make_case, oracle = _CASES[name]
    fn = DEFAULT_KERNELS[name]
    rng = np.random.default_rng([seed, sum(name.encode())])
    worst = 0.0
    for trial in range(trials):
        grid, args = make_case(rng)
        got = fn(grid, *args)
        want = oracle(grid, *args)
        if got.shape != want.shape:
            return CheckResult(
                name,
                False,
                f"seed {seed} trial {trial}: shape {got.shape} != oracle {want.shape}",
            )
        err = float(np.max(np.abs(got.values - want.values)))
        worst = max(worst, err)
        if err > ORACLE_TOLERANCE:
            return CheckResult(
                name,
                False,
                f"seed {seed} trial {trial}: max abs error {err:.3e} exceeds {ORACLE_TOLERANCE:.0e}",
            )
    return CheckResult(name, True, f"{trials} grids, seed {seed}, worst abs error {worst:.3e}")


def _sample_positions(n_in: int, n_out: int) -> np.ndarray:
    # Align-corners sample points, restated independently of the kernel.
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out) * (n_in - 1) / (n_out - 1)


def check_bilinear_affine(seed: int, trials: int) -> CheckResult:
    """Bilinear resampling must reproduce affine fields at its sample points."""
    fn = DEFAULT_KERNELS["bilinear_resample"]
    rng = np.random.default_rng([seed, 0xAF])
    worst = 0.0
    for trial in range(trials):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        out_rows = int(rng.integers(1, 65))
        out_cols = int(rng.integers(1, 65))
        a, b, d = rng.uniform(-5.0, 5.0, size=3)
        r = np.arange(rows)[:, np.newaxis]
        c = np.arange(cols)[np.newaxis, :]
        grid = kernels.FrameGrid(a * r + b * c + d)
        got = fn(grid, out_rows, out_cols).values[:, :, 0]
        ys = _sample_positions(rows, out_rows)[:, np.newaxis]
        xs = _sample_positions(cols, out_cols)[np.newaxis, :]
        err = float(np.max(np.abs(got - (a * ys + b * xs + d))))
        worst = max(worst, err)
        if err > AFFINE_TOLERANCE:
            return CheckResult(
                "bilinear_affine",
                False,
                f"seed {seed} trial {trial}: max abs error {err:.3e} exceeds {AFFINE_TOLERANCE:.0e}",
            )
    return CheckResult(
        "bilinear_affine", True, f"{trials} fields, seed {seed}, worst abs error {worst:.3e}"
    )


def check_golden_sweep(name: str) -> CheckResult:
    """Recompute a bundled sweep and compare against its pinned golden column."""
    want_content, want_labels = GOLDEN_SWEEPS[name]
    doc = config.load_config(name)
    stage = config.stage_from_config(doc)
    configs, _ = config.sweep_configs(doc, config.pathway_from_config(doc, stage))
    reports = budget.sweep(configs, budget.stage_video_grid(stage), stage)
    got_content = [r.content_tokens for r in reports]
    got_labels = [r.rounded_label for r in reports]
    if got_content != want_content or got_labels != want_labels:
        return CheckResult(
            f"golden_{name}",
            False,
            f"got {got_content} {got_labels}, want {want_content} {want_labels}",
        )
    return CheckResult(f"golden_{name}", True, f"{len(reports)} rows match golden counts")


def run_checks(seed: int = 42, trials: int = 200) -> list[CheckResult]:
    """Run the full self-check suite; deterministic for a fixed seed."""
    results = [check_kernel_oracle(name, seed, trials) for name in _CASES]
    results.append(check_bilinear_affine(seed, trials))
    results.extend(check_golden_sweep(name) for name in GOLDEN_SWEEPS)
    return results
