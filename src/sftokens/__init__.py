"""Two-rate video token planning.

Plans how a video or image becomes visual tokens: fixed-rate frame
sampling with a uniform fallback, patch-aligned native-resolution resizes,
slow/fast pooling of per-frame feature grids, token arrangement with
separators, and context-window budget reports.

Planning needs neither numpy nor ``dataclasses``: ``geometry``, ``budget``,
``config``, the block layout (``plan_layout``) and ``sft plan``/``sweep``/
``arrange`` import neither. Only the kernels, ``synth_features``,
``selfcheck``, the pathways' pooling and ``sft check`` load numpy, on first
use; the records' ``dataclasses`` API loads that module on first call.
"""

import importlib

from .budget import (
    DEFAULT_TEXT_ALLOWANCE,
    BudgetReport,
    StageConfig,
    default_pathway_for_stage,
    image_budget,
    stage_one_defaults,
    stage_two_defaults,
    stage_video_grid,
    sweep,
    sweep_csv,
    validate_stage,
    video_budget,
)
from .errors import (
    ConfigError,
    DegenerateResize,
    InvalidCount,
    InvalidDuration,
    InvalidOutputShape,
    NonDivisibleStride,
)
from .geometry import (
    AreaThresholds,
    PatchGrid,
    Resolution,
    ResizePlan,
    SamplingPlan,
    compute_scale,
    patch_grid,
    plan_resize,
    sample_frames,
)
from .projector import (
    DEFAULT_VIDEO_CONFIG,
    Arrangement,
    PathwayConfig,
    TokenBlock,
    TokenSequence,
    arrange_gsf,
    arrange_isf,
    fast_frame_indices,
    plan_layout,
    project_video,
    run_fast_pathway,
    run_slow_pathway,
    select_slow_frames,
)

__version__ = "0.1.0"

_KERNEL_NAMES = {
    "FrameGrid", "avg_pool_adaptive", "avg_pool_strided", "bilinear_resample",
    "naive_avg_pool_adaptive", "naive_avg_pool_strided", "naive_bilinear_resample",
    "synth_features",
}


def __getattr__(name: str):
    # PEP 562: reached only for names not bound yet, so numpy loads on first
    # use. A kernel name is then bound here, so later lookups skip this hook.
    if name in ("kernels", "selfcheck"):
        return importlib.import_module(f".{name}", __name__)
    if name in _KERNEL_NAMES:
        value = globals()[name] = getattr(importlib.import_module(".kernels", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AreaThresholds",
    "Arrangement",
    "BudgetReport",
    "ConfigError",
    "DEFAULT_TEXT_ALLOWANCE",
    "DEFAULT_VIDEO_CONFIG",
    "DegenerateResize",
    "FrameGrid",
    "InvalidCount",
    "InvalidDuration",
    "InvalidOutputShape",
    "NonDivisibleStride",
    "PatchGrid",
    "PathwayConfig",
    "Resolution",
    "ResizePlan",
    "SamplingPlan",
    "StageConfig",
    "TokenBlock",
    "TokenSequence",
    "arrange_gsf",
    "arrange_isf",
    "avg_pool_adaptive",
    "avg_pool_strided",
    "bilinear_resample",
    "compute_scale",
    "default_pathway_for_stage",
    "fast_frame_indices",
    "image_budget",
    "naive_avg_pool_adaptive",
    "naive_avg_pool_strided",
    "naive_bilinear_resample",
    "patch_grid",
    "plan_layout",
    "plan_resize",
    "project_video",
    "run_fast_pathway",
    "run_slow_pathway",
    "sample_frames",
    "select_slow_frames",
    "stage_one_defaults",
    "stage_two_defaults",
    "stage_video_grid",
    "sweep",
    "sweep_csv",
    "synth_features",
    "validate_stage",
    "video_budget",
]
