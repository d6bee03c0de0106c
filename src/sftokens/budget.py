"""Token accounting and context-length validation.

Counts the visual tokens a pathway configuration produces on a given patch
grid, reports whether they fit the stage's context window next to a text
allowance, and validates whole stage configurations. Reported thousands
round down and exclude separator tokens. ``StageConfig`` and
``BudgetReport`` are ``geometry.Record``s.
"""

from __future__ import annotations

import io
import math

from .geometry import (
    AreaThresholds, PatchGrid, Record, Resolution, as_count, as_counts, check_band, patch_grid,
    plan_resize, show,
)
from .projector import DEFAULT_VIDEO_CONFIG, PathwayConfig, token_counts

DEFAULT_TEXT_ALLOWANCE = 512

STAGE_ONE = "I"
STAGE_TWO = "II"
VIDEO_KEYS = ("video_min_area", "video_max_area", "max_frames")
_STAGE_COUNTS = ("context_length", "min_image_area", "max_image_area", "base_image_side", "patch")

SWEEP_CSV_HEADER = (
    "n_slow,n_fast,n_total,arrangement,content_tokens,separators,rounded_k,fits_context"
)


class StageConfig(Record):
    """Training-stage limits: context window, image band, optional video band.

    A stage that constructs is well formed. Each area band holds
    ``0 <= min < max`` under its own key names, and each max area holds at
    least one patch square. ``video_min_area``, ``video_max_area`` and
    ``max_frames`` are all set (a video stage) or all unset (image-only),
    and stage I sets none of them. Anything else raises a ``ValueError``
    that names the key at fault.
    """

    __slots__ = ("stage", "context_length", "min_image_area", "max_image_area", "base_image_side",
                 "video_min_area", "video_max_area", "max_frames", "patch")

    def __init__(self, stage: str, context_length: int, min_image_area: int, max_image_area: int,
                 base_image_side: int, video_min_area: int | None = None,
                 video_max_area: int | None = None, max_frames: int | None = None,
                 patch: int = 16) -> None:
        if stage not in (STAGE_ONE, STAGE_TWO):
            raise ValueError(
                f"stage must be {STAGE_ONE!r} or {STAGE_TWO!r}, got {show(stage, repr)}"
            )
        context_length, min_image_area, max_image_area, base_image_side, patch = as_counts(
            _STAGE_COUNTS, context_length, min_image_area, max_image_area, base_image_side, patch)
        video = [None if value is None else as_count(name, value)
                 for name, value in zip(VIDEO_KEYS, (video_min_area, video_max_area, max_frames))]
        set_keys = [name for name, value in zip(VIDEO_KEYS, video) if value is not None]
        if stage == STAGE_ONE and set_keys:
            raise ValueError(f"stage I is image-only but sets {', '.join(set_keys)}")
        if 0 < len(set_keys) < len(VIDEO_KEYS):
            shown = ", ".join(f"{key}={show(value)}" for key, value in zip(VIDEO_KEYS, video))
            raise ValueError(
                f"video_min_area, video_max_area and max_frames must be set together, got {shown}"
            )
        if context_length < 1:
            raise ValueError("context_length must be positive")
        if patch < 1:
            raise ValueError("patch must be positive")
        video_min_area, video_max_area, max_frames = video
        if max_frames is not None and max_frames < 1:
            raise ValueError(f"max_frames must be at least 1, got {show(max_frames)}")
        if base_image_side < patch or base_image_side % patch:
            raise ValueError(
                f"base_image_side {show(base_image_side)} must be a positive multiple of "
                f"patch {show(patch)}"
            )
        bands = [("min_image_area", min_image_area, "max_image_area", max_image_area)]
        if max_frames is not None:
            bands.append(("video_min_area", video_min_area, "video_max_area", video_max_area))
        for low_name, low, high_name, high in bands:
            check_band(low_name, low, high_name, high)
            if high < patch * patch:
                raise ValueError(f"{high_name} too small for one patch")
        self._set(stage, context_length, min_image_area, max_image_area, base_image_side,
                  video_min_area, video_max_area, max_frames, patch)

    @property
    def has_video(self) -> bool:
        return self.max_frames is not None

    def image_thresholds(self) -> AreaThresholds:
        return AreaThresholds(self.min_image_area, self.max_image_area)

    def video_thresholds(self) -> AreaThresholds:
        if not self.has_video:
            raise ValueError(f"stage {self.stage} has no video thresholds")
        return AreaThresholds(self.video_min_area, self.video_max_area)


def stage_one_defaults() -> StageConfig:
    """Image-only warmup stage: 8K context, 1280-squared image cap."""
    return StageConfig(
        stage=STAGE_ONE,
        context_length=8192,
        min_image_area=0,
        max_image_area=1280 * 1280,
        base_image_side=384,
        patch=16,
    )


def stage_two_defaults() -> StageConfig:
    """Joint image and video stage: 16K context, 480-squared video cap."""
    return StageConfig(
        stage=STAGE_TWO,
        context_length=16384,
        min_image_area=0,
        max_image_area=1536 * 1536,
        base_image_side=384,
        video_min_area=288 * 288,
        video_max_area=480 * 480,
        max_frames=128,
        patch=16,
    )


class BudgetReport(Record):
    """Token counts for one input plus the context-fit verdict.

    ``total_tokens`` includes separators; ``rounded_k`` floors the content
    count (separators excluded) to thousands; the input fits when the total
    plus ``text_allowance`` is at most ``context_length``.
    """

    __slots__ = ("slow_tokens", "fast_tokens", "separator_tokens", "text_allowance",
                 "context_length")

    def __init__(self, slow_tokens: int, fast_tokens: int, separator_tokens: int,
                 text_allowance: int, context_length: int) -> None:
        allowance = text_allowance
        if type(allowance) is not int or allowance < 0:
            try:
                allowance = as_count("text_allowance", allowance)
            except ValueError:
                allowance = -1
            if allowance < 0:
                raise ValueError(f"text_allowance must be a non-negative integer, "
                                 f"got {show(text_allowance, repr)}")
        self._set(slow_tokens, fast_tokens, separator_tokens, allowance, context_length)

    @property
    def content_tokens(self) -> int:
        return self.slow_tokens + self.fast_tokens

    @property
    def total_tokens(self) -> int:
        return self.content_tokens + self.separator_tokens

    @property
    def rounded_k(self) -> int:
        return self.content_tokens // 1000

    @property
    def fits_context(self) -> bool:
        return self.total_tokens + self.text_allowance <= self.context_length

    @property
    def rounded_label(self) -> str:
        return f"{self.rounded_k}K"

    def to_json_dict(self) -> dict:
        return {
            "slow_tokens": self.slow_tokens,
            "fast_tokens": self.fast_tokens,
            "separator_tokens": self.separator_tokens,
            "content_tokens": self.content_tokens,
            "total_tokens": self.total_tokens,
            "rounded_k": self.rounded_k,
            "fits_context": self.fits_context,
            "text_allowance": self.text_allowance,
        }


def video_budget(
    cfg: PathwayConfig,
    grid: PatchGrid,
    stage: StageConfig,
    text_allowance: int = DEFAULT_TEXT_ALLOWANCE,
) -> BudgetReport:
    """Count the tokens a video produces under ``cfg`` on per-frame ``grid``.

    ``token_counts`` gives the counts and raises on a misfit; an overflow is reported, not raised.
    """
    return BudgetReport(*token_counts(cfg, grid), text_allowance, stage.context_length)


def image_budget(
    res: Resolution, stage: StageConfig, text_allowance: int = DEFAULT_TEXT_ALLOWANCE
) -> BudgetReport:
    """Count the tokens one image produces: fixed low-res plus planned high-res.

    The low-res overview resized to the square base side is tallied as the
    fast side of the report, the high-res native-aspect pass as the slow
    side; images use no separators.
    """
    low = (stage.base_image_side // stage.patch) ** 2
    plan = plan_resize(res, stage.image_thresholds(), stage.patch)
    high = patch_grid(plan).tokens
    return BudgetReport(high, low, 0, text_allowance, stage.context_length)


def worst_image_budget(
    stage: StageConfig, text_allowance: int = DEFAULT_TEXT_ALLOWANCE
) -> BudgetReport:
    """Budget the stage's worst case image: a ``patch x N*patch`` strip.

    With ``N = max_image_area // patch**2``, no planned target exceeds
    ``max_image_area``, so none holds more than N high-res tokens, and the
    low-res pass is fixed. The strip reaches N: its area ``N * patch**2``
    is at most ``max_image_area``, so in the band it plans to itself, and
    below ``min_image_area < (N + 1) * patch**2`` both upscaled sides floor
    back to ``patch x N*patch``.
    """
    n = stage.max_image_area // stage.patch**2
    return image_budget(Resolution(stage.patch, n * stage.patch), stage, text_allowance)


def sweep(
    configs: Sequence[PathwayConfig],
    grid: PatchGrid,
    stage: StageConfig,
    text_allowance: int = DEFAULT_TEXT_ALLOWANCE,
) -> list[BudgetReport]:
    """One video budget per config, in input order."""
    if not configs:
        raise ValueError("sweep needs at least one config")
    return [video_budget(cfg, grid, stage, text_allowance) for cfg in configs]


def sweep_csv(configs: Sequence[PathwayConfig], reports: Sequence[BudgetReport]) -> str:
    """Render sweep results as CSV, one row per config; lists of unequal length raise."""
    if len(configs) != len(reports):
        raise ValueError(f"configs and reports differ in length: {len(configs)} != {len(reports)}")
    import csv  # only CSV output needs it; keeps it out of import time

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER.split(","))
    for cfg, rep in zip(configs, reports):
        writer.writerow(
            [
                cfg.n_slow,
                cfg.n_fast,
                cfg.n_total,
                cfg.arrangement.value,
                rep.content_tokens,
                rep.separator_tokens,
                rep.rounded_label,
                "true" if rep.fits_context else "false",
            ]
        )
    return buf.getvalue()


def stage_video_grid(stage: StageConfig) -> PatchGrid:
    """Per-frame patch grid for a square frame at the stage's max video area."""
    thresholds = stage.video_thresholds()
    side = math.isqrt(stage.video_max_area)
    return patch_grid(plan_resize(Resolution(side, side), thresholds, stage.patch))


def default_pathway_for_stage(stage: StageConfig) -> PathwayConfig:
    """Deployment-default pathway sized to the stage's frame cap."""
    n_total = stage.max_frames or DEFAULT_VIDEO_CONFIG.n_total
    return DEFAULT_VIDEO_CONFIG._replace(n_total=n_total,
                                         n_slow=min(DEFAULT_VIDEO_CONFIG.n_slow, n_total))


def validate_stage(
    stage: StageConfig,
    pathway: PathwayConfig | None = None,
    text_allowance: int = DEFAULT_TEXT_ALLOWANCE,
) -> list[str]:
    """Judge a well-formed stage and its pathway.

    ``StageConfig`` rejects a malformed stage where it is built, so this
    returns verdicts only: worst-case image overflow, then on a video stage
    the frame cap, video overflow and a fast grid that is not coarser than
    the pooled slow grid. ``pathway`` defaults to the stage-sized default.
    A pathway that does not fit the stage's max-area frame grid raises, as in
    ``video_budget``. Findings are human-readable, and ``sft plan`` exits 2
    on any; an empty list means the configuration is coherent.
    """
    findings: list[str] = []

    image_rep = worst_image_budget(stage, text_allowance)
    if not image_rep.fits_context:
        findings.append(
            f"worst-case image tokens {image_rep.total_tokens} + allowance "
            f"{text_allowance} exceed context {stage.context_length}"
        )
    if not stage.has_video:
        return findings

    cfg = pathway or default_pathway_for_stage(stage)
    if cfg.n_total > stage.max_frames:
        findings.append(
            f"pathway wants {cfg.n_total} frames but the stage samples at most "
            f"{stage.max_frames}"
        )
    report = video_budget(cfg, stage_video_grid(stage), stage, text_allowance)
    if not report.fits_context:
        findings.append(
            f"video tokens {report.total_tokens} + allowance {text_allowance} "
            f"exceed context {stage.context_length}"
        )
    if cfg.n_slow and cfg.n_fast:
        slow_area = report.slow_tokens // cfg.n_slow
        if cfg.fast_tokens_per_frame >= slow_area:
            findings.append(
                f"fast grid ({cfg.fast_tokens_per_frame} tokens/frame) is not coarser "
                f"than the pooled slow grid ({slow_area} tokens/frame)"
            )
    return findings
