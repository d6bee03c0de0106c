"""Frame sampling and native-resolution resize planning.

Pure arithmetic only: nothing here touches pixels. Given an input
resolution and a pair of area thresholds, the planner picks a scale factor
that keeps the resized area inside the threshold band, then snaps both
target dimensions down to multiples of the encoder patch size. Frame
sampling emits fixed-rate timestamps and falls back to uniform spacing when
a clip is too long for the frame cap.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .errors import DegenerateResize, InvalidDuration, NonDivisibleStride

FPS_MODE = "fps"
UNIFORM_FALLBACK_MODE = "uniform-fallback"


def as_count(name: str, value) -> int:
    """``value`` through ``operator.index``, bools excepted, or a ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_counts(names: tuple[str, str], a, b) -> tuple[int, int]:
    """Two sizes through ``as_count``, the error naming the first that is not an integer."""
    if type(a) is not int or type(b) is not int:
        a, b = as_count(names[0], a), as_count(names[1], b)
    return a, b


def check_strides_divide(stride_h: int, stride_w: int, rows: int, cols: int) -> None:
    """Raise ``NonDivisibleStride`` unless the strides divide a ``rows x cols`` grid."""
    if rows % stride_h or cols % stride_w:
        raise NonDivisibleStride(f"strides {stride_h}x{stride_w} do not divide grid {rows}x{cols}")


def store_counts(record, *names: str) -> None:
    """Store each named field of frozen ``record`` as ``as_count`` of itself, in order."""
    for name in names:
        value = getattr(record, name)
        if type(value) is not int:
            object.__setattr__(record, name, as_count(name, value))


@dataclass(frozen=True)
class Resolution:
    """A pixel resolution, height by width.

    Attributes:
        height: Pixel height, at least 1.
        width: Pixel width, at least 1.
    """

    height: int
    width: int

    def __post_init__(self) -> None:
        store_counts(self, "height", "width")
        if self.height < 1 or self.width < 1:
            raise ValueError(f"resolution must be positive, got {self.height}x{self.width}")

    @property
    def area(self) -> int:
        return self.height * self.width


@dataclass(frozen=True)
class AreaThresholds:
    """Area band a resized input must land in.

    Attributes:
        min_area: Lower bound in pixels squared, non-negative.
        max_area: Upper bound in pixels squared, strictly greater than min_area.
    """

    min_area: int
    max_area: int

    def __post_init__(self) -> None:
        store_counts(self, "min_area", "max_area")
        check_band("min_area", self.min_area, "max_area", self.max_area)


def check_band(low_name: str, low: int, high_name: str, high: int) -> None:
    """Raise a ``ValueError`` naming the bound at fault unless ``0 <= low < high``."""
    if low < 0:
        raise ValueError(f"{low_name} must be non-negative, got {low}")
    if low >= high:
        raise ValueError(f"{low_name} must be below {high_name}, got [{low}, {high}]")


@dataclass(frozen=True)
class ResizePlan:
    """Planned patch-aligned resize of ``source`` into the area band.

    Both target dimensions are ``floor(dim * scale / patch) * patch``,
    evaluated in exact integer arithmetic, so they are immune to the float
    rounding that can push ``height * scale`` just below an integer.
    Flooring only shrinks, so a shrunk target never exceeds ``max_area``;
    after the upscale branch it may land slightly under ``min_area``.

    Attributes:
        source: Input resolution.
        thresholds: Area band to land in.
        patch: Encoder patch size, an integer of at least 1.
        scale: Derived: the real-valued factor ``compute_scale`` returns.
        target: Derived: the patch-aligned target resolution.
        below_min: Derived: True when flooring left the target area under
            the lower area threshold; diagnostic only.

    Raises:
        DegenerateResize: If flooring yields zero rows or columns, i.e. the
            input is too small relative to the patch size.
    """

    source: Resolution
    thresholds: AreaThresholds
    patch: int
    scale: float = field(init=False)
    target: Resolution = field(init=False)
    below_min: bool = field(init=False)

    def __post_init__(self) -> None:
        store_counts(self, "patch")
        res, thresholds, patch = self.source, self.thresholds, self.patch
        if patch < 1:
            raise ValueError(f"patch must be positive, got {patch}")
        area = res.area
        clamped = min(max(area, thresholds.min_area), thresholds.max_area)
        target_h = _scaled_floor_multiple(res.height, clamped, area, patch)
        target_w = _scaled_floor_multiple(res.width, clamped, area, patch)
        if target_h == 0 or target_w == 0:
            raise DegenerateResize(
                f"{res.height}x{res.width} with patch {patch} floors to "
                f"{target_h}x{target_w}; input too small"
            )
        object.__setattr__(self, "scale", compute_scale(res, thresholds))
        object.__setattr__(self, "target", Resolution(target_h, target_w))
        object.__setattr__(self, "below_min", target_h * target_w < thresholds.min_area)


@dataclass(frozen=True)
class PatchGrid:
    """The rows-by-columns lattice of visual tokens one frame yields."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        store_counts(self, "rows", "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"grid must be positive, got {self.rows}x{self.cols}")

    @property
    def tokens(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class SamplingPlan:
    """Planned frame timestamps for a clip of ``source_duration`` seconds.

    Fixed-rate mode emits ``k / target_fps`` for ``k = 0 .. ceil(duration *
    target_fps) - 1``; a fractional tail still yields a frame, so even a
    very short clip produces one timestamp. When that count would exceed
    ``max_frames``, the plan falls back to exactly ``max_frames`` bin-center
    timestamps ``(i + 0.5) * duration / max_frames``.

    The count reads ``duration`` and ``target_fps`` as the decimals they
    print as, the values a caller wrote: 8.3 s at 30 fps holds the frames
    ``k / 30 < 8.3``, which are 249, although the float product of 8.3 and
    30 lies just above 249. So the plan always holds exactly that many
    timestamps, and falls back only when that count exceeds the cap.

    Attributes:
        source_duration: Clip length in seconds, strictly positive and finite.
        target_fps: Sampling rate in frames per second, strictly positive.
        max_frames: Frame cap, an integer of at least 1.
        mode: Derived: ``"fps"`` for fixed-rate sampling,
            ``"uniform-fallback"`` when the fixed-rate count exceeds the cap.
        timestamps: Derived: strictly increasing times in seconds, all
            inside ``[0, source_duration)``.

    Raises:
        InvalidDuration: If ``source_duration`` is not a positive, finite real number.
    """

    source_duration: float
    target_fps: float
    max_frames: int
    mode: str = field(init=False)
    timestamps: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        for key, name, error in (("source_duration", "duration", InvalidDuration),
                                 ("target_fps", "target_fps", ValueError)):
            value = getattr(self, key)
            if type(value) not in (int, float):  # int and float skip the slower ABC check
                import numbers  # only other types reach this; keeps it out of import time

                if type(value) is bool or not isinstance(value, numbers.Real):
                    raise error(f"{name} must be a real number, got {value!r}")
            try:
                number = float(value)  # Fractions, numpy scalars count as floats
            except OverflowError:  # an int or Fraction beyond the largest float
                number = math.inf
            # On the float, so a Fraction that rounds to 0.0 is refused too.
            if not 0 < number < math.inf:
                raise error(f"{name} must be positive and finite, got {value}")
            object.__setattr__(self, key, number)
        duration, target_fps = self.source_duration, self.target_fps
        store_counts(self, "max_frames")
        max_frames = self.max_frames
        if max_frames < 1:
            raise ValueError(f"max_frames must be at least 1, got {max_frames}")

        fps_count = _fps_count(duration, target_fps)
        if fps_count > max_frames:
            step = duration / max_frames
            timestamps = tuple((i + 0.5) * step for i in range(max_frames))
            mode = UNIFORM_FALLBACK_MODE
        else:
            timestamps = tuple(k / target_fps for k in range(fps_count))
            if timestamps[-1] >= duration:
                # The last frame lies before the duration exactly, but its
                # quotient rounds up to it (1/29.97 s, computed in floats,
                # holds two frames at 29.97 fps); it takes the last float
                # before the duration.
                timestamps = timestamps[:-1] + (math.nextafter(duration, 0.0),)
            mode = FPS_MODE
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "timestamps", timestamps)


def compute_scale(res: Resolution, thresholds: AreaThresholds) -> float:
    """Return the resize factor that brings ``res`` into the area band.

    Shrinks when the area exceeds ``max_area``, grows when it is under
    ``min_area``, and returns 1.0 when the area is already in range: the
    factor is ``sqrt(clamped / area)``, where ``clamped`` is the area
    clamped into the band.

    Args:
        res: Input resolution.
        thresholds: Area band to land in.

    Returns:
        The positive scale factor.
    """
    area = res.area
    return math.sqrt(min(max(area, thresholds.min_area), thresholds.max_area) / area)


def _scaled_floor_multiple(dim: int, numerator: int, area: int, patch: int) -> int:
    # floor(dim * sqrt(numerator / area) / patch) * patch without float error:
    # floor of a real square root equals isqrt of the floored radicand.
    return math.isqrt(dim * dim * numerator // area) // patch * patch


def plan_resize(res: Resolution, thresholds: AreaThresholds, patch: int) -> ResizePlan:
    """Plan the patch-aligned resize of ``res`` into the area band (see ``ResizePlan``)."""
    return ResizePlan(res, thresholds, patch)


def patch_grid(plan: ResizePlan) -> PatchGrid:
    """Return the token grid a planned resize produces (exact division)."""
    return PatchGrid(plan.target.height // plan.patch, plan.target.width // plan.patch)


# A float product this close to an integer, relative to its size, may lie
# on the other side of it from the exact product of the decimals; three
# roundings (two inputs, one product) move it by under 4e-16 of its size,
# so this bound leaves a wide margin.
_NEAR_INTEGER = 1e-9
# From here up every float is an integer.
_ALL_INTEGERS = 2.0**53


def _fps_count(duration: float, target_fps: float) -> int:
    # ceil(duration * target_fps), both read as the decimals they print as.
    # The float product decides when it lies clearly between two integers;
    # otherwise the decimals decide, in rationals.
    x = duration * target_fps
    if x < _ALL_INTEGERS:
        n = math.ceil(x)
        if n - 1 + _NEAR_INTEGER * x < x < n - _NEAR_INTEGER * x:
            return n
    from fractions import Fraction  # rarely needed; keeps it out of import time

    return math.ceil(Fraction(repr(float(duration))) * Fraction(repr(float(target_fps))))


def sample_frames(duration: float, target_fps: float = 1.0, max_frames: int = 128) -> SamplingPlan:
    """Plan frame timestamps for a clip of ``duration`` seconds (see ``SamplingPlan``)."""
    return SamplingPlan(duration, target_fps, max_frames)
