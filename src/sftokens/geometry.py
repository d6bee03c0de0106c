"""Frame sampling and native-resolution resize planning, and the record base.

Pure arithmetic only: nothing here touches pixels. Given an input
resolution and a pair of area thresholds, the planner picks a scale factor
that keeps the resized area inside the threshold band, then snaps both
target dimensions down to multiples of the encoder patch size. Frame
sampling emits fixed-rate timestamps and falls back to uniform spacing when
a clip is too long for the frame cap.

Every planning record, here and in ``projector`` and ``budget``, is a
``Record``: immutable and slotted, checked in its constructor, and built
without importing ``dataclasses``, whose functions still work on it.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import operator
import sys

from .errors import DegenerateResize, InvalidDuration, NonDivisibleStride

FPS_MODE = "fps"
UNIFORM_FALLBACK_MODE = "uniform-fallback"


def show(value, form=format) -> str:
    """``form(value)`` for a message, or a stand-in for an int too long to print."""
    try:  # formatting an int over the digit limit (4,300 by default) raises ValueError
        return form(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}<{type(value).__name__} too long to print>"


def as_count(name: str, value) -> int:
    """``value`` through ``operator.index``, bools excepted, or a ``ValueError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_counts(names: tuple[str, ...], *values) -> tuple[int, ...]:
    """Sizes through ``as_count``, the error naming the first that is not an integer."""
    for value in values:
        if type(value) is not int:
            return tuple(map(as_count, names, values))
    return values


def check_strides_divide(stride_h: int, stride_w: int, rows: int, cols: int) -> None:
    """Raise ``NonDivisibleStride`` unless the strides divide a ``rows x cols`` grid."""
    if rows % stride_h or cols % stride_w:
        raise NonDivisibleStride(f"strides {show(stride_h)}x{show(stride_w)} do not divide grid "
                                 f"{show(rows)}x{show(cols)}")


class _DataclassFields:
    """A record class's ``__dataclass_fields__``, genuine ``dataclasses.Field``s built on
    first read, so the ``dataclasses`` functions work on records and load it only then."""

    def __get__(self, record, cls):
        from dataclasses import field, make_dataclass

        specs = [(name, object, field(init=i < cls._init, repr=name in cls._shown,
                                      compare=name in cls._shown))
                 for i, name in enumerate(cls._fields)]
        cls.__dataclass_fields__ = fields = make_dataclass(cls.__name__, specs).__dataclass_fields__
        return fields


class Record:
    """Base of the planning records: immutable, slotted, equal by type and fields.

    A record's fields are its ``__slots__`` (a slot named ``_...`` is a
    cache). Its constructor takes the first fields, checks them and derives
    the rest. ``repr``, equality and hashing read ``_shown``, all fields by
    default. ``_replace``, ``pickle`` and ``copy`` rebuild through the
    constructor, so its checks run again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._init = cls.__init__.__code__.co_argcount - 1
        cls._shown = vars(cls).get("_shown", cls._fields)
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls._fields)  # slot stores
        cls.__dataclass_fields__ = _DataclassFields()

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple(getattr(self, name) for name in names)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self._shown) == other._values(self._shown)

    def __hash__(self) -> int:
        return hash((type(self), *self._values(self._shown)))

    def __reduce__(self):
        return type(self), self._values(self._fields[:self._init])

    def _replace(self, **changes):
        """A copy with ``changes``, rebuilt through the constructor."""
        for name in self._fields[self._init:]:
            if name in changes:
                raise ValueError(f"field {name} is declared with init=False, "
                                 "it cannot be specified with replace()")
        init = self._fields[:self._init]
        return type(self)(**dict(zip(init, self._values(init)), **changes))


class Resolution(Record):
    """A pixel resolution, height by width.

    Attributes:
        height: Pixel height, at least 1.
        width: Pixel width, at least 1.
    """

    __slots__ = ("height", "width")

    def __init__(self, height: int, width: int) -> None:
        height, width = as_counts(("height", "width"), height, width)
        if height < 1 or width < 1:
            raise ValueError(f"resolution must be positive, got {show(height)}x{show(width)}")
        self._set(height, width)

    @property
    def area(self) -> int:
        return self.height * self.width


class AreaThresholds(Record):
    """Area band a resized input must land in.

    Attributes:
        min_area: Lower bound in pixels squared, non-negative.
        max_area: Upper bound in pixels squared, strictly greater than min_area.
    """

    __slots__ = ("min_area", "max_area")

    def __init__(self, min_area: int, max_area: int) -> None:
        min_area, max_area = as_counts(("min_area", "max_area"), min_area, max_area)
        check_band("min_area", min_area, "max_area", max_area)
        self._set(min_area, max_area)


def check_band(low_name: str, low: int, high_name: str, high: int) -> None:
    """Raise a ``ValueError`` naming the bound at fault unless ``0 <= low < high``."""
    if low < 0:
        raise ValueError(f"{low_name} must be non-negative, got {show(low)}")
    if low >= high:
        raise ValueError(f"{low_name} must be below {high_name}, got [{show(low)}, {show(high)}]")


class ResizePlan(Record):
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

    __slots__ = ("source", "thresholds", "patch", "scale", "target", "below_min")

    def __init__(self, source: Resolution, thresholds: AreaThresholds, patch: int) -> None:
        patch = as_count("patch", patch)
        if patch < 1:
            raise ValueError(f"patch must be positive, got {show(patch)}")
        area = source.area
        clamped = min(max(area, thresholds.min_area), thresholds.max_area)
        target_h = _scaled_floor_multiple(source.height, clamped, area, patch)
        target_w = _scaled_floor_multiple(source.width, clamped, area, patch)
        if target_h == 0 or target_w == 0:
            raise DegenerateResize(
                f"{show(source.height)}x{show(source.width)} with patch {show(patch)} floors to "
                f"{show(target_h)}x{show(target_w)}; input too small"
            )
        self._set(source, thresholds, patch, compute_scale(source, thresholds),
                  Resolution(target_h, target_w), target_h * target_w < thresholds.min_area)


class PatchGrid(Record):
    """The rows-by-columns lattice of visual tokens one frame yields."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int) -> None:
        rows, cols = as_counts(("rows", "cols"), rows, cols)
        if rows < 1 or cols < 1:
            raise ValueError(f"grid must be positive, got {show(rows)}x{show(cols)}")
        self._set(rows, cols)

    @property
    def tokens(self) -> int:
        return self.rows * self.cols


def _positive_real(name: str, value, error: type[ValueError]) -> float:
    # A real number's float, refused unless it is positive and finite.
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
        raise error(f"{name} must be positive and finite, got {show(value)}")
    return number


class Timestamps:
    """A ``SamplingPlan``'s timestamps, immutable, each computed from its index when read, so
    a plan costs the same at any frame count."""

    __slots__ = ("_spec",)  # no method rebinds it, as in fractions.Fraction

    def __init__(self, count: int, factor: float, last: float | None) -> None:
        self._spec = (count, factor, last)  # factor: the fps, or the step if last is None

    def _at(self, i: int) -> float:
        count, factor, last = self._spec
        return (i + 0.5) * factor if last is None else (last if i == count - 1 else i / factor)

    def __len__(self) -> int:
        return self._spec[0]

    def __getitem__(self, index):
        index = range(self._spec[0])[index]  # IndexError past either end; a slice gives a range
        return tuple(map(self._at, index)) if type(index) is range else self._at(index)

    def __iter__(self):
        return map(self._at, range(self._spec[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, Timestamps)):
            return NotImplemented
        return self._spec == getattr(other, "_spec", None) or (
            len(self) == len(other) and all(map(operator.eq, self, other)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class SamplingPlan(Record):
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
        timestamps: Derived: a lazy, immutable sequence that equals, hashes as and prints
            as the tuple it stands for (a slice is that tuple's slice): times in seconds in
            ``[0, source_duration)``, strictly increasing in plans of up to ``2**51`` frames.

    Raises:
        InvalidDuration: If ``source_duration`` is not a positive, finite real number.
        ValueError: If the plan holds more than ``sys.maxsize`` frames, more than ``len()`` returns.
    """

    __slots__ = ("source_duration", "target_fps", "max_frames", "mode", "timestamps")

    def __init__(self, source_duration: float, target_fps: float, max_frames: int) -> None:
        duration = _positive_real("duration", source_duration, InvalidDuration)
        target_fps = _positive_real("target_fps", target_fps, ValueError)
        max_frames = as_count("max_frames", max_frames)
        if max_frames < 1:
            raise ValueError(f"max_frames must be at least 1, got {show(max_frames)}")

        fps_count = _fps_count(duration, target_fps)
        count = min(fps_count, max_frames)
        if count > sys.maxsize:
            raise ValueError(f"a plan of {show(count)} frames is more than len() can return")
        if fps_count > max_frames:
            mode, timestamps = UNIFORM_FALLBACK_MODE, Timestamps(count, duration / count, None)
        else:
            mode, last = FPS_MODE, (count - 1) / target_fps
            if last >= duration:
                # The last frame lies before the duration exactly, but its
                # quotient rounds up to it (1/29.97 s, computed in floats,
                # holds two frames at 29.97 fps); it takes the last float
                # before the duration.
                last = math.nextafter(duration, 0.0)
            timestamps = Timestamps(count, target_fps, last)
        self._set(duration, target_fps, max_frames, mode, timestamps)


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
