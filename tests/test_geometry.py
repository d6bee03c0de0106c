"""Resize planning and frame sampling."""

import math
import re
import sys
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftokens import (
    AreaThresholds,
    DegenerateResize,
    InvalidDuration,
    PatchGrid,
    Resolution,
    ResizePlan,
    SamplingPlan,
    compute_scale,
    patch_grid,
    plan_resize,
    sample_frames,
)

VIDEO_BAND = AreaThresholds(288 * 288, 480 * 480)
NOT_AN_INTEGER = st.one_of(st.floats(), st.booleans(), st.text())
# Neither a real number nor a non-bool one; each must fail where it enters.
NOT_A_REAL = ["10", Decimal("10"), True, False, np.True_, None, 10 + 0j, [10]]
REAL_TENS = [10, 10.0, np.float32(10), np.float64(10), np.int64(10), Fraction(10)]


class TestTypes:
    def test_resolution_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Resolution(0, 10)
        with pytest.raises(ValueError):
            Resolution(10, -1)

    def test_thresholds_ordering(self):
        with pytest.raises(ValueError):
            AreaThresholds(100, 100)
        with pytest.raises(ValueError):
            AreaThresholds(-1, 100)
        assert AreaThresholds(0, 1).min_area == 0

    @settings(max_examples=200, deadline=None)
    @given(st.integers(16, 4096), st.integers(16, 4096), st.sampled_from([1, 2, 8, 14, 16]))
    def test_resize_plan_is_plan_resize(self, height, width, patch):
        # Sides of at least one patch never floor to zero in VIDEO_BAND.
        res = Resolution(height, width)
        plan = ResizePlan(res, VIDEO_BAND, patch)
        assert plan == plan_resize(res, VIDEO_BAND, patch)
        assert (plan.source, plan.thresholds, plan.patch) == (res, VIDEO_BAND, patch)

    def test_patch_grid_tokens(self):
        assert PatchGrid(30, 30).tokens == 900

    def test_numpy_integers_stored_as_int(self):
        res = Resolution(np.int64(480), np.uint16(640))
        band = AreaThresholds(np.int32(0), np.int64(480 * 480))
        patch = plan_resize(res, band, np.int64(16)).patch
        max_frames = SamplingPlan(1.0, 1.0, np.uint8(128)).max_frames
        values = (res.height, res.width, band.min_area, band.max_area, patch, max_frames)
        assert values == (480, 640, 0, 480 * 480, 16, 128)
        assert all(type(v) is int for v in values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["height", "width", "min_area", "max_area", "patch", "max_frames"]),
        NOT_AN_INTEGER,
    )
    @example("patch", 16.0)
    @example("patch", True)
    @example("patch", "16")
    @example("max_frames", 128.5)
    def test_non_integers_rejected_by_name(self, field, value):
        if field in ("height", "width"):
            cls, fields = Resolution, {"height": 480, "width": 640}
        elif field in ("min_area", "max_area"):
            cls, fields = AreaThresholds, {"min_area": 0, "max_area": 100}
        elif field == "patch":
            cls, fields = ResizePlan, {"source": Resolution(480, 640), "thresholds": VIDEO_BAND,
                                       "patch": 16}
            with pytest.raises(ValueError, match="patch must be an integer"):
                plan_resize(Resolution(480, 640), VIDEO_BAND, value)
        else:
            cls, fields = SamplingPlan, {"source_duration": 1.0, "target_fps": 1.0}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            cls(**{**fields, field: value})


class TestComputeScale:
    def test_shrink_branch(self):
        # 921600 > 230400, sqrt(230400 / 921600) = 0.5
        assert compute_scale(Resolution(720, 1280), VIDEO_BAND) == 0.5

    def test_in_range_is_identity(self):
        assert compute_scale(Resolution(400, 400), VIDEO_BAND) == 1.0

    def test_grow_branch(self):
        # 40000 < 82944, sqrt(82944 / 40000) = 1.44
        assert compute_scale(Resolution(200, 200), VIDEO_BAND) == pytest.approx(1.44, rel=1e-12)

    def test_boundary_areas_are_in_range(self):
        assert compute_scale(Resolution(480, 480), VIDEO_BAND) == 1.0
        assert compute_scale(Resolution(288, 288), VIDEO_BAND) == 1.0


class TestPlanResize:
    def test_shrink_example(self):
        plan = plan_resize(Resolution(720, 1280), VIDEO_BAND, 16)
        assert (plan.target.height, plan.target.width) == (352, 640)
        assert plan.scale == 0.5
        assert not plan.below_min

    def test_identity_example(self):
        plan = plan_resize(Resolution(400, 400), VIDEO_BAND, 16)
        assert (plan.target.height, plan.target.width) == (400, 400)

    def test_grow_example(self):
        plan = plan_resize(Resolution(200, 200), VIDEO_BAND, 16)
        assert (plan.target.height, plan.target.width) == (288, 288)
        assert not plan.below_min

    def test_grow_can_land_below_min(self):
        # 150x300 grows toward 82944 px^2 but floors to 192x400 = 76800.
        plan = plan_resize(Resolution(150, 300), VIDEO_BAND, 16)
        assert (plan.target.height, plan.target.width) == (192, 400)
        assert plan.below_min

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateResize):
            plan_resize(Resolution(8, 4096), VIDEO_BAND, 16)

    def test_exact_floor_at_integer_boundary(self):
        # Real-valued 2827 * sqrt(230400 / 2827^2) is exactly 480; a float
        # evaluation rounds just below and floors to 464.
        plan = plan_resize(Resolution(2827, 2827), VIDEO_BAND, 16)
        assert (plan.target.height, plan.target.width) == (480, 480)


class TestPatchGrid:
    def test_table_grid(self):
        plan = plan_resize(Resolution(480, 480), VIDEO_BAND, 16)
        assert patch_grid(plan) == PatchGrid(30, 30)

    def test_rectangular(self):
        plan = plan_resize(Resolution(720, 1280), VIDEO_BAND, 16)
        assert patch_grid(plan) == PatchGrid(22, 40)

    def test_single_patch(self):
        plan = plan_resize(Resolution(16, 16), AreaThresholds(0, 480 * 480), 16)
        assert patch_grid(plan) == PatchGrid(1, 1)

    def test_numpy_integers_stored_as_int(self):
        grid = PatchGrid(np.int64(30), np.uint8(22))
        assert (grid.rows, grid.cols) == (30, 22)
        assert type(grid.rows) is int and type(grid.cols) is int

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["rows", "cols"]), NOT_AN_INTEGER)
    def test_non_integers_rejected_by_name(self, field, value):
        sides = {"rows": 30, "cols": 30, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PatchGrid(**sides)


class TestSampleFrames:
    def test_fps_mode(self):
        plan = sample_frames(60.0, 1.0, 128)
        assert plan.mode == "fps"
        assert plan.timestamps == tuple(float(k) for k in range(60))

    def test_uniform_fallback(self):
        plan = sample_frames(600.0, 1.0, 128)
        assert plan.mode == "uniform-fallback"
        assert len(plan.timestamps) == 128
        spacing = np.diff(plan.timestamps)
        assert np.allclose(spacing, 600.0 / 128)
        assert plan.timestamps[0] == pytest.approx(0.5 * 600.0 / 128)

    def test_short_clip_yields_one_frame(self):
        plan = sample_frames(0.5, 1.0, 128)
        assert plan.mode == "fps"
        assert plan.timestamps == (0.0,)

    def test_exact_cap_stays_in_fps_mode(self):
        plan = sample_frames(128.0, 1.0, 128)
        assert plan.mode == "fps"
        assert len(plan.timestamps) == 128

    def test_invalid_duration(self):
        with pytest.raises(InvalidDuration):
            sample_frames(0.0)
        with pytest.raises(InvalidDuration):
            sample_frames(-3.0)

    def test_invalid_rate_and_cap(self):
        with pytest.raises(ValueError):
            sample_frames(10.0, target_fps=0.0)
        with pytest.raises(ValueError):
            sample_frames(10.0, max_frames=0)

    def test_frame_counts_past_sys_maxsize_rejected(self):
        # Past the cap (the count is the cap) and under it (the fps count).
        for duration, cap in ((1e300, sys.maxsize + 1), (1e300, 10**400), (1e19, 2**100)):
            count = min(math.ceil(Fraction(repr(duration))), cap)
            with pytest.raises(ValueError, match=f"^a plan of {count} frames is more than len"):
                sample_frames(duration, 1.0, cap)
        assert len(sample_frames(1e300, 1.0, sys.maxsize).timestamps) == sys.maxsize

    def test_cap_must_be_an_integer(self):
        # 5 s fits a float cap of 128.0 and 500 s overflows it; both are
        # rejected where they enter, as is a bool cap.
        for duration, cap in ((5.0, 128.0), (500.0, 128.0), (5.0, True)):
            with pytest.raises(ValueError, match="max_frames must be an integer"):
                sample_frames(duration, 1.0, cap)

    @settings(max_examples=200, deadline=None)
    @given(NOT_AN_INTEGER)
    def test_non_integer_cap_rejected_by_name(self, cap):
        with pytest.raises(ValueError, match="max_frames must be an integer"):
            sample_frames(60.0, 1.0, cap)

    def test_numpy_integer_cap_stored_as_int(self):
        for duration in (60.0, 600.0):
            plan = sample_frames(duration, 1.0, np.int64(128))
            assert plan.max_frames == 128 and type(plan.max_frames) is int
            assert plan == sample_frames(duration, 1.0, 128)

    def test_non_finite_inputs_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidDuration):
                sample_frames(bad)
            with pytest.raises(ValueError):
                sample_frames(10.0, target_fps=bad)

    @pytest.mark.parametrize("bad", NOT_A_REAL, ids=repr)
    def test_duration_must_be_a_real_number(self, bad):
        message = f"^duration must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(InvalidDuration, match=message):
            sample_frames(bad)

    @pytest.mark.parametrize("bad", NOT_A_REAL, ids=repr)
    def test_rate_must_be_a_real_number(self, bad):
        message = f"^target_fps must be a real number, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message) as info:
            sample_frames(10.0, bad)
        assert type(info.value) is ValueError

    @pytest.mark.parametrize("duration, fps, shown", [
        (0.0, 1.0, "duration must be positive and finite, got 0.0"),
        (-3, 1.0, "duration must be positive and finite, got -3"),
        (Fraction(-1, 2), 1.0, "duration must be positive and finite, got -1/2"),
        (math.nan, 1.0, "duration must be positive and finite, got nan"),
        (np.float32(math.inf), 1.0, "duration must be positive and finite, got inf"),
        # Formatted as an f-string formats it, not as str() shows it (-0.1).
        (np.float32(-0.1), 1.0, "duration must be positive and finite, got -0.10000000149011612"),
        (10.0, 0,"target_fps must be positive and finite, got 0"),
        (10.0, -math.inf, "target_fps must be positive and finite, got -inf"),
        # Beyond float range, or rounding to 0.0, as a float.
        pytest.param(10**400, 1.0, f"duration must be positive and finite, got {10**400}",
                     id="int-duration-beyond-floats"),
        pytest.param(10, 10**400, f"target_fps must be positive and finite, got {10**400}",
                     id="int-rate-beyond-floats"),
        pytest.param(Fraction(10**400), 1.0,
                     f"duration must be positive and finite, got {10**400}",
                     id="fraction-duration-beyond-floats"),
        pytest.param(Fraction(1, 10**400), 1.0,
                     f"duration must be positive and finite, got 1/{10**400}",
                     id="fraction-duration-below-floats"),
    ])
    def test_out_of_range_messages(self, duration, fps, shown):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)}$") as info:
            sample_frames(duration, fps)
        assert isinstance(info.value, InvalidDuration) == shown.startswith("duration")

    @pytest.mark.parametrize("ten", REAL_TENS, ids=repr)
    @pytest.mark.parametrize("duration", [10, 1000], ids=["fps", "fallback"])
    def test_real_numbers_plan_as_their_floats(self, ten, duration):
        # Fractions and numpy numbers are read as floats where they enter,
        # so every plan holds floats, in either mode.
        for plan in (sample_frames(ten * duration / 10), sample_frames(duration, ten / 10)):
            assert plan == sample_frames(float(duration), 1.0)
            assert type(plan.source_duration) is type(plan.target_fps) is float
            assert {type(t) for t in plan.timestamps} == {float}

    def test_decimal_count_fits_cap(self):
        # 8.3 * 30 is 249.00000000000003 in floats; the frames k/30 < 8.3
        # are 249, so they fit a cap of 249 and overflow one of 248.
        plan = sample_frames(8.3, 30.0, 249)
        assert plan.mode == "fps"
        assert len(plan.timestamps) == 249
        plan = sample_frames(8.3, 30.0, 248)
        assert plan.mode == "uniform-fallback"
        assert len(plan.timestamps) == 248

    def test_last_frame_rounding_onto_duration_is_kept(self):
        # The decimal 0.033366700033366704 exceeds 1/29.97, so frame 1 lies
        # inside the clip, but the float 1/29.97 equals the duration.
        duration = 1 / 29.97
        plan = sample_frames(duration, 29.97, 128)
        assert plan.mode == "fps"
        assert len(plan.timestamps) == 2
        assert plan.timestamps[0] == 0.0 < plan.timestamps[1] < duration


class TestResizeProperties:
    """Randomized invariants; the acceptance suite runs the larger sweeps."""

    def test_invariants_hold_on_random_resolutions(self):
        rng = np.random.default_rng(20240601)
        for _ in range(2000):
            res = Resolution(int(rng.integers(1, 4097)), int(rng.integers(1, 4097)))
            patch = int(rng.choice([1, 2, 8, 14, 16, 32]))
            try:
                plan = plan_resize(res, VIDEO_BAND, patch)
            except DegenerateResize:
                continue
            th, tw = plan.target.height, plan.target.width
            assert th % patch == 0 and tw % patch == 0
            if res.area > VIDEO_BAND.max_area:
                assert th * tw <= VIDEO_BAND.max_area
            # Flooring only shrinks, so the band's top is never exceeded.
            assert th * tw <= VIDEO_BAND.max_area
            # Aspect drift, relative to the source ratio.
            drift = abs((th / tw) / (res.height / res.width) - 1.0)
            assert drift <= patch * (1.0 / tw + 1.0 / th)

    def test_scale_recomputation_idempotent_in_band(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            res = Resolution(int(rng.integers(1, 4097)), int(rng.integers(1, 4097)))
            try:
                plan = plan_resize(res, VIDEO_BAND, 16)
            except DegenerateResize:
                continue
            if VIDEO_BAND.min_area <= plan.target.area <= VIDEO_BAND.max_area:
                assert compute_scale(plan.target, VIDEO_BAND) == 1.0


class TestSamplingProperties:
    def test_count_and_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            duration = float(rng.uniform(1e-3, 1e4))
            fps = float(rng.choice([0.5, 1.0, 2.0, 30.0]))
            cap = int(rng.integers(1, 257))
            plan = sample_frames(duration, fps, cap)
            fps_count = math.ceil(duration * fps)
            assert len(plan.timestamps) == min(fps_count, cap)
            assert (plan.mode == "uniform-fallback") == (fps_count > cap)
            ts = np.array(plan.timestamps)
            assert (ts >= 0).all() and (ts < duration).all()
            assert (np.diff(ts) > 0).all()


_RATES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 23.976, 24.0, 25.0, 29.97, 30.0, 30000 / 1001, 59.94, 60.0]),
    st.floats(0.1, 120.0),
)
# Up to this many frames a plan is checked at every index, past it at a few.
_CHECKED_WHOLE = 2000


@st.composite
def _clip(draw):
    fps = draw(_RATES)
    duration = draw(st.one_of(
        st.floats(1e-3, 1e6),
        st.integers(1, 10**9).map(lambda ms: ms / 1000),
        # a whole number of frames, as a caller's float division gives it
        st.integers(1, 2000).map(lambda n: n / fps),
    ))
    return duration, fps, draw(st.one_of(st.integers(1, 512), st.integers(1, 10**12)))


def _timestamp(duration, fps, cap, i):
    # Oracle: timestamp i of the plan, by the formula of each mode.
    count = math.ceil(Fraction(repr(duration)) * Fraction(repr(fps)))
    if count > cap:
        step = duration / cap
        return (i + 0.5) * step
    t = i / fps
    return math.nextafter(duration, 0.0) if i == count - 1 and t >= duration else t


class TestSamplingExactCount:
    @settings(max_examples=500, deadline=None)
    @given(_clip(), st.data())
    def test_count_is_exact_and_emitted(self, clip, data):
        duration, fps, cap = clip
        exact = math.ceil(Fraction(repr(duration)) * Fraction(repr(fps)))
        plan = sample_frames(duration, fps, cap)
        assert len(plan.timestamps) == min(exact, cap)
        assert (plan.mode == "uniform-fallback") == (exact > cap)
        ts = plan.timestamps
        assert 0.0 <= ts[0] and ts[-1] < duration
        n = len(ts)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                ts[i]
        if n <= _CHECKED_WHOLE:
            want = tuple(_timestamp(duration, fps, cap, i) for i in range(n))
            assert ts == want and want == ts and not ts != want
            assert hash(ts) == hash(want) and repr(ts) == repr(want)
            assert tuple(ts) == want and list(ts) == list(want)
            assert [ts[i] for i in range(-n, n)] == [want[i] for i in range(-n, n)]
            ends = st.one_of(st.none(), st.integers(-n - 2, n + 2))
            cut = slice(data.draw(ends), data.draw(ends),
                        data.draw(st.one_of(st.none(), st.integers(-5, 5).filter(bool))))
            assert ts[cut] == want[cut] and type(ts[cut]) is tuple
            assert all(a < b for a, b in zip(ts, ts[1:]))
        else:
            drawn = data.draw(st.lists(st.integers(0, n - 2), max_size=5))
            for i in [0, n - 2, *drawn]:
                assert ts[i] == ts[i - n] == _timestamp(duration, fps, cap, i)
                assert ts[i] < ts[i + 1] == _timestamp(duration, fps, cap, i + 1)

    def test_a_plan_costs_the_same_at_any_frame_count(self):
        # 10**9 frames at 1 fps, and 10**12 bin centres past the cap.
        for duration in (10**9, 10**13):
            tracemalloc.start()
            try:
                plan = sample_frames(duration, 1.0, 10**12)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024
            n = len(plan.timestamps)
            assert n == min(duration, 10**12)
            assert plan.timestamps[-1] == _timestamp(duration, 1.0, 10**12, n - 1)

    @settings(max_examples=300, deadline=None)
    @given(_clip(), st.integers(1, 512))
    def test_replaced_cap_replans(self, clip, new_cap):
        duration, fps, cap = clip
        plan = replace(sample_frames(duration, fps, cap), max_frames=new_cap)
        assert plan == sample_frames(duration, fps, new_cap)
