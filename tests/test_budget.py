"""Token accounting, golden table counts, and stage validation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftokens import (
    Arrangement,
    BudgetReport,
    DEFAULT_VIDEO_CONFIG,
    DegenerateResize,
    InvalidOutputShape,
    NonDivisibleStride,
    PatchGrid,
    PathwayConfig,
    Resolution,
    StageConfig,
    image_budget,
    stage_one_defaults,
    stage_two_defaults,
    stage_video_grid,
    sweep,
    sweep_csv,
    validate_stage,
    video_budget,
)
from sftokens.budget import worst_image_budget

GRID = PatchGrid(30, 30)
STAGE2 = stage_two_defaults()

DESIGN_SWEEP_CONFIGS = [
    PathwayConfig(n_total=32, n_slow=32, arrangement=Arrangement.ISF),
    PathwayConfig(n_total=48, n_slow=48, arrangement=Arrangement.ISF),
    PathwayConfig(n_total=64, n_slow=64, arrangement=Arrangement.ISF),
    PathwayConfig(n_total=128, n_slow=128, arrangement=Arrangement.ISF),
    PathwayConfig(n_total=128, n_slow=0, arrangement=Arrangement.GSF),
    PathwayConfig(n_total=128, n_slow=32, arrangement=Arrangement.GSF),
]


class TestVideoBudget:
    def test_default_config(self):
        rep = video_budget(DEFAULT_VIDEO_CONFIG, GRID, STAGE2)
        assert rep.slow_tokens == 7200
        assert rep.fast_tokens == 2048
        assert rep.content_tokens == 9248
        assert rep.separator_tokens == 1
        assert rep.total_tokens == 9249
        assert rep.rounded_k == 9
        assert rep.fits_context

    def test_slow_only_overflows(self):
        cfg = PathwayConfig(n_total=128, n_slow=128, arrangement=Arrangement.ISF)
        rep = video_budget(cfg, GRID, STAGE2)
        assert rep.content_tokens == 28800
        assert rep.rounded_k == 28
        assert not rep.fits_context

    def test_fast_only(self):
        cfg = PathwayConfig(n_total=128, n_slow=0)
        rep = video_budget(cfg, GRID, STAGE2)
        assert rep.content_tokens == 2048
        assert rep.rounded_k == 2

    def test_non_divisible_stride_raises(self):
        cfg = PathwayConfig(n_total=4, n_slow=2, stride_h=7)
        with pytest.raises(NonDivisibleStride):
            video_budget(cfg, GRID, STAGE2)

    def test_oversized_fast_grid_raises(self):
        cfg = PathwayConfig(n_total=4, n_slow=2, fast_rows=31)
        with pytest.raises(InvalidOutputShape):
            video_budget(cfg, GRID, STAGE2)

    def test_total_includes_separators(self):
        cfg = replace(DEFAULT_VIDEO_CONFIG, arrangement=Arrangement.ISF)
        rep = video_budget(cfg, GRID, STAGE2)
        assert rep.total_tokens == rep.content_tokens + 128


class TestImageBudget:
    def test_low_res_contribution_fixed(self):
        rep = image_budget(Resolution(640, 480), STAGE2)
        assert rep.fast_tokens == (384 // 16) ** 2 == 576

    def test_max_area_square_stage_two(self):
        rep = image_budget(Resolution(1536, 1536), STAGE2)
        assert rep.slow_tokens == 9216
        assert rep.total_tokens == 9792
        assert rep.separator_tokens == 0

    def test_tiny_image_stage_one(self):
        rep = image_budget(Resolution(16, 16), stage_one_defaults())
        assert rep.slow_tokens == 1
        assert rep.total_tokens == 577

    def test_high_res_tokens_bounded_by_band(self):
        rng = np.random.default_rng(21)
        stage = STAGE2
        cap = stage.max_image_area // stage.patch**2
        for _ in range(300):
            res = Resolution(int(rng.integers(16, 6000)), int(rng.integers(16, 6000)))
            rep = image_budget(res, stage)
            assert rep.slow_tokens <= cap

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_worst_image_budget_is_the_worst(self, data):
        # No resolution in [1, 64]^2 plans to more high-res tokens than the
        # strip, and the strip plans to N = max_image_area // patch**2 on
        # any band, including one whose minimum lies above the strip's area.
        patch = data.draw(st.integers(1, 6), label="patch")
        max_area = data.draw(st.integers(patch * patch, 64 * 64), label="max_image_area")
        min_area = data.draw(st.integers(0, max_area - 1), label="min_image_area")
        stage = StageConfig(stage="I", context_length=8192, min_image_area=min_area,
                            max_image_area=max_area, base_image_side=patch, patch=patch)
        worst = worst_image_budget(stage).slow_tokens
        assert worst == max_area // patch**2
        most = 0
        for h in range(1, 65):
            for w in range(1, 65):
                try:
                    most = max(most, image_budget(Resolution(h, w), stage).slow_tokens)
                except DegenerateResize:
                    pass
        assert most <= worst


class TestSweep:
    def test_design_choice_rows(self):
        reports = sweep(DESIGN_SWEEP_CONFIGS, GRID, STAGE2)
        assert [r.content_tokens for r in reports] == [7200, 10800, 14400, 28800, 2048, 9248]
        assert [r.rounded_label for r in reports] == ["7K", "10K", "14K", "28K", "2K", "9K"]

    def test_projector_comparison_rows(self):
        configs = [
            PathwayConfig(n_total=128, n_slow=128, arrangement=Arrangement.ISF),
            PathwayConfig(n_total=128, n_slow=128, arrangement=Arrangement.ISF),
            PathwayConfig(n_total=128, n_slow=0),
            PathwayConfig(n_total=128, n_slow=0),
            PathwayConfig(n_total=128, n_slow=32),
        ]
        reports = sweep(configs, GRID, STAGE2)
        assert [r.rounded_label for r in reports] == ["28K", "28K", "2K", "2K", "9K"]

    def test_smallest_sweep(self):
        cfg = PathwayConfig(n_total=1, n_slow=1, stride_h=1, stride_w=1,
                            fast_rows=1, fast_cols=1)
        reports = sweep([cfg], PatchGrid(1, 1), STAGE2)
        assert reports[0].content_tokens == 2

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError):
            sweep([], GRID, STAGE2)

    def test_csv_shape(self):
        reports = sweep(DESIGN_SWEEP_CONFIGS, GRID, STAGE2)
        text = sweep_csv(DESIGN_SWEEP_CONFIGS, reports)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "n_slow,n_fast,n_total,arrangement,content_tokens,separators,rounded_k,fits_context"
        )
        assert lines[4] == "128,0,128,ISF,28800,128,28K,false"
        assert lines[6] == "32,128,128,GSF,9248,1,9K,true"

    def test_csv_rejects_lists_of_unequal_length(self):
        cfg = DEFAULT_VIDEO_CONFIG
        report = video_budget(cfg, GRID, STAGE2)
        with pytest.raises(ValueError, match="^configs and reports differ in length: 2 != 1$"):
            sweep_csv([cfg, cfg], [report])
        with pytest.raises(ValueError, match="^configs and reports differ in length: 1 != 2$"):
            sweep_csv([cfg], [report, report])


class TestMonotonicity:
    def test_more_slow_frames_never_cheaper(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n_total = int(rng.integers(2, 129))
            n_slow = int(rng.integers(0, n_total))
            arrangement = Arrangement.GSF if rng.integers(2) else Arrangement.ISF
            base = PathwayConfig(n_total=n_total, n_slow=n_slow, arrangement=arrangement)
            bigger = replace(base, n_slow=n_slow + 1)
            a = video_budget(base, GRID, STAGE2).total_tokens
            b = video_budget(bigger, GRID, STAGE2).total_tokens
            assert b >= a

    def test_gsf_exceeds_isf_by_slow_overlap(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n_total = int(rng.integers(1, 129))
            n_slow = int(rng.integers(0, n_total + 1))
            gsf = PathwayConfig(n_total=n_total, n_slow=n_slow)
            isf = replace(gsf, arrangement=Arrangement.ISF)
            diff = (
                video_budget(gsf, GRID, STAGE2).content_tokens
                - video_budget(isf, GRID, STAGE2).content_tokens
            )
            assert diff == n_slow * gsf.fast_tokens_per_frame


class TestStageConfig:
    def test_stage_two_grid(self):
        assert stage_video_grid(STAGE2) == PatchGrid(30, 30)

    def test_base_side_must_align_to_patch(self):
        with pytest.raises(ValueError):
            StageConfig(stage="I", context_length=8192, min_image_area=0,
                        max_image_area=100, base_image_side=100, patch=16)

    def test_video_thresholds_on_image_stage_raise(self):
        with pytest.raises(ValueError):
            stage_one_defaults().video_thresholds()

    @pytest.mark.parametrize("unset", ["video_min_area", "video_max_area", "max_frames"])
    def test_half_set_video_band_rejected(self, unset):
        with pytest.raises(ValueError, match="video_min_area, video_max_area and max_frames "
                                             "must be set together"):
            replace(STAGE2, **{unset: None})

    @pytest.mark.parametrize("base, changes, message", [
        pytest.param(stage_one_defaults(),
                     dict(video_min_area=82944, video_max_area=230400, max_frames=128),
                     "stage I is image-only but sets video_min_area, video_max_area, max_frames",
                     id="stage_one_with_video_fields"),
        pytest.param(STAGE2, dict(video_min_area=230400, video_max_area=82944),
                     "video_min_area must be below video_max_area, got [230400, 82944]",
                     id="inverted_video_band"),
        pytest.param(stage_one_defaults(), dict(max_image_area=100),
                     "max_image_area too small for one patch", id="image_cap_below_one_patch"),
        # The band, not the pathway, is at fault, as for the image band above.
        pytest.param(STAGE2, dict(video_min_area=0, video_max_area=100),
                     "video_max_area too small for one patch", id="video_band_below_one_patch"),
        pytest.param(STAGE2, dict(min_image_area=500, max_image_area=400),
                     "min_image_area must be below max_image_area, got [500, 400]",
                     id="inverted_image_band"),
        pytest.param(STAGE2, dict(video_min_area=None, video_max_area=None),
                     "video_min_area, video_max_area and max_frames must be set together, got "
                     "video_min_area=None, video_max_area=None, max_frames=128",
                     id="max_frames_without_video_band"),
        pytest.param(STAGE2, dict(max_frames=None),
                     "video_min_area, video_max_area and max_frames must be set together, got "
                     "video_min_area=82944, video_max_area=230400, max_frames=None",
                     id="video_band_without_max_frames"),
    ])
    def test_malformed_stage_rejected_where_built(self, base, changes, message):
        with pytest.raises(ValueError) as info:
            replace(base, **changes)
        assert str(info.value) == message

    def test_numpy_integers_stored_as_int(self):
        stage = replace(STAGE2, context_length=np.int64(16384), max_frames=np.uint8(128),
                        video_min_area=np.int32(288 * 288))
        allowance = video_budget(DEFAULT_VIDEO_CONFIG, GRID, stage, np.int64(512)).text_allowance
        values = (stage.context_length, stage.max_frames, stage.video_min_area, allowance)
        assert values == (16384, 128, 288 * 288, 512)
        assert all(type(v) is int for v in values)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["context_length", "min_image_area", "max_image_area", "base_image_side",
                         "patch", "video_min_area", "video_max_area", "max_frames",
                         "text_allowance"]),
        st.one_of(st.floats(), st.booleans(), st.text()),
    )
    @example("text_allowance", -100000)
    @example("text_allowance", "512")
    @example("text_allowance", 512.5)
    @example("text_allowance", True)
    def test_non_integers_rejected_by_name(self, field, value):
        if field != "text_allowance":
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                replace(STAGE2, **{field: value})
            return
        for budget_of in (
            lambda: video_budget(DEFAULT_VIDEO_CONFIG, GRID, STAGE2, value),
            lambda: image_budget(Resolution(480, 640), STAGE2, value),
            lambda: sweep([DEFAULT_VIDEO_CONFIG], GRID, STAGE2, value),
        ):
            with pytest.raises(ValueError, match="text_allowance must be a non-negative integer"):
                budget_of()


class TestValidateStage:
    def test_stage_two_defaults_clean(self):
        assert validate_stage(STAGE2) == []

    def test_stage_two_fits_with_spare(self):
        rep = video_budget(DEFAULT_VIDEO_CONFIG, stage_video_grid(STAGE2), STAGE2)
        assert STAGE2.context_length - rep.total_tokens >= 512

    def test_stage_one_defaults_clean(self):
        assert validate_stage(stage_one_defaults()) == []

    def test_slow_only_overflow_finding(self):
        cfg = PathwayConfig(n_total=128, n_slow=128, arrangement=Arrangement.ISF)
        findings = validate_stage(STAGE2, pathway=cfg)
        assert len(findings) == 1
        assert "28928" in findings[0] and "16384" in findings[0]

    def test_pathway_frame_cap_flagged(self):
        cfg = PathwayConfig(n_total=256, n_slow=32)
        findings = validate_stage(STAGE2, pathway=cfg)
        assert any("256" in f and "128" in f for f in findings)

    def test_fast_not_coarser_flagged(self):
        cfg = PathwayConfig(n_total=16, n_slow=8, fast_rows=15, fast_cols=15)
        findings = validate_stage(STAGE2, pathway=cfg)
        assert any("coarser" in f for f in findings)

    def test_indivisible_frame_grid_raises(self):
        # isqrt(250000) = 500 px plans to a 31x31 grid, which 2x2 slow strides do not divide.
        with pytest.raises(NonDivisibleStride, match="strides 2x2 do not divide grid 31x31"):
            validate_stage(replace(stage_two_defaults(), video_max_area=250000))

    def test_oversized_fast_grid_raises(self):
        cfg = replace(DEFAULT_VIDEO_CONFIG, fast_rows=31, fast_cols=4)
        with pytest.raises(InvalidOutputShape, match="fast grid 31x4 exceeds frame grid 30x30"):
            validate_stage(STAGE2, pathway=cfg)

    def test_worst_case_image_overflow_flagged(self):
        stage = replace(stage_one_defaults(), context_length=4096)
        # 80*80 high-res + 576 low-res tokens at the 1280^2 cap.
        assert validate_stage(stage) == [
            "worst-case image tokens 6976 + allowance 512 exceed context 4096"
        ]

    def test_worst_case_image_is_not_a_square(self):
        # isqrt(10^6) = 1000 is no multiple of 16: the 992x992 square plans
        # to 3844 high-res tokens, but 992x1008 plans to 62*63 = 3906.
        stage = replace(stage_one_defaults(), max_image_area=1_000_000, context_length=4932)
        assert image_budget(Resolution(992, 1008), stage).slow_tokens == 3906
        assert worst_image_budget(stage).slow_tokens == 3906
        assert validate_stage(stage) == [
            "worst-case image tokens 4482 + allowance 512 exceed context 4932"
        ]


class TestReportShape:
    def test_json_fields(self):
        rep = video_budget(DEFAULT_VIDEO_CONFIG, GRID, STAGE2)
        d = rep.to_json_dict()
        assert d == {
            "slow_tokens": 7200,
            "fast_tokens": 2048,
            "separator_tokens": 1,
            "content_tokens": 9248,
            "total_tokens": 9249,
            "rounded_k": 9,
            "fits_context": True,
            "text_allowance": 512,
        }

    def test_rounding_floors_content_only(self):
        cfg = PathwayConfig(n_total=128, n_slow=128, arrangement=Arrangement.ISF)
        rep = video_budget(cfg, GRID, STAGE2)
        # 28800 content + 128 separators stays 28K, not 28.928K rounded up.
        assert rep.rounded_k == 28

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 40000), st.integers(0, 40000), st.integers(0, 200),
        st.integers(0, 4096), st.integers(1, 32768), st.integers(0, 40000),
    )
    def test_replaced_count_recomputes_results(self, slow, fast, seps, allowance, context, new):
        rep = replace(BudgetReport(slow, fast, seps, allowance, context), fast_tokens=new)
        total = slow + new + seps
        assert (rep.total_tokens, rep.rounded_k) == (total, (slow + new) // 1000)
        assert rep.fits_context == (total + allowance <= context)
        assert rep == BudgetReport(slow, new, seps, allowance, context)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(max_value=-1))
    def test_negative_allowance_rejected(self, allowance):
        with pytest.raises(ValueError, match="text_allowance must be a non-negative integer"):
            BudgetReport(7200, 2048, 1, allowance, 16384)
