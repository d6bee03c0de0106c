"""Slow/fast pathway execution and token arrangement."""

import re
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sftokens import (
    Arrangement,
    DEFAULT_VIDEO_CONFIG,
    FrameGrid,
    InvalidCount,
    InvalidOutputShape,
    NonDivisibleStride,
    PatchGrid,
    PathwayConfig,
    TokenBlock,
    TokenSequence,
    arrange_gsf,
    arrange_isf,
    avg_pool_adaptive,
    avg_pool_strided,
    fast_frame_indices,
    kernels,
    plan_layout,
    project_video,
    run_fast_pathway,
    run_slow_pathway,
    select_slow_frames,
    stage_two_defaults,
    synth_features,
    video_budget,
)
from sftokens import projector
from sftokens.config import load_config, pathway_from_config, stage_from_config, sweep_configs
from sftokens.projector import SEPARATOR


def make_frames(n, rows, cols, channels=1):
    return [synth_features(i, PatchGrid(rows, cols), channels) for i in range(n)]


MINI = PathwayConfig(n_total=2, n_slow=1, stride_h=2, stride_w=2, fast_rows=1, fast_cols=1)


class TestConfig:
    def test_n_fast_follows_arrangement(self):
        gsf = PathwayConfig(n_total=128, n_slow=32)
        assert gsf.n_fast == 128
        isf = replace(gsf, arrangement=Arrangement.ISF)
        assert isf.n_fast == 96

    def test_validation(self):
        with pytest.raises(ValueError):
            PathwayConfig(n_total=0, n_slow=0)
        with pytest.raises(ValueError):
            PathwayConfig(n_total=4, n_slow=5)
        with pytest.raises(ValueError):
            PathwayConfig(n_total=4, n_slow=2, stride_h=0)
        with pytest.raises(ValueError):
            PathwayConfig(n_total=4, n_slow=2, arrangement="XYZ")

    @pytest.mark.parametrize("bad", ["gsf", "XYZ", "", None, 1, ["GSF"]])
    def test_arrangement_error_names_the_key(self, bad):
        message = f"^arrangement must be 'GSF' or 'ISF', got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            PathwayConfig(n_total=4, n_slow=2, arrangement=bad)

    def test_arrangement_accepts_string(self):
        cfg = PathwayConfig(n_total=4, n_slow=2, arrangement="ISF")
        assert cfg.arrangement is Arrangement.ISF

    def test_n_separators_follows_arrangement(self):
        gsf = PathwayConfig(n_total=128, n_slow=32)
        assert gsf.n_separators == 1
        assert replace(gsf, arrangement=Arrangement.ISF).n_separators == 128

    def test_numpy_integers_stored_as_int(self):
        cfg = PathwayConfig(n_total=np.int64(8), n_slow=np.int32(2), fast_rows=np.uint8(2))
        assert (cfg.n_total, cfg.n_slow, cfg.fast_rows) == (8, 2, 2)
        assert all(type(v) is int for v in (cfg.n_total, cfg.n_slow, cfg.fast_rows))
        selection = select_slow_frames(np.int64(8), np.int32(2))
        assert selection == [0, 4] and all(type(i) is int for i in selection)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["n_total", "n_slow", "stride_h", "stride_w", "fast_rows", "fast_cols"]),
        st.one_of(st.floats(), st.booleans(), st.text()),
    )
    @example("n_total", 4.0)
    def test_non_integers_rejected_by_name(self, field, value):
        fields = {"n_total": 4, "n_slow": 2, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PathwayConfig(**fields)
        if field in ("n_total", "n_slow"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                select_slow_frames(fields["n_total"], fields["n_slow"])


class TestSlowSelection:
    def test_default_selection_strides_by_four(self):
        assert select_slow_frames(128, 32) == list(range(0, 128, 4))

    def test_identity_selection(self):
        assert select_slow_frames(7, 7) == list(range(7))

    def test_single_frame(self):
        assert select_slow_frames(128, 1) == [0]

    def test_empty_selection(self):
        assert select_slow_frames(16, 0) == []

    def test_too_many_raises(self):
        with pytest.raises(InvalidCount):
            select_slow_frames(4, 5)
        with pytest.raises(InvalidCount):
            select_slow_frames(4, -1)

    def test_strictly_increasing_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_total = int(rng.integers(1, 200))
            n_slow = int(rng.integers(0, n_total + 1))
            idx = select_slow_frames(n_total, n_slow)
            assert len(idx) == n_slow
            assert all(0 <= i < n_total for i in idx)
            assert all(b > a for a, b in zip(idx, idx[1:]))


class TestPathways:
    def test_slow_default_shapes(self):
        frames = make_frames(128, 30, 30)
        pooled = run_slow_pathway(frames, DEFAULT_VIDEO_CONFIG)
        assert len(pooled) == 32
        assert all(g.shape == (15, 15, 1) for g in pooled)

    def test_slow_single_frame_mean(self):
        cfg = PathwayConfig(n_total=1, n_slow=1, stride_h=2, stride_w=2, fast_rows=1, fast_cols=1)
        frames = [FrameGrid(np.array([[1.0, 2.0], [3.0, 4.0]]))]
        pooled = run_slow_pathway(frames, cfg)
        assert pooled[0].values[0, 0, 0] == 2.5

    def test_slow_constant_frames(self):
        cfg = PathwayConfig(n_total=3, n_slow=2, stride_h=2, stride_w=2)
        frames = [FrameGrid(np.full((8, 8), 7.0)) for _ in range(3)]
        pooled = run_slow_pathway(frames, cfg)
        assert all(np.allclose(g.values, 7.0) for g in pooled)

    def test_fast_gsf_covers_all_frames(self):
        frames = make_frames(128, 30, 30)
        pooled = run_fast_pathway(frames, DEFAULT_VIDEO_CONFIG)
        assert len(pooled) == 128
        assert all(g.shape == (4, 4, 1) for g in pooled)

    def test_fast_isf_covers_complement(self):
        cfg = replace(DEFAULT_VIDEO_CONFIG, arrangement=Arrangement.ISF)
        frames = make_frames(128, 30, 30)
        assert len(run_fast_pathway(frames, cfg)) == 96
        assert fast_frame_indices(cfg) == [
            i for i in range(128) if i not in set(select_slow_frames(128, 32))
        ]

    def test_fast_identity_when_target_matches(self):
        cfg = PathwayConfig(n_total=2, n_slow=1, fast_rows=4, fast_cols=4)
        frames = make_frames(2, 4, 4)
        pooled = run_fast_pathway(frames, cfg)
        for got, want in zip(pooled, frames):
            assert np.array_equal(got.values, want.values)

    def test_frame_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            run_slow_pathway(make_frames(3, 4, 4), PathwayConfig(n_total=4, n_slow=2))
        with pytest.raises(ValueError):
            run_fast_pathway(make_frames(5, 4, 4), PathwayConfig(n_total=4, n_slow=2))

    @pytest.mark.parametrize("run", [project_video, run_slow_pathway, run_fast_pathway])
    def test_frames_that_are_not_grids_rejected_by_index(self, run):
        cfg = PathwayConfig(n_total=4, n_slow=2, fast_rows=2, fast_cols=2)
        frames = make_frames(4, 4, 4)
        frames[2] = frames[2].values
        with pytest.raises(TypeError, match="^frame 2 must be a FrameGrid, got ndarray$"):
            run(frames, cfg)
        with pytest.raises(TypeError, match="^frame 0 must be a FrameGrid, got ndarray$"):
            run(np.zeros((4, 4, 4, 1)), cfg)

    @pytest.mark.parametrize("arrangement", ["GSF", "ISF"])
    def test_project_video_checks_frames_once_and_pools_each_stream(self, arrangement, monkeypatch):
        cfg = PathwayConfig(n_total=8, n_slow=3, fast_rows=2, fast_cols=2, arrangement=arrangement)
        frames = make_frames(8, 4, 4, 2)
        calls = []
        check = projector._check_frames
        monkeypatch.setattr(
            projector, "_check_frames", lambda *args: calls.append(args) or check(*args)
        )
        project_video(frames, cfg)
        assert len(calls) == 1
        slow, fast = select_slow_frames(8, 3), fast_frame_indices(cfg)
        assert [sorted(frame._pooled) for frame in frames] == [
            [("adaptive", 2, 2)] * (i in fast) + [("strided", 2, 2)] * (i in slow) for i in range(8)
        ]
        # The pathways find every result project_video kept.
        assert run_slow_pathway(frames, cfg) == [frames[i]._pooled["strided", 2, 2] for i in slow]
        assert run_fast_pathway(frames, cfg) == [frames[i]._pooled["adaptive", 2, 2] for i in fast]

    def test_mixed_frame_shapes_rejected(self):
        frames = make_frames(3, 4, 4) + make_frames(1, 2, 2)
        with pytest.raises(ValueError, match="share one shape"):
            project_video(frames, PathwayConfig(n_total=4, n_slow=2, fast_rows=2, fast_cols=2))


class TestTable4OverOneClip:
    """The Table 4 sweep over one list of frames pools each frame once per size."""

    def test_rows_match_rows_on_freshly_wrapped_frames(self):
        doc = load_config("table4.cfg")
        configs, _ = sweep_configs(doc, pathway_from_config(doc, stage_from_config(doc)))
        clip = np.random.default_rng(4).random((128, 30, 30, 4), dtype=np.float32)
        shared = [FrameGrid(frame) for frame in clip]
        for cfg in configs:
            fresh = [FrameGrid(frame) for frame in clip[:cfg.n_total]]
            frames = shared[:cfg.n_total]
            got, want = project_video(frames, cfg), project_video(fresh, cfg)
            assert got.layout_lines() == want.layout_lines()
            for run in (run_slow_pathway, run_fast_pathway):
                pooled = run(frames, cfg)
                assert [g.values.tobytes() for g in pooled] == [
                    g.values.tobytes() for g in run(fresh, cfg)
                ]
                assert all(a is b for a, b in zip(pooled, run(frames, cfg)))


@st.composite
def _stack_case(draw):
    """Frames of two shapes, a pathway config that fits both, and a stack bound."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    channels = draw(st.sampled_from([1, 2, 5]))
    fast_rows = draw(st.integers(1, 2))
    # Rows per adaptive bin: the rows after a bin's first take the three
    # branches of the row-bin sum, under 8, 8 to 128 and over 128.
    per_bin = draw(st.one_of(st.integers(1, 8), st.integers(9, 129), st.integers(130, 200)))
    rows = fast_rows * per_bin + draw(st.integers(0, fast_rows - 1))
    stride_h = draw(st.sampled_from([d for d in (1, 2, 3, 4) if rows % d == 0]))
    stride_w = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2, unique=True))
    cols = [stride_w * k for k in widths]
    fast_cols = draw(st.integers(1, min(cols)))
    n_total = draw(st.one_of(st.integers(1, 40), st.integers(30, 40)))
    shapes = draw(st.lists(st.integers(0, 1), min_size=n_total, max_size=n_total))
    if draw(st.booleans()):
        shapes.sort()  # two long runs rather than many short ones
    # Exponents far apart, so any change in the order of additions shows.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [
        (rng.standard_normal((rows, cols[s], channels))
         * 10.0 ** rng.integers(-20, 20, (rows, cols[s], channels))).astype(dtype)
        for s in shapes
    ]
    cfg = PathwayConfig(n_total=n_total, n_slow=draw(st.integers(0, n_total)),
                        stride_h=stride_h, stride_w=stride_w, fast_rows=fast_rows,
                        fast_cols=fast_cols, arrangement=draw(st.sampled_from(list(Arrangement))))
    # Stacks of one, two, a few or every frame of a run.
    bound = draw(st.sampled_from([1, 2, 3, 7, 40])) * values[0].nbytes
    kept = draw(st.sets(st.integers(0, n_total - 1), max_size=4))
    return values, cfg, bound, kept


def _strided_by_mean(v, sh, sw):
    rows, cols, ch = v.shape
    return v.reshape(rows // sh, sh, cols // sw, sw, ch).mean(axis=(1, 3))


def _adaptive_by_reduceat(v, out_rows, out_cols):
    rows, cols, _ = v.shape
    row_starts = [i * rows // out_rows for i in range(out_rows)]
    col_starts = [j * cols // out_cols for j in range(out_cols)]
    sums = np.add.reduceat(np.add.reduceat(v, row_starts, axis=0), col_starts, axis=1)
    counts = np.outer(np.diff(row_starts + [rows]), np.diff(col_starts + [cols]))
    return sums / counts[:, :, np.newaxis]


class TestStackedPooling:
    """The pathways pool runs of same-shape frames in stacks, bit-identical to one frame alone."""

    @settings(max_examples=200, deadline=None)
    @given(_stack_case())
    def test_results_match_single_frames(self, case):
        values, cfg, bound, kept = case
        frames = [FrameGrid(v) for v in values]
        # The plain numpy forms each kernel promises bit-identity with, on
        # the input widened to float64; they share no code with the kernels.
        pathways = [
            (run_slow_pathway, avg_pool_strided, _strided_by_mean, (cfg.stride_h, cfg.stride_w),
             select_slow_frames(cfg.n_total, cfg.n_slow)),
            (run_fast_pathway, avg_pool_adaptive, _adaptive_by_reduceat,
             (cfg.fast_rows, cfg.fast_cols), fast_frame_indices(cfg)),
        ]
        with mock.patch.object(kernels, "_STACK_BYTES", bound):
            for run, kernel, plain, sizes, indices in pathways:
                # Frames pooled alone first split the runs the pathway stacks.
                early = {i: kernel(frames[i], *sizes) for i in kept}
                pooled = run(frames, cfg)
                assert len(pooled) == len(indices)
                for i, got in zip(indices, pooled):
                    want = plain(values[i].astype(np.float64), *sizes)
                    assert got.values.dtype == np.float64 and not got.values.flags.writeable
                    assert got.values.shape == want.shape
                    assert got.values.tobytes() == want.tobytes()
                    assert got is early.get(i, got) is kernel(frames[i], *sizes)
                assert all(a is b for a, b in zip(pooled, run(frames, cfg)))

    def test_stack_of_one_is_neither_copied_nor_widened(self):
        # An encoder-width frame pools alone, as its own float32 array: each
        # traced peak stays below the frame (3.69 MB at 30x30, 3.60 MB at
        # 22x40), where a float64 copy of it would take twice that.
        rng = np.random.default_rng(0)
        for shape in ((30, 30, 1024), (22, 40, 1024)):
            frames = [FrameGrid(rng.standard_normal(shape, dtype=np.float32)) for _ in range(6)]
            cfg = PathwayConfig(n_total=4, n_slow=0)
            for pool in (lambda: avg_pool_strided(frames[0], 2, 2),
                         lambda: avg_pool_adaptive(frames[1], 4, 4),
                         lambda: run_fast_pathway(frames[2:], cfg)):
                tracemalloc.start()
                try:
                    pool()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < frames[0].values.nbytes, (shape, peak)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.data(), st.sampled_from([1, 2, 5]))
    def test_overflow_keeps_nothing_for_its_stack(self, n_total, data, channels):
        huge = data.draw(st.integers(0, n_total - 1))
        per_stack = data.draw(st.integers(1, n_total))
        values = [np.full((4, 4, channels), float(i)) for i in range(n_total)]
        values[huge] = np.full((4, 4, channels), 1.7e308)  # finite; its 2x2 sums are not
        cfg = PathwayConfig(n_total=n_total, n_slow=n_total, fast_rows=2, fast_cols=2)
        start = huge - huge % per_stack  # the overflowing frame's stack starts here
        with mock.patch.object(kernels, "_STACK_BYTES", per_stack * values[0].nbytes):
            for run in (run_slow_pathway, run_fast_pathway):
                frames = [FrameGrid(v) for v in values]
                with np.errstate(over="ignore"):
                    for _ in range(2):
                        with pytest.raises(ValueError, match="^grid values must be finite$"):
                            run(frames, cfg)
                assert [bool(frame._pooled) for frame in frames] == [
                    i < start for i in range(n_total)
                ]

    @pytest.mark.parametrize("cpus", [1, max(2, kernels._cpus())], ids=["serial", "split"])
    @pytest.mark.parametrize("huge", range(6))
    def test_encoder_width_overflow_keeps_the_frames_before_it(self, huge, cpus):
        # 256 KiB frames pool alone, their stacks spread over the CPUs.
        values = [np.full((8, 8, 512), float(i)) for i in range(6)]
        values[huge] = np.full((8, 8, 512), 1.7e308)
        cfg = PathwayConfig(n_total=6, n_slow=6, fast_rows=2, fast_cols=2)
        with mock.patch.object(kernels, "_cpus", lambda: cpus):
            for run in (run_slow_pathway, run_fast_pathway):
                frames = [FrameGrid(v) for v in values]
                with np.errstate(over="ignore"):
                    with pytest.raises(ValueError, match="^grid values must be finite$"):
                        run(frames, cfg)
                assert [bool(frame._pooled) for frame in frames] == [i < huge for i in range(6)]


class TestArrangeGsf:
    def test_default_counts(self):
        seq = project_video(make_frames(128, 30, 30), DEFAULT_VIDEO_CONFIG)
        assert len(seq) == 32 * 225 + 1 + 128 * 16 == 9249
        assert seq.content_count == 9248
        assert seq.separator_count == 1

    def test_empty_slow_starts_with_separator(self):
        cfg = PathwayConfig(n_total=2, n_slow=0, fast_rows=1, fast_cols=1)
        seq = project_video(make_frames(2, 2, 2), cfg)
        assert seq.blocks[0] == SEPARATOR
        assert seq.layout_lines()[0] == "SEP - - - -"
        assert seq.content_count == 2

    def test_smallest_case_layout(self):
        cfg = PathwayConfig(n_total=1, n_slow=1, stride_h=1, stride_w=1, fast_rows=1, fast_cols=1)
        seq = project_video([FrameGrid(np.ones((1, 1)))], cfg)
        assert seq.blocks == (
            TokenBlock("slow", 0, 1, 1),
            SEPARATOR,
            TokenBlock("fast", 0, 1, 1),
        )
        assert seq.layout_lines() == ["TOK slow 0 0 0", "SEP - - - -", "TOK fast 0 0 0"]

    def test_config_must_match_entry_point(self):
        grid = PatchGrid(2, 2)  # fits, so only the arrangement can be at fault
        cfg = PathwayConfig(n_total=1, n_slow=1, fast_rows=1, fast_cols=1)
        with pytest.raises(ValueError, match="^a GSF config cannot be arranged ISF$"):
            arrange_isf(cfg, grid)
        with pytest.raises(ValueError, match="^a ISF config cannot be arranged GSF$"):
            arrange_gsf(replace(cfg, arrangement=Arrangement.ISF), grid)

    def test_block_order_slow_then_fast(self):
        seq = project_video(make_frames(4, 2, 2), replace(MINI, n_total=4, n_slow=2))
        kinds = [line.split()[:2] for line in seq.layout_lines()]
        sep_at = kinds.index(["SEP", "-"])
        assert all(p == "slow" for _, p in kinds[:sep_at])
        assert all(p == "fast" for _, p in kinds[sep_at + 1:])


class TestArrangeIsf:
    def test_default_shape_counts(self):
        cfg = replace(DEFAULT_VIDEO_CONFIG, arrangement=Arrangement.ISF)
        seq = project_video(make_frames(128, 30, 30), cfg)
        assert len(seq) == 7200 + 1536 + 128 == 8864
        assert seq.content_count == 8736
        assert seq.separator_count == 128

    def test_two_frame_miniature(self):
        cfg = replace(MINI, arrangement=Arrangement.ISF)
        seq = project_video(make_frames(2, 2, 2), cfg)
        assert seq.blocks == (
            TokenBlock("slow", 0, 1, 1),
            SEPARATOR,
            TokenBlock("fast", 1, 1, 1),
            SEPARATOR,
        )
        assert seq.layout_lines() == [
            "TOK slow 0 0 0", "SEP - - - -", "TOK fast 1 0 0", "SEP - - - -",
        ]

    def test_all_slow_one_separator_each(self):
        cfg = PathwayConfig(
            n_total=3, n_slow=3, stride_h=1, stride_w=1, fast_rows=1, fast_cols=1,
            arrangement=Arrangement.ISF,
        )
        seq = project_video(make_frames(3, 2, 2), cfg)
        assert seq.separator_count == 3
        assert seq.content_count == 12

    def test_frame_indices_non_decreasing(self):
        cfg = PathwayConfig(n_total=9, n_slow=4, stride_h=2, stride_w=2,
                            fast_rows=2, fast_cols=2, arrangement=Arrangement.ISF)
        seq = project_video(make_frames(9, 4, 4), cfg)
        frames = [int(line.split()[2]) for line in seq.layout_lines() if line.startswith("TOK")]
        assert frames == sorted(frames)


class TestLayoutExport:
    def test_gsf_miniature_lines(self):
        seq = project_video(make_frames(2, 2, 2), MINI)
        assert seq.layout_lines() == [
            "TOK slow 0 0 0",
            "SEP - - - -",
            "TOK fast 0 0 0",
            "TOK fast 1 0 0",
        ]

    def test_row_major_positions(self):
        cfg = PathwayConfig(n_total=1, n_slow=1, stride_h=1, stride_w=1,
                            fast_rows=1, fast_cols=1)
        seq = project_video([FrameGrid(np.ones((2, 3)))], cfg)
        slow_lines = [l for l in seq.layout_lines() if l.startswith("TOK slow")]
        assert slow_lines == [
            "TOK slow 0 0 0",
            "TOK slow 0 0 1",
            "TOK slow 0 0 2",
            "TOK slow 0 1 0",
            "TOK slow 0 1 1",
            "TOK slow 0 1 2",
        ]


def _count_arrangements(monkeypatch) -> list[str]:
    """Wrap both arrange functions so each call appends its name to the returned list."""
    calls: list[str] = []
    for name in ("arrange_gsf", "arrange_isf"):
        def counted(cfg, grid, arrange=getattr(projector, name), name=name):
            calls.append(name)
            return arrange(cfg, grid)

        monkeypatch.setattr(projector, name, counted)
    return calls


class TestTokenSequence:
    """A sequence holds its config and grid; its blocks are built only when read."""

    CONFIGS = [DEFAULT_VIDEO_CONFIG, replace(DEFAULT_VIDEO_CONFIG, arrangement=Arrangement.ISF)]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["GSF", "ISF"])
    def test_planning_and_projecting_build_no_blocks(self, monkeypatch, cfg):
        calls = _count_arrangements(monkeypatch)
        planned = plan_layout(cfg, PatchGrid(30, 30))
        projected = project_video(make_frames(128, 30, 30), cfg)
        assert len(planned) == len(projected) == (9249 if cfg is DEFAULT_VIDEO_CONFIG else 8864)
        assert (planned.content_count, planned.separator_count) == (
            projected.content_count, projected.separator_count,
        )
        assert calls == []

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["GSF", "ISF"])
    def test_first_read_builds_the_blocks_once(self, monkeypatch, cfg):
        grid = PatchGrid(30, 30)
        want = (arrange_gsf if cfg.arrangement is Arrangement.GSF else arrange_isf)(cfg, grid)
        calls = _count_arrangements(monkeypatch)
        seq = plan_layout(cfg, grid)
        blocks = seq.blocks
        assert calls == [f"arrange_{cfg.arrangement.value.lower()}"]
        assert seq.blocks is blocks and blocks == want
        assert len(calls) == 1

    def test_equality_hash_and_repr_go_by_config_and_grid(self):
        grid = PatchGrid(30, 30)
        seq = TokenSequence(DEFAULT_VIDEO_CONFIG, grid)
        read = plan_layout(DEFAULT_VIDEO_CONFIG, grid)
        assert read.blocks  # a cached block tuple changes neither equality nor repr
        assert seq == read and hash(seq) == hash(read)
        assert repr(seq) == repr(read) == (
            f"TokenSequence(config={DEFAULT_VIDEO_CONFIG!r}, grid={grid!r})"
        )
        assert seq != TokenSequence(DEFAULT_VIDEO_CONFIG, PatchGrid(30, 32))
        assert seq != TokenSequence(replace(DEFAULT_VIDEO_CONFIG, n_slow=31), grid)


class TestArrangementLaws:
    """Length laws on random configs; the acceptance suite runs 1000."""

    def test_length_laws_and_partition(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            stride_h = int(rng.integers(1, 4))
            stride_w = int(rng.integers(1, 4))
            rows = stride_h * int(rng.integers(1, 4))
            cols = stride_w * int(rng.integers(1, 4))
            n_total = int(rng.integers(1, 13))
            n_slow = int(rng.integers(0, n_total + 1))
            fast_rows = int(rng.integers(1, rows + 1))
            fast_cols = int(rng.integers(1, cols + 1))
            frames = make_frames(n_total, rows, cols)

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
            covered = sorted(
                {b.frame for b in seq_i.blocks for _ in range(b.rows * b.cols) if b != SEPARATOR}
            )
            assert covered == list(range(n_total))
            assert seq_g.content_count - seq_i.content_count == n_slow * fast_per_frame

    def test_determinism(self):
        frames = make_frames(6, 4, 4, channels=2)
        cfg = PathwayConfig(n_total=6, n_slow=2, fast_rows=2, fast_cols=2)
        assert project_video(frames, cfg) == project_video(frames, cfg)
        assert project_video(frames, cfg).blocks == project_video(frames, cfg).blocks


@st.composite
def _layout_case(draw):
    stride_h, stride_w = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = stride_h * draw(st.integers(1, 64 // stride_h))
    cols = stride_w * draw(st.integers(1, 64 // stride_w))
    n_total = draw(st.integers(1, 512))
    cfg = PathwayConfig(
        n_total=n_total,
        n_slow=draw(st.integers(0, n_total)),
        stride_h=stride_h,
        stride_w=stride_w,
        fast_rows=draw(st.integers(1, rows // stride_h)),
        fast_cols=draw(st.integers(1, cols // stride_w)),
        arrangement=draw(st.sampled_from(Arrangement)),
    )
    return cfg, PatchGrid(rows, cols)


@st.composite
def _misfit_case(draw):
    """Any small grid and pathway, so strides may not divide and fast grids may not fit."""
    n_total = draw(st.integers(1, 8))
    cfg = PathwayConfig(
        n_total=n_total,
        n_slow=draw(st.sampled_from([0, n_total, draw(st.integers(0, n_total))])),
        stride_h=draw(st.integers(1, 4)),
        stride_w=draw(st.integers(1, 4)),
        fast_rows=draw(st.integers(1, 10)),
        fast_cols=draw(st.integers(1, 10)),
        arrangement=draw(st.sampled_from(Arrangement)),
    )
    return cfg, PatchGrid(draw(st.integers(1, 9)), draw(st.integers(1, 9)))


def _message(call):
    """The type and message of the misfit ``call`` raises, or None."""
    try:
        call()
    except (NonDivisibleStride, InvalidOutputShape) as exc:
        return type(exc), str(exc)
    return None


def _raised(call):
    try:
        call()
    except (NonDivisibleStride, InvalidOutputShape) as exc:
        return type(exc)
    return None


class TestLayoutProperty:
    """Budget counts, sequence counts and rendered lines agree everywhere."""

    @settings(max_examples=100, deadline=None)
    @given(_layout_case())
    def test_budget_blocks_and_lines_agree(self, case):
        cfg, patch = case
        frames = [synth_features(0, patch, 1)] * cfg.n_total
        seq = project_video(frames, cfg)
        report = video_budget(cfg, patch, stage_two_defaults())
        assert plan_layout(cfg, patch) == seq

        # The k-th block of each stream is the k-th frame that stream pools,
        # at the shape its pathway pools it to.
        for pathway, chosen, run in (
            ("slow", select_slow_frames(cfg.n_total, cfg.n_slow), run_slow_pathway),
            ("fast", fast_frame_indices(cfg), run_fast_pathway),
        ):
            blocks = [b[1:] for b in seq.blocks if b.pathway == pathway]
            pooled = [grid.shape[:2] for grid in run(frames, cfg)]
            assert blocks == [(f, *shape) for f, shape in zip(chosen, pooled)]
            assert len(blocks) == len(chosen) == len(pooled)

        def tokens(pathway):
            return sum(b.rows * b.cols for b in seq.blocks if b.pathway == pathway)

        assert (tokens("slow"), tokens("fast"), seq.separator_count) == (
            report.slow_tokens, report.fast_tokens, report.separator_tokens,
        )
        assert seq.content_count == report.content_tokens
        assert len(seq) == len(seq.layout_lines()) == report.total_tokens
        assert sum(b.rows * b.cols for b in seq.blocks) == len(seq)  # the block sum as oracle

        content = [b.frame for b in seq.blocks if b != SEPARATOR]
        if cfg.arrangement is Arrangement.ISF:
            assert content == list(range(cfg.n_total))
            assert seq.blocks[1::2] == (SEPARATOR,) * cfg.n_total
        else:
            pathways = [b.pathway for b in seq.blocks]
            assert pathways == ["slow"] * cfg.n_slow + ["separator"] + ["fast"] * cfg.n_total

    @settings(max_examples=300, deadline=None)
    @given(_misfit_case())
    def test_planner_and_budget_raise_when_pooling_does(self, case):
        cfg, patch = case
        frames = [synth_features(0, patch, 1)] * cfg.n_total
        pooled = _message(lambda: project_video(frames, cfg))
        planned = _message(lambda: plan_layout(cfg, patch))
        built = _message(lambda: TokenSequence(cfg, patch))
        budgeted = _message(lambda: video_budget(cfg, patch, stage_two_defaults()))

        slow_misfit = cfg.n_slow > 0 and bool(patch.rows % cfg.stride_h or patch.cols % cfg.stride_w)
        fast_misfit = cfg.n_fast > 0 and (cfg.fast_rows > patch.rows or cfg.fast_cols > patch.cols)
        raises = slow_misfit or fast_misfit
        assert (pooled is not None, planned is not None, budgeted is not None) == (raises,) * 3
        assert pooled == planned == built == budgeted  # one error type and message
        if raises:
            assert pooled[0] is (InvalidOutputShape if fast_misfit else NonDivisibleStride)
            assert not frames[0]._pooled  # a misfit is found before anything pools
        else:
            assert plan_layout(cfg, patch) == project_video(frames, cfg)


class TestPathwayMisfits:
    @settings(max_examples=200, deadline=None)
    @given(_misfit_case())
    def test_each_pathway_raises_exactly_on_its_misfit_and_keeps_nothing(self, case):
        cfg, patch = case
        frames = [synth_features(i, patch, 2) for i in range(cfg.n_total)]
        slow_misfit = cfg.n_slow > 0 and bool(patch.rows % cfg.stride_h or patch.cols % cfg.stride_w)
        fast_misfit = cfg.n_fast > 0 and (cfg.fast_rows > patch.rows or cfg.fast_cols > patch.cols)
        for run, kind, misfit, error in (
            (run_slow_pathway, "strided", slow_misfit, NonDivisibleStride),
            (run_fast_pathway, "adaptive", fast_misfit, InvalidOutputShape),
        ):
            assert _raised(lambda: run(frames, cfg)) is (error if misfit else None)
            if misfit:
                assert not [key for frame in frames for key in frame._pooled if key[0] == kind]
