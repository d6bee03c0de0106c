"""The planning records' contract: the dataclasses API on slotted, immutable records."""

import copy
import dataclasses
import pickle
import re

import pytest

from sftokens import (
    AreaThresholds,
    BudgetReport,
    InvalidDuration,
    NonDivisibleStride,
    PatchGrid,
    PathwayConfig,
    Resolution,
    ResizePlan,
    SamplingPlan,
    TokenSequence,
    sample_frames,
    stage_one_defaults,
)

BAND = AreaThresholds(0, 100000)
MINI = PathwayConfig(4, 2, arrangement="ISF")
STAGE_ONE_REPR = (
    "StageConfig(stage='I', context_length=8192, min_image_area=0, max_image_area=1638400, "
    "base_image_side=384, video_min_area=None, video_max_area=None, max_frames=None, patch=16)"
)

# Per record: a valid record, its repr, its fields with their init flags,
# and one bad change with the error and message the constructor gives.
RECORDS = [
    (Resolution(2, 3), "Resolution(height=2, width=3)", "height width",
     {"height": 0}, ValueError, "resolution must be positive, got 0x3"),
    (AreaThresholds(0, 10), "AreaThresholds(min_area=0, max_area=10)", "min_area max_area",
     {"min_area": 10}, ValueError, "min_area must be below max_area, got [10, 10]"),
    (ResizePlan(Resolution(100, 200), BAND, 16),
     "ResizePlan(source=Resolution(height=100, width=200), thresholds=AreaThresholds(min_area=0, "
     "max_area=100000), patch=16, scale=1.0, target=Resolution(height=96, width=192), "
     "below_min=False)",
     "source thresholds patch -scale -target -below_min",
     {"patch": 0}, ValueError, "patch must be positive, got 0"),
    (PatchGrid(2, 3), "PatchGrid(rows=2, cols=3)", "rows cols",
     {"cols": 0}, ValueError, "grid must be positive, got 2x0"),
    (SamplingPlan(2.5, 1.0, 128),
     "SamplingPlan(source_duration=2.5, target_fps=1.0, max_frames=128, mode='fps', "
     "timestamps=(0.0, 1.0, 2.0))",
     "source_duration target_fps max_frames -mode -timestamps",
     {"source_duration": -1}, InvalidDuration, "duration must be positive and finite, got -1"),
    (MINI,
     "PathwayConfig(n_total=4, n_slow=2, stride_h=2, stride_w=2, fast_rows=4, fast_cols=4, "
     "arrangement=<Arrangement.ISF: 'ISF'>)",
     "n_total n_slow stride_h stride_w fast_rows fast_cols arrangement",
     {"n_slow": 5}, ValueError, "n_slow must be in [0, 4], got 5"),
    (TokenSequence(MINI, PatchGrid(4, 4)),
     f"TokenSequence(config={MINI!r}, grid=PatchGrid(rows=4, cols=4))",
     "config grid -content_count -separator_count",
     {"grid": PatchGrid(4, 5)}, NonDivisibleStride, "strides 2x2 do not divide grid 4x5"),
    (stage_one_defaults(), STAGE_ONE_REPR,
     "stage context_length min_image_area max_image_area base_image_side video_min_area "
     "video_max_area max_frames patch",
     {"max_frames": 8}, ValueError, "stage I is image-only but sets max_frames"),
    (BudgetReport(16, 64, 4, 512, 8192),
     "BudgetReport(slow_tokens=16, fast_tokens=64, separator_tokens=4, text_allowance=512, "
     "context_length=8192)",
     "slow_tokens fast_tokens separator_tokens text_allowance context_length",
     {"text_allowance": -1}, ValueError, "text_allowance must be a non-negative integer, got -1"),
]
IDS = [type(case[0]).__name__ for case in RECORDS]


@pytest.mark.parametrize("record, shown, spec, bad, error, message", RECORDS, ids=IDS)
def test_record_contract(record, shown, spec, bad, error, message):
    # Today's fields, in order; a leading "-" marks a derived (init=False) field.
    want = [(name.lstrip("-"), not name.startswith("-")) for name in spec.split()]
    assert [(f.name, f.init) for f in dataclasses.fields(record)] == want
    assert dataclasses.is_dataclass(record) and repr(record) == shown
    assert list(dataclasses.asdict(record)) == [name for name, _ in want]

    for rebuild in (dataclasses.replace, type(record)._replace):
        assert rebuild(record) == record
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            rebuild(record, **bad)
        for name in [name for name, init in want if not init]:
            with pytest.raises(ValueError, match=f"^field {name} is declared with init=False"):
                rebuild(record, **{name: getattr(record, name)})

    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(copied) is type(record) and copied == record
        assert hash(copied) == hash(record) and repr(copied) == shown

    first = want[0][0]
    with pytest.raises(AttributeError):
        setattr(record, first, getattr(record, first))
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == shown


def test_records_of_different_types_never_compare_equal():
    records = [case[0] for case in RECORDS] + [PatchGrid(2, 3)]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert (a == b) is (type(a) is type(b) and repr(a) == repr(b))
    assert PatchGrid(2, 3) != Resolution(2, 3) and PatchGrid(2, 3) != (2, 3)
    assert hash(PatchGrid(2, 3)) != hash(Resolution(2, 3))
    assert hash(AreaThresholds(2, 3)) != hash(Resolution(2, 3))


def test_replace_reruns_the_checks_and_derives_again():
    plan = sample_frames(2.5)
    assert plan._replace(max_frames=2) == sample_frames(2.5, 1.0, 2)
    assert plan._replace(max_frames=2).mode == "uniform-fallback"
    assert type(MINI._replace(arrangement="GSF").arrangement).__name__ == "Arrangement"
    with pytest.raises(TypeError):
        MINI._replace(n_fast=3)


HUGE = 10**5000


@pytest.mark.parametrize("build, error, message", [
    (lambda: sample_frames(HUGE), InvalidDuration,
     "duration must be positive and finite, got <int too long to print>"),
    (lambda: sample_frames(-HUGE), InvalidDuration,
     "duration must be positive and finite, got -<int too long to print>"),
    (lambda: sample_frames(10, 1.0, -HUGE), ValueError,
     "max_frames must be at least 1, got -<int too long to print>"),
    (lambda: Resolution(-HUGE, 1), ValueError,
     "resolution must be positive, got -<int too long to print>x1"),
    (lambda: PatchGrid(0, HUGE), ValueError, "grid must be positive, got 0x<int too long to print>"),
    (lambda: PathwayConfig(HUGE, -1), ValueError,
     "n_slow must be in [0, <int too long to print>], got -1"),
], ids=["duration", "negative-duration", "cap", "resolution", "grid", "pathway"])
def test_huge_integers_raise_the_named_error(build, error, message):
    # str() of an int over 4,300 digits raises ValueError, which used to
    # escape from building the message instead of the named error.
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        build()
    assert type(info.value) is error

