"""Token budgets and context-fit planning.

Reproduces the design-choice and projector-comparison token columns
pinned by the bundled sweep configs, then budgets image inputs.
"""

from dataclasses import replace

from sftokens import (
    Resolution,
    image_budget,
    stage_one_defaults,
    stage_two_defaults,
    stage_video_grid,
    sweep,
    sweep_csv,
    validate_stage,
)
from sftokens.config import load_config, pathway_from_config, stage_from_config, sweep_configs

for name in ("table4.cfg", "table5.cfg"):
    doc = load_config(name)
    stage = stage_from_config(doc)
    configs, labels = sweep_configs(doc, pathway_from_config(doc, stage))
    reports = sweep(configs, stage_video_grid(stage), stage)
    print(f"== {name} (context {stage.context_length}, "
          f"frame grid {stage_video_grid(stage).rows}x{stage_video_grid(stage).cols})")
    width = max(len(l) for l in labels)
    for label, rep in zip(labels, reports):
        verdict = "fits" if rep.fits_context else "OVERFLOW"
        print(f"  {label:<{width}}  content={rep.content_tokens:>6} ({rep.rounded_label:>3})  "
              f"total={rep.total_tokens:>6}  {verdict}")
    print()

# The same sweep as machine-readable CSV.
doc = load_config("table4.cfg")
stage = stage_from_config(doc)
configs, _ = sweep_configs(doc, pathway_from_config(doc, stage))
print(sweep_csv(configs, sweep(configs, stage_video_grid(stage), stage)))

# Image budgets: a fixed low-resolution pass plus a planned high-res pass.
for stage in (stage_one_defaults(), stage_two_defaults()):
    side = 1280 if stage.stage == "I" else 1536
    rep = image_budget(Resolution(side, side), stage)
    print(f"stage {stage.stage}: {side}x{side} image -> low {rep.fast_tokens} + "
          f"high {rep.slow_tokens} = {rep.total_tokens} tokens "
          f"(context {stage.context_length}, fits={rep.fits_context})")

# Stage validation: the stage II defaults are coherent.
print(f"\nstage II findings: {validate_stage(stage_two_defaults()) or 'none'}")

# At a 10K context the video still fits but the worst-case image does not:
# `sft plan --set context_length=10000` exits 2 and prints this finding on stderr.
for finding in validate_stage(replace(stage_two_defaults(), context_length=10000)):
    print(f"stage II at context 10000: {finding}")

# A malformed stage is rejected where it is built, naming the key at fault.
try:
    replace(stage_two_defaults(), video_min_area=0, video_max_area=100)
except ValueError as exc:
    print(f"a 10x10 video band is rejected: {exc}")
