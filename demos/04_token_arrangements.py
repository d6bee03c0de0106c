"""Grouped vs interleaved token arrangements on a miniature video.

Six frames, a 4x4 patch grid, two slow frames. The grouped layout emits
every slow token, one separator, then every fast token; the interleaved
layout walks frames in time order and closes each frame with a separator.
"""

from dataclasses import replace

from sftokens import (
    Arrangement,
    PatchGrid,
    PathwayConfig,
    plan_layout,
    project_video,
    select_slow_frames,
    synth_features,
)

cfg = PathwayConfig(n_total=6, n_slow=2, stride_h=2, stride_w=2, fast_rows=1, fast_cols=1)
frames = [synth_features(i, PatchGrid(4, 4), 1) for i in range(6)]

print(f"frames: {cfg.n_total}, slow selection: {select_slow_frames(cfg.n_total, cfg.n_slow)}")
print(f"slow tokens/frame: {(4 // 2) * (4 // 2)}, fast tokens/frame: {cfg.fast_tokens_per_frame}\n")

for arrangement in (Arrangement.GSF, Arrangement.ISF):
    seq = project_video(frames, replace(cfg, arrangement=arrangement))
    print(f"{arrangement.value}: {len(seq)} tokens "
          f"({seq.content_count} content + {seq.separator_count} separators)")
    for line in seq.layout_lines():
        print(f"  {line}")
    print()

# At deployment shape (128 frames, 30x30 grid) the two arrangements differ
# by the slow frames' worth of fast tokens: GSF covers every frame in the
# fast stream, ISF only the frames the slow stream skipped. plan_layout
# builds the same sequence as project_video from the patch grid alone.
big = PathwayConfig(n_total=128, n_slow=32)
gsf = plan_layout(big, PatchGrid(30, 30))
isf = plan_layout(replace(big, arrangement=Arrangement.ISF), PatchGrid(30, 30))
print(f"deployment GSF: {gsf.content_count} content tokens, {gsf.separator_count} separator")
print(f"deployment ISF: {isf.content_count} content tokens, {isf.separator_count} separators")
print(f"difference: {gsf.content_count - isf.content_count} "
      f"(= n_slow * fast tokens/frame = {big.n_slow * big.fast_tokens_per_frame})")
