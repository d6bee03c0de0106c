"""Two-stream token projector: slow/fast pooling and token arrangement.

The slow stream keeps a uniform subset of frames at high spatial detail
(light strided pooling); the fast stream covers frames at full rate but
pooled down to a small fixed grid. The pooled frames form one token
sequence, grouped (GSF: every slow frame, one separator, then every frame
fast) or interleaved (ISF: frames in time order, each slow or else fast,
each closed by a separator).

These rules live only here. ``token_counts`` is the one token count, for
sequences and budgets alike. A sequence holds its config and patch grid, and
builds its blocks (one per pooled frame or separator) on first read through
``arrange_gsf`` or ``arrange_isf``; ``layout_lines`` alone spells out a
frame's tokens, its grid cells in row-major order. ``project_video`` checks
its frames, plans their sequence and pools the frames its blocks name.
Equal inputs give equal sequences. ``PathwayConfig`` and ``TokenSequence``
are ``geometry.Record``s. Nothing here needs numpy until a pathway pools, so
the budget can import this module without it.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import InvalidCount, InvalidOutputShape
from .geometry import PatchGrid, Record, as_counts, check_strides_divide, show


class Arrangement(str, Enum):
    """Token ordering of the combined sequence."""

    GSF = "GSF"
    ISF = "ISF"


class PathwayConfig(Record):
    """Shape of the two-stream projector.

    Attributes:
        n_total: Total sampled frames.
        n_slow: Frames kept by the slow stream (0 disables it).
        stride_h, stride_w: Slow-stream pooling strides.
        fast_rows, fast_cols: Fast-stream target grid.
        arrangement: Token ordering; also fixes the fast frame count:
            GSF runs the fast stream over all frames, ISF over the
            complement of the slow selection.
    """

    __slots__ = ("n_total", "n_slow", "stride_h", "stride_w", "fast_rows", "fast_cols",
                 "arrangement")

    def __init__(self, n_total: int, n_slow: int, stride_h: int = 2, stride_w: int = 2,
                 fast_rows: int = 4, fast_cols: int = 4,
                 arrangement: Arrangement = Arrangement.GSF) -> None:
        counts = as_counts(self._fields, n_total, n_slow, stride_h, stride_w, fast_rows, fast_cols)
        n_total, n_slow, stride_h, stride_w, fast_rows, fast_cols = counts
        if n_total < 1:
            raise ValueError(f"n_total must be positive, got {show(n_total)}")
        if not 0 <= n_slow <= n_total:
            raise ValueError(f"n_slow must be in [0, {show(n_total)}], got {show(n_slow)}")
        if stride_h < 1 or stride_w < 1:
            raise ValueError("strides must be positive")
        if fast_rows < 1 or fast_cols < 1:
            raise ValueError("fast grid must be positive")
        if arrangement not in ("GSF", "ISF"):
            raise ValueError(f"arrangement must be 'GSF' or 'ISF', got {show(arrangement, repr)}")
        self._set(*counts, Arrangement(arrangement))

    @property
    def n_fast(self) -> int:
        return self.n_total if self.arrangement is Arrangement.GSF else self.n_total - self.n_slow

    @property
    def n_separators(self) -> int:
        return 1 if self.arrangement is Arrangement.GSF else self.n_total

    @property
    def fast_tokens_per_frame(self) -> int:
        return self.fast_rows * self.fast_cols


DEFAULT_VIDEO_CONFIG = PathwayConfig(n_total=128, n_slow=32)


TokenBlock = namedtuple("TokenBlock", "pathway frame rows cols")
TokenBlock.__doc__ = """One pooled frame's ``rows * cols`` tokens, or the ``SEPARATOR`` block.

``pathway`` is the str ``"slow"``, ``"fast"`` or ``"separator"``; ``frame``
the int index of the pooled frame, None for the separator; ``rows`` and
``cols`` ints.
"""


SEPARATOR = TokenBlock("separator", None, 1, 1)


class TokenSequence(Record):
    """The tokens ``config`` lays out on frames of ``grid``; ``blocks`` is built on first read."""

    __slots__ = ("config", "grid", "content_count", "separator_count", "_block_cache")
    _shown = ("config", "grid")

    def __init__(self, config: PathwayConfig, grid: PatchGrid) -> None:
        slow, fast, separators = token_counts(config, grid)
        self._set(config, grid, slow + fast, separators)

    def __len__(self) -> int:
        return self.content_count + self.separator_count

    @property
    def blocks(self) -> tuple[TokenBlock, ...]:
        if not hasattr(self, "_block_cache"):
            arrange = arrange_gsf if self.config.arrangement is Arrangement.GSF else arrange_isf
            object.__setattr__(self, "_block_cache", arrange(self.config, self.grid))
        return self._block_cache

    def layout_lines(self) -> list[str]:
        """Render one line per token: ``kind pathway frame row col``."""
        lines: list[str] = []
        cells: dict[tuple[int, int], list[str]] = {}  # "row col" strings per block shape
        for block in self.blocks:
            if block == SEPARATOR:
                lines.append("SEP - - - -")
                continue
            pathway, frame, rows, cols = block
            if (rows, cols) not in cells:
                cells[rows, cols] = [f"{row} {col}" for row in range(rows) for col in range(cols)]
            lines.extend(map(f"TOK {pathway} {frame} ".__add__, cells[rows, cols]))
        return lines


def select_slow_frames(n_total: int, n_slow: int) -> list[int]:
    """Uniformly select ``n_slow`` frame indices out of ``n_total``.

    Returns ``floor(i * n_total / n_slow)`` for each i, strictly increasing.
    ``n_slow = 0`` yields an empty selection.

    Raises:
        ValueError: If either count is not an integer.
        InvalidCount: If ``n_slow`` is negative or exceeds ``n_total``.
    """
    n_total, n_slow = as_counts(("n_total", "n_slow"), n_total, n_slow)
    if n_slow < 0 or n_slow > n_total:
        raise InvalidCount(f"n_slow must be in [0, {show(n_total)}], got {show(n_slow)}")
    return [i * n_total // n_slow for i in range(n_slow)]


def fast_frame_indices(cfg: PathwayConfig) -> list[int]:
    """Frames the fast stream covers: all of them, or the slow complement."""
    if cfg.arrangement is Arrangement.GSF:
        return list(range(cfg.n_total))
    slow = set(select_slow_frames(cfg.n_total, cfg.n_slow))
    return [i for i in range(cfg.n_total) if i not in slow]


def slow_grid(cfg: PathwayConfig, grid: PatchGrid) -> tuple[int, int]:
    """Check that ``cfg`` fits frames of ``grid``; return one slow frame's pooled grid.

    Raises ``InvalidOutputShape`` if the fast stream runs and its grid exceeds
    ``grid``, then ``NonDivisibleStride`` if the slow stream runs and its
    strides do not divide ``grid``.
    """
    if cfg.n_fast > 0 and (cfg.fast_rows > grid.rows or cfg.fast_cols > grid.cols):
        raise InvalidOutputShape(
            f"fast grid {cfg.fast_rows}x{cfg.fast_cols} exceeds frame grid {grid.rows}x{grid.cols}"
        )
    if cfg.n_slow:
        check_strides_divide(cfg.stride_h, cfg.stride_w, grid.rows, grid.cols)
    return grid.rows // cfg.stride_h, grid.cols // cfg.stride_w


def token_counts(cfg: PathwayConfig, grid: PatchGrid) -> tuple[int, int, int]:
    """Slow, fast and separator tokens of ``cfg`` on ``grid``; raises as ``slow_grid`` does."""
    rows, cols = slow_grid(cfg, grid)
    return cfg.n_slow * rows * cols, cfg.n_fast * cfg.fast_tokens_per_frame, cfg.n_separators


def _check_frames(frames: Sequence[FrameGrid], cfg: PathwayConfig) -> None:
    from .kernels import FrameGrid  # numpy loads on first pooling, not on import

    if len(frames) != cfg.n_total:
        raise ValueError(f"expected {cfg.n_total} frames, got {len(frames)}")
    for i, frame in enumerate(frames):
        if not isinstance(frame, FrameGrid):
            raise TypeError(f"frame {i} must be a FrameGrid, got {type(frame).__name__}")


def run_slow_pathway(frames: Sequence[FrameGrid], cfg: PathwayConfig) -> list[FrameGrid]:
    """Pool the slow frames in stacks, on the path ``avg_pool_strided`` runs for one."""
    from .kernels import _pool

    _check_frames(frames, cfg)
    slow = [frames[i] for i in select_slow_frames(cfg.n_total, cfg.n_slow)]
    return _pool(slow, "strided", cfg.stride_h, cfg.stride_w)


def run_fast_pathway(frames: Sequence[FrameGrid], cfg: PathwayConfig) -> list[FrameGrid]:
    """Pool the fast frames in stacks, on the path ``avg_pool_adaptive`` runs for one."""
    from .kernels import _pool

    _check_frames(frames, cfg)
    fast = [frames[i] for i in fast_frame_indices(cfg)]
    return _pool(fast, "adaptive", cfg.fast_rows, cfg.fast_cols)


def _blocks(cfg: PathwayConfig, grid: PatchGrid, order: Arrangement) -> tuple[list, list]:
    if cfg.arrangement is not order:
        raise ValueError(f"a {cfg.arrangement.value} config cannot be arranged {order.value}")
    rows, cols = slow_grid(cfg, grid)
    slow = [TokenBlock("slow", f, rows, cols) for f in select_slow_frames(cfg.n_total, cfg.n_slow)]
    fast = [TokenBlock("fast", f, cfg.fast_rows, cfg.fast_cols) for f in fast_frame_indices(cfg)]
    return slow, fast


def arrange_gsf(cfg: PathwayConfig, grid: PatchGrid) -> tuple[TokenBlock, ...]:
    """A GSF sequence's blocks: slow frames, one separator (always), every frame fast.

    Raises ``ValueError`` for an ISF config, then as ``slow_grid`` does.
    """
    slow, fast = _blocks(cfg, grid, Arrangement.GSF)
    return (*slow, SEPARATOR, *fast)


def arrange_isf(cfg: PathwayConfig, grid: PatchGrid) -> tuple[TokenBlock, ...]:
    """An ISF sequence's blocks: frames in time order, a separator after each.

    Raises ``ValueError`` for a GSF config, then as ``slow_grid`` does.
    """
    slow, fast = _blocks(cfg, grid, Arrangement.ISF)
    by_frame = sorted(slow + fast, key=lambda block: block.frame)
    return tuple(b for block in by_frame for b in (block, SEPARATOR))


def plan_layout(cfg: PathwayConfig, grid: PatchGrid) -> TokenSequence:
    """The sequence ``project_video`` returns for frames of ``grid``, without pooling.

    Raises as ``slow_grid`` does, exactly when ``project_video`` would raise.
    """
    return TokenSequence(cfg, grid)


def project_video(frames: Sequence[FrameGrid], cfg: PathwayConfig) -> TokenSequence:
    """Check ``frames``, plan their sequence, pool both streams and return the sequence.

    Nothing is pooled unless ``plan_layout`` accepts the frames' grid. The
    frames are checked once; each stream pools the frames its blocks are built
    from, as ``run_slow_pathway`` and ``run_fast_pathway`` would.
    """
    from .kernels import _pool

    _check_frames(frames, cfg)
    if len({frame.shape for frame in frames}) > 1:
        raise ValueError("all frames must share one shape")
    sequence = plan_layout(cfg, PatchGrid(frames[0].rows, frames[0].cols))
    slow = [frames[i] for i in select_slow_frames(cfg.n_total, cfg.n_slow)]
    fast = [frames[i] for i in fast_frame_indices(cfg)]
    _pool(slow, "strided", cfg.stride_h, cfg.stride_w)
    _pool(fast, "adaptive", cfg.fast_rows, cfg.fast_cols)
    return sequence
