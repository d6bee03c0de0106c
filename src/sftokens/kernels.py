"""Dense-grid numeric kernels and their naive reference oracles.

Three kernels operate on per-frame feature grids: strided average pooling,
adaptive average pooling, and align-corners bilinear resampling. Each has a
plain-Python loop oracle (``naive_*``) that shares nothing with the
vectorised path, so the two can be checked against each other on random
inputs. ``synth_features`` produces deterministic stand-in features so the
pipeline can run without a vision encoder.

Grids are immutable value types. An input grid keeps its own floating
precision, float32 (as vision encoders emit it) or float64, so wrapping an
encoder's features costs one copy at their native width. Every kernel
accumulates and returns float64: a float32 input gives results bit-identical
to the same kernel run on that input widened to float64.

A grid's copy of at least one huge page (2 MiB), up to a block, lives in
a shared 32 MiB block: a private anonymous mapping advised
``MADV_HUGEPAGE``, carved into frames end to end. An encoder-width frame,
30x30x1024 float32, is 3.5 MiB, just under the 4 MiB from which numpy
itself asks for huge pages. As heap copies, a 128-frame clip's frames are
faulted in 4 KiB at a time, and glibc returns the pages when the clip is
dropped, so wrapping each clip takes about 114,000 minor faults; into new
blocks it takes about 420, in about half the time. A block whose last
array is dropped is not unmapped but kept, advised ``MADV_FREE`` where
``mmap`` has it, so the kernel may reclaim its pages under memory
pressure, and the next arrays are carved from a kept block before a new
one is mapped: a clip wrapped after the one before it was dropped lands in
pages that are already faulted in, and takes almost no faults. A block is
mapped only when none is kept, so the blocks mapped, in use or kept, never
outnumber the most ever in use at once. Copies under a huge page or over a
block, and every copy where ``mmap`` cannot advise huge pages, stay on the
heap.

Both pooling kernels, and the pathways that pool many frames at once, run
one path. It keeps each result on the grid it pooled, keyed by the kernel
and its validated integer sizes, and a repeat call returns the kept grid: a
grid's values never change, so it is what a fresh call would compute, bit
for bit. A sweep of pathway configs over one clip thus pools each (frame,
kernel, sizes) once. Frames with no kept result pool in stacks: runs of
consecutive frames of one shape and dtype, laid end to end in one array,
one above another for strided pooling and side by side for adaptive
pooling, each stack pooled in one vectorised call. A single grid is a stack
of one. A stack's input stays under ``_STACK_BYTES`` (256 KiB): small
frames are dominated by numpy's fixed per-call cost, while large ones run
slower out of cache, so a frame over 128 KiB, such as an encoder-width
frame at C=1024, pools alone, and a stack of one is the grid's own array,
neither copied nor widened. A stack reduces its adaptive column bins in one
``np.add.reduceat``; a stack of one adds each bin's columns, in the same
order, as whole channel vectors, since ``reduceat`` adds one value at a
time a row of channels apart. Strided sums of a stack of one huge page or
more, such as an encoder-width frame, go where the frame went, into a
block; smaller stacks' sums, and adaptive sums, stay on the heap. A
stack's results are checked finite together before any is kept; each is a
read-only view of the stack's output, holds all of it alive, and is
bit-identical to pooling that frame alone. Results live as long as the
input grid. The oracles are the reference and
``bilinear_resample`` has no repeat caller, so neither keeps results.

Encoder-width work runs on every CPU the process may run on: the calling
thread takes the first share and a pool of one worker thread per further
CPU the rest, the workers under the caller's context (numpy's ``errstate``
included). Two kinds of work split, each at a threshold the serial path
already has: a grid's copy of at least one huge page, cut into one band of
rows per CPU, each band copied and checked finite; and the pooling of
frames over half of ``_STACK_BYTES``, which pool alone, their stacks spread
over the threads. Smaller copies and stacked frames stay on the calling
thread, and so does a process with one CPU. Results and errors are those of
the serial path, bit for bit: a grid is sealed once every band is done,
and pooled results are kept on the calling thread, in order, up to the
first stack that fails, whose error is raised. The pool is started at the
first split, not on import; a forked child starts its own, and new locks.
"""

from __future__ import annotations

import contextvars
import math
import mmap
import os
import threading
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby
from operator import attrgetter

import numpy as np

from .errors import InvalidOutputShape, NonDivisibleStride
from .geometry import PatchGrid, as_count, as_counts, check_strides_divide, show

_NATIVE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True, eq=False)
class FrameGrid:
    """One frame's feature grid, shape (rows, cols, channels).

    The backing array is copied once, in C order, and marked read-only;
    the module docstring says where the copy lives and how it splits over
    CPUs. A float32 or float64 input keeps its dtype; any other boolean,
    integer or floating dtype becomes float64. Any other kind, complex,
    datetime, timedelta, string, object or structured, raises, naming its
    dtype, rather than be cast to numbers. A 2D array is accepted and
    promoted to a single channel. Values must be finite. Grids the kernels
    return are float64.

    The pooling kernels and the pathways keep each result on the grid and
    return it on a repeat call; kept results live until this grid is
    dropped. Each costs its float64 bytes: at C=1024 a 2x2 slow result
    takes half the bytes of its float32 input grid, a 4x4 fast result 128
    KiB. A result pooled in a stack keeps the whole stack's output alive.
    """

    values: np.ndarray
    _pooled: dict[tuple[str, int, int], FrameGrid] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        src = np.asarray(self.values)
        if src.dtype.kind not in "biuf":
            raise ValueError(f"grid values must be real, got dtype {src.dtype}")
        if src.ndim == 2:
            src = src[:, :, np.newaxis]
        if src.ndim != 3:
            raise ValueError(f"grid must be 2D or 3D, got {src.ndim}D")
        if src.size == 0:
            raise ValueError("grid dimensions must be positive")
        dtype = src.dtype if src.dtype in _NATIVE_DTYPES else np.dtype(np.float64)
        if src.size * dtype.itemsize < _HUGE_PAGE:
            arr = _seal(np.array(src, dtype=dtype, order="C"))
        else:
            arr = _fresh(src.shape, dtype)
            rows = src.shape[0]
            n = min(_cpus(), rows)

            def copy(band: slice) -> np.ndarray:
                np.copyto(arr[band], src[band], casting="unsafe")
                return _seal(arr[band])  # seals this view; the array is sealed below

            list(_split(copy, [slice(i * rows // n, (i + 1) * rows // n) for i in range(n)]))
            arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.values.shape


# Huge-page blocks for grid copies and large results; see the module
# docstring.
_HUGE_PAGE = 2 << 20
_BLOCK_BYTES = 32 << 20
_ALIGN = 64
_block_lock = threading.Lock()
_block: weakref.ref[np.ndarray] | None = None  # the owner frames are carved from
_block_used = 0
_free: list[mmap.mmap] = []  # blocks whose every array was dropped


def _map(advice: int) -> mmap.mmap:
    block = mmap.mmap(-1, _BLOCK_BYTES, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    try:
        block.madvise(advice)
    except OSError:  # huge pages unsupported here: 4 KiB pages serve
        pass
    return block


def _release(block: mmap.mmap) -> None:
    # Runs when a block's owner array is collected, in whichever thread
    # dropped its last view, perhaps one inside _fresh holding _block_lock:
    # so it takes no lock, and list.append is atomic. The advice comes
    # first, while no array can reach the block.
    if hasattr(mmap, "MADV_FREE"):
        try:
            block.madvise(mmap.MADV_FREE)
        except OSError:  # a kernel without MADV_FREE: the pages stay resident
            pass
    _free.append(block)


def _fresh(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    # An uninitialised, writable, C-ordered array of at least one huge
    # page. The module holds a block's owner, the uint8 array every array
    # cut from it views, only weakly, so dropping its last view releases it.
    global _block, _block_used
    count = math.prod(shape)
    nbytes = count * dtype.itemsize
    advice = getattr(mmap, "MADV_HUGEPAGE", None)
    if advice is None or nbytes > _BLOCK_BYTES:
        return np.empty(shape, dtype)
    with _block_lock:
        owner = _block() if _block is not None else None
        if owner is None or _block_used + nbytes > _BLOCK_BYTES:
            block = _free.pop() if _free else _map(advice)
            owner = np.frombuffer(block, np.uint8)
            weakref.finalize(owner, _release, block).atexit = False
            _block, _block_used = weakref.ref(owner), 0
        offset = _block_used
        _block_used += -(-nbytes // _ALIGN) * _ALIGN
    return np.frombuffer(owner, dtype, count, offset).reshape(shape)


# A forked child forgets the workers and takes new locks: no thread that
# held one at the fork runs there.
_workers_lock = threading.Lock()
_workers = None


def _reset_in_child() -> None:
    global _workers, _workers_lock, _block_lock
    _workers, _workers_lock, _block_lock = None, threading.Lock(), threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


def _cpus() -> int:
    # The CPUs this process may run on.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(fn: Callable[[Any], Any], parts: Sequence) -> Iterator:
    # Yields fn(part) for each part in order, and raises the first failing
    # part's error in its place, as a serial loop would. After an error, or
    # once the caller stops, parts not yet started are cancelled and running
    # ones are waited for, so no worker outlives the call.
    global _workers
    if len(parts) < 2 or (cpus := _cpus()) < 2:
        yield from map(fn, parts)
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    with _workers_lock:
        if _workers is None:
            _workers = ThreadPoolExecutor(cpus - 1, thread_name_prefix="sftokens")
        workers = _workers
    head = -(-len(parts) // cpus)
    futures = [workers.submit(contextvars.copy_context().run, fn, part) for part in parts[head:]]
    try:
        yield from map(fn, parts[:head])
        for future in futures:
            yield future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def _seal(arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError("grid values must be finite")
    arr.setflags(write=False)
    return arr


def _wrap(arr: np.ndarray) -> FrameGrid:
    # A kernel's result is a new float64 array, or a view of one, that
    # nothing else writes, so it is wrapped without a second copy. Its
    # caller seals it first: float64 sums of finite inputs can overflow.
    grid = object.__new__(FrameGrid)
    grid.__dict__.update(values=arr, _pooled={})
    return grid


def _check_strides(grid: FrameGrid, stride_h: int, stride_w: int) -> tuple[int, int]:
    stride_h, stride_w = as_counts(("stride_h", "stride_w"), stride_h, stride_w)
    if stride_h < 1 or stride_w < 1:
        raise NonDivisibleStride(f"strides must be positive, got {show(stride_h)}x{show(stride_w)}")
    check_strides_divide(stride_h, stride_w, grid.rows, grid.cols)
    return stride_h, stride_w


def _check_adaptive(grid: FrameGrid, out_rows: int, out_cols: int) -> tuple[int, int]:
    out_rows, out_cols = as_counts(("out_rows", "out_cols"), out_rows, out_cols)
    if out_rows < 1 or out_cols < 1:
        raise InvalidOutputShape(f"output must be positive, got {show(out_rows)}x{show(out_cols)}")
    if out_rows > grid.rows or out_cols > grid.cols:
        raise InvalidOutputShape(
            f"output {show(out_rows)}x{show(out_cols)} exceeds input {grid.rows}x{grid.cols}"
        )
    return out_rows, out_cols


def _check_resample(out_rows: int, out_cols: int) -> tuple[int, int]:
    out_rows, out_cols = as_counts(("out_rows", "out_cols"), out_rows, out_cols)
    if out_rows < 1 or out_cols < 1:
        raise ValueError(f"output must be positive, got {show(out_rows)}x{show(out_cols)}")
    return out_rows, out_cols


def _strided_sums(v: np.ndarray, stride_h: int, stride_w: int) -> np.ndarray:
    # v holds frames one above another, (frames * rows, cols, channels);
    # the stride divides each frame's rows, so no block spans two frames.
    rows, cols, channels = v.shape
    if channels == 1:
        blocks = np.ascontiguousarray(v).reshape(
            rows // stride_h, stride_h, cols // stride_w, stride_w, 1
        )
        sums = np.add.reduce(blocks, axis=(1, 3), dtype=np.float64)
    else:
        first = v[0::stride_h, 0::stride_w]
        if v.nbytes < _HUGE_PAGE:
            sums = np.array(first, dtype=np.float64)
        else:
            sums = _fresh(first.shape, np.dtype(np.float64))
            np.copyto(sums, first)
        for a in range(stride_h):
            for b in range(stride_w):
                if a or b:
                    sums += v[a::stride_h, b::stride_w]
    sums /= stride_h * stride_w
    return sums


def avg_pool_strided(grid: FrameGrid, stride_h: int, stride_w: int) -> FrameGrid:
    """Average non-overlapping stride_h x stride_w blocks, per channel.

    Strides must divide the grid dimensions exactly; the output is
    (rows/stride_h) x (cols/stride_w) and preserves the per-channel mean.

    Sums accumulate in float64 in the order ``np.mean`` over the blocks of
    the C-ordered grid adds them, so results are bit-identical to
    ``v.reshape(rows // sh, sh, cols // sw, sw, C).mean(axis=(1, 3))`` on
    the input widened to float64, whatever the input's memory layout. With
    two or more channels that order is row-major over the block offsets:
    every block's (0, 0) cell, then its (0, 1) cell, on to
    (sh - 1, sw - 1), each offset added as one whole-grid strided slice.
    A one-channel grid keeps numpy's reduction over the blocks of a
    C-ordered grid: there each block row is contiguous, numpy's inner loop
    runs along it, and its adds come in an order the slice adds would not
    reproduce.

    The grid pools as a stack of one, its array uncopied, and keeps the
    result: a repeat call returns the same grid.

    Raises:
        NonDivisibleStride: If a stride does not divide its dimension.
        ValueError: If a stride is not an integer.
    """
    stride_h, stride_w = as_counts(("stride_h", "stride_w"), stride_h, stride_w)
    return _pool([grid], "strided", stride_h, stride_w)[0]


@lru_cache(maxsize=256)
def _adaptive_bins(
    rows: int, cols: int, out_rows: int, out_cols: int, frames: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray, np.ndarray]:
    # Row bin edges, row and column bin starts, and the (out_rows,
    # frames * out_cols, 1) cell counts of the floor-boundary partition of
    # ``frames`` frames side by side, each frame's column bins after the
    # last frame's. The arrays are shared by every call with these shapes,
    # so they are read-only.
    row_edges = tuple(i * rows // out_rows for i in range(out_rows + 1))
    col_edges = [j * cols // out_cols for j in range(out_cols + 1)]
    row_starts = np.array(row_edges[:-1], dtype=np.intp)
    col_starts = np.array(col_edges[:-1], dtype=np.intp)
    col_starts = (np.arange(frames, dtype=np.intp)[:, np.newaxis] * cols + col_starts).ravel()
    counts = np.outer(np.diff(row_edges), np.tile(np.diff(col_edges), frames)).astype(np.float64)
    counts = counts[:, :, np.newaxis]
    for arr in (row_starts, col_starts, counts):
        arr.setflags(write=False)
    return row_edges, row_starts, col_starts, counts


def _pairwise_sum(x: np.ndarray, out: np.ndarray) -> None:
    # The pairwise summation numpy's float add reductions run (its
    # pairwise_sum loop), of the slabs x[0], x[1], ... into float64
    # ``out``, vectorised over each slab: fewer than 8 slabs add in order;
    # up to 128 add into 8 interleaved partial sums, combined as a tree,
    # then the remainder in order; more split in two at a multiple of 8.
    # The -0.0 start is numpy's too, and leaves every sum unchanged.
    n = len(x)
    if n < 8:
        np.add.reduce(x, axis=0, dtype=np.float64, out=out, initial=-0.0)
    elif n > 128:
        half = n // 2 - n // 2 % 8
        _pairwise_sum(x[:half], out)
        rest = np.empty_like(out)
        _pairwise_sum(x[half:], rest)
        out += rest
    else:
        m = n - n % 8
        lanes = x[:m].reshape(m // 8, 8, *x.shape[1:])
        r = np.add.reduce(lanes, axis=0, dtype=np.float64, initial=-0.0)
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        np.add(r[0], r[1], out=out)
        for k in range(m, n):
            out += x[k]


def _adaptive_sums(v: np.ndarray, frames: int, out_rows: int, out_cols: int) -> np.ndarray:
    # v holds ``frames`` frames side by side, (rows, frames * cols,
    # channels); every frame shares the row bins.
    rows, cols, channels = v.shape
    row_edges, row_starts, col_starts, counts = _adaptive_bins(
        rows, cols // frames, out_rows, out_cols, frames
    )
    # reduceat adds each bin's first row to the pairwise sum of the rest,
    # one output value at a time, down strided columns; here every step
    # adds whole contiguous rows, widening float32 as it goes.
    if frames > 1:  # a stack's column bins reduce in one call
        row_sums = np.empty((out_rows, cols, channels))
        for i in range(out_rows):
            _pairwise_sum(v[row_edges[i] + 1:row_edges[i + 1]], row_sums[i])
        row_sums += v[row_starts]
        sums = np.add.reduceat(row_sums, col_starts, axis=1)
    else:  # a lone frame's column bins add as channel vectors, in reduceat's order
        col_edges = (*col_starts.tolist(), cols)
        sums = np.empty((out_rows, out_cols, channels))
        row = np.empty((cols, channels))  # one row bin's sums
        for i in range(out_rows):
            _pairwise_sum(v[row_edges[i] + 1:row_edges[i + 1]], row)
            row += v[row_edges[i]]
            for j in range(out_cols):
                _pairwise_sum(row[col_edges[j] + 1:col_edges[j + 1]], sums[i, j])
                sums[i, j] += row[col_edges[j]]
    sums /= counts
    return sums


def avg_pool_adaptive(grid: FrameGrid, out_rows: int, out_cols: int) -> FrameGrid:
    """Average over a floor-boundary partition down to out_rows x out_cols.

    Bin i along an axis of length n spans input indices
    [floor(i*n/out), floor((i+1)*n/out)); the bins tile the axis exactly,
    so pooling to the input's own shape is the identity. Sums accumulate
    in float64, in the order of ``np.add.reduceat`` along rows and then
    columns, so results are bit-identical to that form; each add here
    takes a whole row or channel vector, where ``reduceat`` adds one value
    at a time. As with ``avg_pool_strided``, the grid pools as a stack of
    one, in its own dtype, and a repeat call returns the kept result.

    Raises:
        InvalidOutputShape: If the target exceeds the input dimensions.
        ValueError: If a target size is not an integer.
    """
    out_rows, out_cols = as_counts(("out_rows", "out_cols"), out_rows, out_cols)
    return _pool([grid], "adaptive", out_rows, out_cols)[0]


# Frames pooled in one call are stacked up to this many bytes of input.
# Pooling 30x30 float32 frames on 2 shared CPUs cost about 20 us per frame
# alone and 6-9 us in stacks of 12 to 72 at C=4 (14.4 KB frames), and
# about 10% less in pairs at C=32; at C=64 (230 KB) stacks of 2 to 4 cost
# 5-25% more per frame than frames alone, at C=1024 (3.7 MB) 40% more.
_STACK_BYTES = 256 * 1024


def _pool(grids: Sequence[FrameGrid], kind: str, a: int, b: int) -> list[FrameGrid]:
    # Each grid's result of pooling kernel ``kind`` at integer sizes (a, b);
    # the module docstring describes the stacks, the split and what is kept.
    key = (kind, a, b)
    todo = [grid for grid in grids if key not in grid._pooled]
    for _, run in groupby(todo, attrgetter("values.shape", "values.dtype")):
        run = list(run)
        (_check_strides if kind == "strided" else _check_adaptive)(run[0], a, b)
        size = max(1, _STACK_BYTES // run[0].values.nbytes)
        stacks = [run[i:i + size] for i in range(0, len(run), size)]
        pool = partial(_pool_stack, kind, a, b)
        for parts, stack in zip(_split(pool, stacks) if size == 1 else map(pool, stacks), stacks):
            for grid, part in zip(stack, parts):
                grid._pooled.setdefault(key, _wrap(part))
    return [grid._pooled[key] for grid in grids]


def _pool_stack(kind: str, a: int, b: int, stack: list[FrameGrid]) -> np.ndarray:
    # One stack's results, one per frame along the first axis, each a
    # read-only view: the output is sealed before any view is taken.
    n = len(stack)
    values = [grid.values for grid in stack]
    if kind == "strided":
        v = values[0] if n == 1 else np.concatenate(values)
        sums = _seal(_strided_sums(v, a, b))
        return sums.reshape(n, -1, *sums.shape[1:])
    # Widened as it is copied, the row sums add without numpy's buffered
    # casts: 18% faster at C=4, and the same bits.
    v = values[0] if n == 1 else np.concatenate(values, axis=1, dtype=np.float64)
    sums = _seal(_adaptive_sums(v, n, a, b))
    return sums.reshape(a, n, b, -1).swapaxes(0, 1)


def _axis_positions(n_in: int, n_out: int) -> np.ndarray:
    # Align-corners sampling; a single output sample takes the axis midpoint.
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out, dtype=np.float64) * ((n_in - 1) / (n_out - 1))


def _axis_taps(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos = _axis_positions(n_in, n_out)
    lo = np.clip(np.floor(pos).astype(np.intp), 0, max(n_in - 2, 0))
    frac = pos - lo
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, frac


def bilinear_resample(grid: FrameGrid, out_rows: int, out_cols: int) -> FrameGrid:
    """Resample to out_rows x out_cols with align-corners bilinear weights.

    Output (i, j) samples the input at
    (i*(rows-1)/(out_rows-1), j*(cols-1)/(out_cols-1)); corner samples land
    exactly on corner cells, and a size-1 output axis samples the midpoint.
    Resampling to the input's own shape reproduces it exactly.
    """
    out_rows, out_cols = _check_resample(out_rows, out_cols)
    v = grid.values
    r_lo, r_hi, r_frac = _axis_taps(grid.rows, out_rows)
    c_lo, c_hi, c_frac = _axis_taps(grid.cols, out_cols)

    top = v[r_lo][:, c_lo] * (1.0 - c_frac)[np.newaxis, :, np.newaxis]
    top += v[r_lo][:, c_hi] * c_frac[np.newaxis, :, np.newaxis]
    bottom = v[r_hi][:, c_lo] * (1.0 - c_frac)[np.newaxis, :, np.newaxis]
    bottom += v[r_hi][:, c_hi] * c_frac[np.newaxis, :, np.newaxis]
    out = top * (1.0 - r_frac)[:, np.newaxis, np.newaxis]
    out += bottom * r_frac[:, np.newaxis, np.newaxis]
    return _wrap(_seal(out))


_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Integer-only mix; identical on every platform.
    z = x + _MIX_A
    z = (z ^ (z >> np.uint64(30))) * _MIX_B
    z = (z ^ (z >> np.uint64(27))) * _MIX_C
    return z ^ (z >> np.uint64(31))


def synth_features(frame_index: int, grid: PatchGrid, channels: int) -> FrameGrid:
    """Deterministic pseudo-random features for one frame.

    Every value is a pure function of (frame_index, row, col, channel), so
    repeated calls are bit-identical across runs and platforms. Values lie
    in [0, 1).
    """
    frame_index, channels = as_count("frame_index", frame_index), as_count("channels", channels)
    if frame_index < 0:
        raise ValueError(f"frame_index must be non-negative, got {show(frame_index)}")
    if channels < 1:
        raise ValueError(f"channels must be positive, got {show(channels)}")
    r = np.arange(grid.rows, dtype=np.uint64)[:, np.newaxis, np.newaxis]
    c = np.arange(grid.cols, dtype=np.uint64)[np.newaxis, :, np.newaxis]
    k = np.arange(channels, dtype=np.uint64)[np.newaxis, np.newaxis, :]
    base = np.uint64(frame_index)
    step = np.uint64(0x100000001B3)
    key = ((base * step + r) * step + c) * step + k
    bits = _splitmix64(key)
    return _wrap(_seal((bits >> np.uint64(11)).astype(np.float64) * 2.0**-53))


def naive_avg_pool_strided(grid: FrameGrid, stride_h: int, stride_w: int) -> FrameGrid:
    """Loop-oracle counterpart of ``avg_pool_strided``."""
    stride_h, stride_w = _check_strides(grid, stride_h, stride_w)
    vals = grid.values.tolist()
    ch = grid.channels
    inv = 1.0 / (stride_h * stride_w)
    out = []
    for i in range(grid.rows // stride_h):
        out_row = []
        for j in range(grid.cols // stride_w):
            acc = [0.0] * ch
            for r in range(i * stride_h, (i + 1) * stride_h):
                row = vals[r]
                for c in range(j * stride_w, (j + 1) * stride_w):
                    cell = row[c]
                    for k in range(ch):
                        acc[k] += cell[k]
            out_row.append([a * inv for a in acc])
        out.append(out_row)
    return FrameGrid(np.array(out, dtype=np.float64))


def naive_avg_pool_adaptive(grid: FrameGrid, out_rows: int, out_cols: int) -> FrameGrid:
    """Loop-oracle counterpart of ``avg_pool_adaptive``."""
    out_rows, out_cols = _check_adaptive(grid, out_rows, out_cols)
    vals = grid.values.tolist()
    ch = grid.channels
    row_edges = [i * grid.rows // out_rows for i in range(out_rows + 1)]
    col_edges = [j * grid.cols // out_cols for j in range(out_cols + 1)]
    out = []
    for i in range(out_rows):
        out_row = []
        for j in range(out_cols):
            acc = [0.0] * ch
            count = 0
            for r in range(row_edges[i], row_edges[i + 1]):
                row = vals[r]
                for c in range(col_edges[j], col_edges[j + 1]):
                    cell = row[c]
                    for k in range(ch):
                        acc[k] += cell[k]
                    count += 1
            out_row.append([a / count for a in acc])
        out.append(out_row)
    return FrameGrid(np.array(out, dtype=np.float64))


def _naive_axis_taps(n_in: int, n_out: int) -> list[tuple[int, int, float]]:
    taps = []
    for i in range(n_out):
        pos = (n_in - 1) / 2.0 if n_out == 1 else i * (n_in - 1) / (n_out - 1)
        lo = min(int(pos), max(n_in - 2, 0))
        hi = min(lo + 1, n_in - 1)
        taps.append((lo, hi, pos - lo))
    return taps


def naive_bilinear_resample(grid: FrameGrid, out_rows: int, out_cols: int) -> FrameGrid:
    """Loop-oracle counterpart of ``bilinear_resample``."""
    out_rows, out_cols = _check_resample(out_rows, out_cols)
    vals = grid.values.tolist()
    ch = grid.channels
    row_taps = _naive_axis_taps(grid.rows, out_rows)
    col_taps = _naive_axis_taps(grid.cols, out_cols)
    out = []
    for r_lo, r_hi, ty in row_taps:
        top_row = vals[r_lo]
        bot_row = vals[r_hi]
        out_row = []
        for c_lo, c_hi, tx in col_taps:
            v00 = top_row[c_lo]
            v01 = top_row[c_hi]
            v10 = bot_row[c_lo]
            v11 = bot_row[c_hi]
            cell = []
            for k in range(ch):
                top = v00[k] * (1.0 - tx) + v01[k] * tx
                bottom = v10[k] * (1.0 - tx) + v11[k] * tx
                cell.append(top * (1.0 - ty) + bottom * ty)
            out_row.append(cell)
        out.append(out_row)
    return FrameGrid(np.array(out, dtype=np.float64))
