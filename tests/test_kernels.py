"""Pooling and resampling kernels against their loop oracles."""

import gc
import mmap
import os
import re
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sftokens import (
    FrameGrid,
    InvalidOutputShape,
    NonDivisibleStride,
    PatchGrid,
    PathwayConfig,
    avg_pool_adaptive,
    avg_pool_strided,
    bilinear_resample,
    naive_avg_pool_adaptive,
    naive_avg_pool_strided,
    naive_bilinear_resample,
    project_video,
    run_fast_pathway,
    run_slow_pathway,
    synth_features,
)
from sftokens import kernels
from sftokens.kernels import _wrap
from sftokens.selfcheck import ORACLE_TOLERANCE


class TestFrameGrid:
    def test_promotes_2d_to_single_channel(self):
        g = FrameGrid(np.ones((3, 4)))
        assert g.shape == (3, 4, 1)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FrameGrid(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            FrameGrid(np.array([[np.inf, 1.0]]))

    def test_rejects_empty_and_wrong_rank(self):
        with pytest.raises(ValueError):
            FrameGrid(np.ones((0, 3, 1)))
        with pytest.raises(ValueError):
            FrameGrid(np.ones(5))

    def test_backing_array_is_read_only(self):
        g = FrameGrid(np.ones((2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 3.0

    def test_source_mutation_does_not_leak(self):
        src = np.ones((2, 2))
        g = FrameGrid(src)
        src[0, 0] = 99.0
        assert g.values[0, 0, 0] == 1.0

    def test_float_inputs_keep_their_width(self):
        assert FrameGrid(np.ones((2, 2, 3), dtype=np.float32)).values.dtype == np.float32
        assert FrameGrid(np.ones((2, 2, 3), dtype=np.float64)).values.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_rejects_complex_naming_the_dtype(self, dtype):
        want = f"^grid values must be real, got dtype {np.dtype(dtype)}$"
        with pytest.raises(ValueError, match=want):
            FrameGrid(np.array([[1 + 2j, 3]], dtype=dtype))

    @pytest.mark.parametrize(
        "src",
        [
            np.array([["2020-01-01", "2020-01-02"]], dtype="datetime64[D]"),
            np.array([[1, 2]], dtype="timedelta64[s]"),
            np.array([["1.5", "2"]]),
            np.array([[b"1.5", b"2"]]),
            np.array([[1.0, 2.0]], dtype=object),
            np.zeros((2, 2), dtype=[("x", np.float64)]),
        ],
        ids=lambda src: src.dtype.kind,
    )
    def test_rejects_non_numeric_kinds_naming_the_dtype(self, src):
        want = f"^grid values must be real, got dtype {re.escape(str(src.dtype))}$"
        with pytest.raises(ValueError, match=want):
            FrameGrid(src)

    def test_other_dtypes_become_float64(self):
        assert FrameGrid(np.arange(6).reshape(2, 3)).values.dtype == np.float64
        assert FrameGrid(np.ones((2, 2), dtype=bool)).values.dtype == np.float64
        assert FrameGrid(np.ones((2, 2), dtype=np.float16)).values.dtype == np.float64
        assert FrameGrid([[1, 2], [3, 4]]).values.dtype == np.float64

    def test_float32_source_mutation_does_not_leak(self):
        src = np.ones((2, 2, 2), dtype=np.float32)
        g = FrameGrid(src)
        src[0, 0, 0] = 99.0
        assert g.values[0, 0, 0] == 1.0
        assert not g.values.flags.writeable
        with pytest.raises(ValueError):
            g.values[0, 0, 0] = 3.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_float32(self, bad):
        src = np.zeros((3, 3, 2), dtype=np.float32)
        src[1, 2, 1] = bad
        with pytest.raises(ValueError):
            FrameGrid(src)

    def test_kernel_outputs_are_float64(self):
        g = FrameGrid(np.ones((4, 4, 2), dtype=np.float32))
        for out in (avg_pool_strided(g, 2, 2), avg_pool_adaptive(g, 3, 3),
                    bilinear_resample(g, 5, 3)):
            assert out.values.dtype == np.float64
            assert not out.values.flags.writeable

    def test_overflowing_block_sums_rejected(self):
        # Finite float64 inputs whose block sums overflow to inf.
        g = FrameGrid(np.full((2, 2, 1), 1.7e308))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError):
                avg_pool_strided(g, 2, 2)
            with pytest.raises(ValueError):
                avg_pool_adaptive(g, 1, 1)


# A frame over one huge page (2 MiB), copied into a shared block, and one
# under it, copied onto the heap.
_copy_shapes = pytest.mark.parametrize("shape", [(24, 24, 1024), (6, 6, 4)], ids=["block", "heap"])


def _source(shape, dtype=np.float32):
    return np.random.default_rng(0).random(shape).astype(dtype)


def _owner(arr):
    # The object that owns an array's memory: its block, or a heap array.
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


class TestGridCopies:
    """Each grid owns a fresh copy: in a shared block from one huge page up."""

    @_copy_shapes
    def test_source_mutation_leaves_grid_unchanged(self, shape):
        src = _source(shape)
        grid = FrameGrid(src)
        want = src.copy()
        src[...] = 7.0
        assert np.array_equal(grid.values, want)

    @_copy_shapes
    @pytest.mark.parametrize("dtype, kept", [(np.float32, np.float32), (np.float64, np.float64),
                                             (np.int16, np.float64)])
    def test_read_only_c_contiguous_and_typed(self, shape, dtype, kept):
        src = _source(shape, np.float64) * 100
        grid = FrameGrid(src.astype(dtype))
        assert grid.values.dtype == kept and grid.shape == shape
        assert grid.values.flags.c_contiguous and not grid.values.flags.writeable
        if grid.values.nbytes >= kernels._HUGE_PAGE:
            assert grid.values.ctypes.data % 64 == 0
        assert np.array_equal(grid.values, src.astype(dtype).astype(kept))
        with pytest.raises(ValueError):
            grid.values[0, 0, 0] = 1.0

    @_copy_shapes
    def test_fortran_input_gives_identical_kernel_results(self, shape):
        src = _source(shape)
        c_grid, f_grid = FrameGrid(src), FrameGrid(np.asfortranarray(src))
        for kernel, sizes in ((avg_pool_strided, (2, 3)), (avg_pool_adaptive, (4, 5)),
                              (bilinear_resample, (5, 4))):
            got, want = kernel(f_grid, *sizes).values, kernel(c_grid, *sizes).values
            assert got.tobytes() == want.tobytes()

    @_copy_shapes
    def test_live_grids_share_no_memory(self, shape):
        # Enough big frames to fill more than one 32 MiB block.
        src = _source(shape)
        grids = [FrameGrid(src) for _ in range(16)]
        self._assert_disjoint(grids)
        big = src.nbytes >= kernels._HUGE_PAGE
        assert (len({id(_owner(g.values)) for g in grids}) < len(grids)) == big

    @_copy_shapes
    def test_grids_built_from_two_threads_share_no_memory(self, shape):
        src = _source(shape)
        built = [[], []]
        start = threading.Barrier(2)

        def build(out):
            start.wait()
            out.extend(FrameGrid(src) for _ in range(12))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(out) for out in built] == [12, 12]
        self._assert_disjoint(built[0] + built[1])
        assert all(np.array_equal(g.values, src) for g in built[0] + built[1])

    @staticmethod
    def _assert_disjoint(grids):
        for i, a in enumerate(grids):
            for b in grids[i + 1:]:
                assert not np.shares_memory(a.values, b.values)

    @pytest.mark.parametrize("shape", [(6, 6, 4)], ids=["heap"])
    def test_dropping_every_grid_of_a_block_frees_it(self, shape):
        src = _source(shape)
        grids = [FrameGrid(src) for _ in range(3)]
        owners = {id(_owner(g.values)): weakref.ref(_owner(g.values)) for g in grids}
        del grids[:2]
        gc.collect()
        assert sum(ref() is not None for ref in owners.values()) == 1
        del grids
        gc.collect()
        assert all(ref() is None for ref in owners.values())

    @_copy_shapes
    def test_without_madv_hugepage_copies_onto_the_heap(self, shape, monkeypatch):
        src = _source(shape)
        want = FrameGrid(src)
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
        got = FrameGrid(src)
        assert isinstance(_owner(got.values), np.ndarray)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.flags.c_contiguous and not got.values.flags.writeable
        pooled = [avg_pool_strided(grid, 3, 3).values.tobytes() for grid in (got, want)]
        assert pooled[0] == pooled[1]


@pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no huge-page blocks here")
class TestBlockReuse:
    """A block whose every array is dropped is kept and serves the next ones."""

    @pytest.fixture(autouse=True)
    def _own_blocks(self, monkeypatch):
        # Start a block of the test's own, with no kept blocks to take, and
        # record every block mapped. A lock of the test's own keeps a hang
        # here from other tests.
        monkeypatch.setattr(kernels, "_block_lock", threading.Lock())
        monkeypatch.setattr(kernels, "_block", None)
        monkeypatch.setattr(kernels, "_free", [])
        self.mapped = []
        map_block = kernels._map

        def record(advice):
            self.mapped.append(map_block(advice))
            return self.mapped[-1]

        monkeypatch.setattr(kernels, "_map", record)

    @staticmethod
    def _clip():
        # 16 frames of 2.25 MiB: 14 fit a block, so the clip takes two.
        return np.random.default_rng(1).random((16, 24, 24, 1024), dtype=np.float32)

    def test_a_dropped_block_serves_the_next_grid(self):
        src = _source((24, 24, 1024))
        grids = [FrameGrid(src) for _ in range(3)]
        (block,) = self.mapped
        assert all(_owner(g.values) is block for g in grids)
        del grids[:2]
        gc.collect()
        assert kernels._free == []
        del grids
        gc.collect()
        assert kernels._free == [block]
        other = 1 - src  # other values than the block held
        grid = FrameGrid(other)
        assert _owner(grid.values) is block and kernels._free == [] and len(self.mapped) == 1
        assert grid.values.tobytes() == other.tobytes()

    def test_rewrapping_a_clip_maps_no_more_blocks_than_one_clip(self):
        clip = self._clip()
        for _ in range(3):
            grids = [FrameGrid(frame) for frame in clip]
            assert all(g.values.tobytes() == frame.tobytes() for g, frame in zip(grids, clip))
            del grids
            gc.collect()
            assert len(self.mapped) == 2 and len(kernels._free) == 2

    def test_an_oversized_frame_is_a_heap_array(self):
        src = np.ones((96, 96, 1024), np.float32)  # 36 MiB, over one block
        grid = FrameGrid(src)
        assert self.mapped == []
        owner = _owner(grid.values)
        assert isinstance(owner, np.ndarray) and owner.base is None and owner.nbytes == src.nbytes
        assert grid.values.tobytes() == src.tobytes()
        del grid, owner
        gc.collect()
        assert self.mapped == [] and kernels._free == []

    def test_rewrapping_a_clip_takes_a_tenth_of_the_faults(self):
        import resource

        clip = self._clip()

        def faults_to_wrap():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            grids = [FrameGrid(frame) for frame in clip]
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            del grids
            gc.collect()
            return faults

        first = faults_to_wrap()
        assert faults_to_wrap() < first / 10

    def test_a_block_released_inside_fresh_does_not_hang(self, monkeypatch):
        # The current block's last grid is dropped while _fresh, holding the
        # block lock, maps the next block, so the block is released right
        # there, in that thread; a release that waited for the lock would
        # hang.
        src = np.ones((68, 64, 1024), np.float32)  # over half a block: a block each
        held = [FrameGrid(src)]
        map_block = kernels._map

        def drop_then_map(advice):
            held.clear()
            return map_block(advice)

        monkeypatch.setattr(kernels, "_map", drop_then_map)
        built = []
        thread = threading.Thread(target=lambda: built.append(FrameGrid(src)), daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(self.mapped) == 2 and kernels._free == [self.mapped[0]]
        assert built[0].values.tobytes() == src.tobytes()

    def test_two_threads_building_and_dropping_grids_finish_and_copy_exactly(self):
        # Frames over half a block take a block each, so each thread copies
        # into blocks the other's drops returned, and a drop can release a
        # block inside the other's _fresh, as the test above forces.
        frames = np.random.default_rng(1).random((2, 68, 64, 1024), dtype=np.float32)
        done, wrong = [0, 0], []
        start = threading.Barrier(2)

        def churn(k):
            start.wait()
            for _ in range(50):
                grid = FrameGrid(frames[k])
                if not np.array_equal(grid.values, frames[k]):
                    wrong.append(k)
                del grid
                done[k] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(k,), daemon=True) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [50, 50] and wrong == []
        # Each thread holds one grid at a time, and _fresh briefly the
        # block it moves off: at most three blocks are ever in use at once.
        assert len(self.mapped) <= 3


# The CPU counts the split paths are compared at: serial, and this
# machine's count (two where it has one, so the workers run everywhere).
_SPLIT_CPUS = max(2, kernels._cpus())

# Splits once, forks, and builds an encoder-width grid in the child, which
# SIGALRM ends if it hangs; prints the child's exit code.
# The child splits a copy again, and carves it from a block although
# another thread held the block lock when it was forked.
FORK_CHILD = """
import os, signal, threading
import numpy as np
from sftokens import FrameGrid, kernels
kernels._cpus = lambda: 2
src = np.ones((30, 30, 1024), np.float32)
FrameGrid(src)
held, release = threading.Event(), threading.Event()
def hold():
    with kernels._block_lock:
        held.set()
        release.wait()
holder = threading.Thread(target=hold)
holder.start()
held.wait()
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    FrameGrid(src)
    os._exit(0)
release.set()
holder.join()
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


class TestSplitWork:
    """Encoder-width copies and lone frames' pooling spread over the CPUs as if serial."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_results_match_the_serial_path(self, dtype, monkeypatch):
        rng = np.random.default_rng(3)
        values = [(rng.standard_normal((30, 30, 1024)) * 100).astype(dtype) for _ in range(5)]
        cfg = PathwayConfig(n_total=5, n_slow=5)

        def run(cpus):
            monkeypatch.setattr(kernels, "_cpus", lambda: cpus)
            grids = [FrameGrid(v) for v in values]
            pooled = run_slow_pathway(grids, cfg) + run_fast_pathway(grids, cfg)
            sequence = project_video([FrameGrid(v) for v in values], cfg)
            return ([g.values.tobytes() for g in grids], [p.values.tobytes() for p in pooled],
                    sequence.layout_lines())

        assert run(1) == run(_SPLIT_CPUS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
    def test_slow_results_from_blocks_match_the_heap_and_numpy_mean(self, dtype, monkeypatch):
        rng = np.random.default_rng(5)
        values = [(rng.standard_normal((30, 30, 1024)) * 100).astype(dtype) for _ in range(3)]
        cfg = PathwayConfig(n_total=3, n_slow=3)

        def slow():
            return [p.values for p in run_slow_pathway([FrameGrid(v) for v in values], cfg)]

        from_blocks = slow()
        if hasattr(mmap, "MADV_HUGEPAGE"):
            assert all(isinstance(_owner(r), mmap.mmap) for r in from_blocks)
        monkeypatch.delattr(mmap, "MADV_HUGEPAGE", raising=False)
        from_heap = slow()
        assert all(isinstance(_owner(r), np.ndarray) for r in from_heap)
        for v, got, heap in zip(values, from_blocks, from_heap):
            want = v.astype(np.float64).reshape(15, 2, 15, 2, 1024).mean(axis=(1, 3))
            assert got.tobytes() == heap.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cpus", [1, _SPLIT_CPUS], ids=["serial", "split"])
    def test_non_finite_rows_raise_on_both_paths(self, dtype, bad, cpus, monkeypatch):
        monkeypatch.setattr(kernels, "_cpus", lambda: cpus)
        rows = 30
        bands = [i * rows // _SPLIT_CPUS for i in range(1, _SPLIT_CPUS)]
        for row in sorted({0, rows - 1, *bands, *(b - 1 for b in bands)}):
            src = np.zeros((rows, 30, 1024), dtype)
            src[row, 17, 511] = bad
            with pytest.raises(ValueError, match="^grid values must be finite$"):
                FrameGrid(src)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork is POSIX-only")
    def test_a_forked_child_splits_again(self):
        paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", FORK_CHILD], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


class TestStridedPooling:
    def test_2x2_block_mean(self):
        g = FrameGrid(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = avg_pool_strided(g, 2, 2)
        assert out.shape == (1, 1, 1)
        assert out.values[0, 0, 0] == 2.5

    def test_constant_grid_unchanged(self):
        g = FrameGrid(np.full((6, 4, 3), 7.0))
        out = avg_pool_strided(g, 3, 2)
        assert np.array_equal(out.values, np.full((2, 2, 3), 7.0))

    def test_table_shape(self):
        out = avg_pool_strided(FrameGrid(np.zeros((30, 30, 2))), 2, 2)
        assert out.shape == (15, 15, 2)

    def test_non_divisible_raises(self):
        g = FrameGrid(np.zeros((5, 4)))
        with pytest.raises(NonDivisibleStride):
            avg_pool_strided(g, 2, 2)
        with pytest.raises(NonDivisibleStride):
            avg_pool_strided(g, 0, 1)

    def test_mean_preserved_per_channel(self):
        rng = np.random.default_rng(3)
        g = FrameGrid(rng.uniform(-5, 5, size=(24, 36, 5)))
        out = avg_pool_strided(g, 4, 6)
        got = out.values.mean(axis=(0, 1))
        want = g.values.mean(axis=(0, 1))
        assert np.max(np.abs(got - want)) < 1e-9


class TestAdaptivePooling:
    def test_identity_when_same_shape(self):
        rng = np.random.default_rng(5)
        g = FrameGrid(rng.uniform(size=(4, 4, 2)))
        out = avg_pool_adaptive(g, 4, 4)
        assert np.array_equal(out.values, g.values)

    def test_even_bins_match_strided(self):
        rng = np.random.default_rng(6)
        g = FrameGrid(rng.uniform(size=(8, 8, 3)))
        adaptive = avg_pool_adaptive(g, 4, 4)
        strided = avg_pool_strided(g, 2, 2)
        assert np.max(np.abs(adaptive.values - strided.values)) < 1e-12

    def test_uneven_bins_7_8_7_8(self):
        # 30 -> 4 partitions as [0,7), [7,15), [15,22), [22,30).
        values = np.arange(30, dtype=float)[:, np.newaxis] * np.ones((1, 30))
        out = avg_pool_adaptive(FrameGrid(values), 4, 4)
        row_means = [np.mean(np.arange(a, b)) for a, b in ((0, 7), (7, 15), (15, 22), (22, 30))]
        assert np.allclose(out.values[:, 0, 0], row_means, atol=1e-12)

    def test_tall_bins_match_reduceat(self):
        # Bins of 9 to 300 rows or columns take the eight-lane and the split
        # branches of the pairwise order, along rows and, in a lone frame's
        # column bins, along columns; exponents far apart make any
        # reordering show. The float32 inputs are encoder-width frames.
        rng = np.random.default_rng(12)
        for shape, dtype, targets in (
            ((300, 140, 2), np.float64, ((1, 1), (2, 3), (30, 15), (7, 140))),
            ((30, 30, 1024), np.float32, ((4, 4),)),
            ((22, 40, 1024), np.float32, ((4, 4),)),
            ((3, 300, 1024), np.float32, ((1, 1), (2, 2), (3, 20))),
        ):
            v = (rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)).astype(dtype)
            for out_r, out_c in targets:
                got = avg_pool_adaptive(FrameGrid(v), out_r, out_c).values
                want = _adaptive_by_reduceat(v.astype(np.float64), out_r, out_c)
                assert got.tobytes() == want.tobytes()

    def test_oversized_target_raises(self):
        g = FrameGrid(np.zeros((4, 4)))
        with pytest.raises(InvalidOutputShape):
            avg_pool_adaptive(g, 5, 4)
        with pytest.raises(InvalidOutputShape):
            avg_pool_adaptive(g, 0, 4)


HUGE = 10**5000


@pytest.mark.parametrize("call, error, message", [
    (lambda g: avg_pool_adaptive(g, HUGE, 1), InvalidOutputShape,
     "output <int too long to print>x1 exceeds input 4x4"),
    (lambda g: avg_pool_adaptive(g, -HUGE, 1), InvalidOutputShape,
     "output must be positive, got -<int too long to print>x1"),
    (lambda g: avg_pool_strided(g, -HUGE, 1), NonDivisibleStride,
     "strides must be positive, got -<int too long to print>x1"),
    (lambda g: bilinear_resample(g, -HUGE, 1), ValueError,
     "output must be positive, got -<int too long to print>x1"),
    (lambda g: synth_features(-HUGE, PatchGrid(2, 2), 1), ValueError,
     "frame_index must be non-negative, got -<int too long to print>"),
    (lambda g: synth_features(0, PatchGrid(2, 2), -HUGE), ValueError,
     "channels must be positive, got -<int too long to print>"),
    (lambda g: naive_avg_pool_adaptive(g, -HUGE, 1), InvalidOutputShape,
     "output must be positive, got -<int too long to print>x1"),
    (lambda g: avg_pool_adaptive(g, 5, 4), InvalidOutputShape, "output 5x4 exceeds input 4x4"),
    (lambda g: avg_pool_strided(g, 0, 2), NonDivisibleStride, "strides must be positive, got 0x2"),
    (lambda g: synth_features(-3, PatchGrid(2, 2), 1), ValueError,
     "frame_index must be non-negative, got -3"),
], ids=["adaptive-huge", "adaptive-negative", "strided", "bilinear", "synth-frame",
        "synth-channels", "naive-adaptive", "adaptive-plain", "strided-plain", "synth-plain"])
def test_kernel_size_checks_name_their_error(call, error, message):
    # str() of an int over 4,300 digits raises ValueError, which would
    # escape from building the message instead of the named error; values
    # that print keep their messages.
    with pytest.raises(error, match=f"^{re.escape(message)}$") as info:
        call(FrameGrid(np.zeros((4, 4, 2))))
    assert type(info.value) is error


class TestBilinear:
    def test_same_shape_is_identity(self):
        rng = np.random.default_rng(8)
        g = FrameGrid(rng.uniform(size=(7, 5, 2)))
        out = bilinear_resample(g, 7, 5)
        assert np.array_equal(out.values, g.values)

    def test_2x2_to_3x3(self):
        g = FrameGrid(np.array([[0.0, 1.0], [2.0, 3.0]]))
        out = bilinear_resample(g, 3, 3)
        want = np.array([[0.0, 0.5, 1.0], [1.0, 1.5, 2.0], [2.0, 2.5, 3.0]])
        assert np.allclose(out.values[:, :, 0], want, atol=1e-12)

    def test_constant_grid_any_shape(self):
        g = FrameGrid(np.full((3, 4, 2), 2.25))
        out = bilinear_resample(g, 9, 2)
        assert np.allclose(out.values, 2.25, atol=1e-12)

    def test_single_output_samples_midpoint(self):
        g = FrameGrid(np.array([[0.0], [1.0], [2.0]]))
        out = bilinear_resample(g, 1, 1)
        assert out.values[0, 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_affine_fields_reproduced(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rows, cols = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            out_r, out_c = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            a, b, d = rng.uniform(-3, 3, size=3)
            r = np.arange(rows)[:, np.newaxis]
            c = np.arange(cols)[np.newaxis, :]
            g = FrameGrid(a * r + b * c + d)
            out = bilinear_resample(g, out_r, out_c).values[:, :, 0]
            ys = (np.arange(out_r) * (rows - 1) / (out_r - 1) if out_r > 1
                  else np.array([(rows - 1) / 2]))[:, np.newaxis]
            xs = (np.arange(out_c) * (cols - 1) / (out_c - 1) if out_c > 1
                  else np.array([(cols - 1) / 2]))[np.newaxis, :]
            assert np.max(np.abs(out - (a * ys + b * xs + d))) < 1e-9


class TestOracleEquivalence:
    """Quick spot checks; the acceptance suite runs 1000 grids per kernel."""

    def test_strided_matches_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            sh, sw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            g = FrameGrid(
                rng.uniform(-10, 10, size=(sh * int(rng.integers(1, 9)),
                                           sw * int(rng.integers(1, 9)),
                                           int(rng.integers(1, 5))))
            )
            got = avg_pool_strided(g, sh, sw)
            want = naive_avg_pool_strided(g, sh, sw)
            assert np.max(np.abs(got.values - want.values)) < 1e-6

    def test_adaptive_matches_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            g = FrameGrid(rng.uniform(-10, 10, size=(int(rng.integers(1, 33)),
                                                     int(rng.integers(1, 33)),
                                                     int(rng.integers(1, 5)))))
            out_r = int(rng.integers(1, g.rows + 1))
            out_c = int(rng.integers(1, g.cols + 1))
            got = avg_pool_adaptive(g, out_r, out_c)
            want = naive_avg_pool_adaptive(g, out_r, out_c)
            assert np.max(np.abs(got.values - want.values)) < 1e-6

    def test_bilinear_matches_oracle(self):
        rng = np.random.default_rng(102)
        for _ in range(60):
            g = FrameGrid(rng.uniform(-10, 10, size=(int(rng.integers(1, 33)),
                                                     int(rng.integers(1, 33)),
                                                     int(rng.integers(1, 5)))))
            out_r, out_c = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            got = bilinear_resample(g, out_r, out_c)
            want = naive_bilinear_resample(g, out_r, out_c)
            assert np.max(np.abs(got.values - want.values)) < 1e-6


@st.composite
def _grid_and_dtype(draw):
    rows = draw(st.integers(1, 33))
    cols = draw(st.integers(1, 33))
    channels = draw(st.integers(1, 8))
    width = draw(st.sampled_from([32, 64]))
    # Magnitudes from 1e3 down to subnormals, so sums mix exponents far
    # apart and any change in the order of additions shows.
    elements = st.floats(-1e3, 1e3, width=width)
    dtype = np.float32 if width == 32 else np.float64
    return draw(arrays(dtype, (rows, cols, channels), elements=elements))


@st.composite
def _kernel_case(draw):
    x = draw(_grid_and_dtype())
    rows, cols = x.shape[:2]
    name = draw(st.sampled_from(["strided", "adaptive", "bilinear"]))
    if name == "strided":
        args = (draw(st.sampled_from([d for d in range(1, rows + 1) if rows % d == 0])),
                draw(st.sampled_from([d for d in range(1, cols + 1) if cols % d == 0])))
    elif name == "adaptive":
        args = (draw(st.integers(1, rows)), draw(st.integers(1, cols)))
    else:
        args = (draw(st.integers(1, 33)), draw(st.integers(1, 33)))
    return name, x, args


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


# kernel, loop oracle, and the plain numpy form whose float64 results the
# kernel reproduces bit for bit (bilinear has no separate form).
_KERNELS = {
    "strided": (avg_pool_strided, naive_avg_pool_strided, _strided_by_mean),
    "adaptive": (avg_pool_adaptive, naive_avg_pool_adaptive, _adaptive_by_reduceat),
    "bilinear": (bilinear_resample, naive_bilinear_resample, None),
}


class TestKernelProperties:
    @settings(max_examples=300, deadline=None)
    @given(_kernel_case())
    def test_matches_oracle_and_widened_input(self, case):
        name, x, args = case
        kernel, oracle, plain = _KERNELS[name]
        grid = FrameGrid(x)
        assert grid.values.dtype == x.dtype
        got = kernel(grid, *args).values
        assert got.dtype == np.float64
        want = oracle(grid, *args).values
        assert np.max(np.abs(got - want)) <= ORACLE_TOLERANCE
        x64 = x.astype(np.float64)
        assert np.array_equal(got, kernel(FrameGrid(x64), *args).values)
        if plain is not None:
            assert np.array_equal(got, plain(x64, *args))


@st.composite
def _cache_case(draw):
    x = draw(_grid_and_dtype())
    rows, cols = x.shape[:2]
    name = draw(st.sampled_from(["strided", "adaptive"]))
    if name == "strided":
        sizes = st.tuples(st.sampled_from([d for d in range(1, rows + 1) if rows % d == 0]),
                          st.sampled_from([d for d in range(1, cols + 1) if cols % d == 0]))
        misfit = NonDivisibleStride
    else:
        sizes = st.tuples(st.integers(1, rows), st.integers(1, cols))
        misfit = InvalidOutputShape
    bad = draw(st.sampled_from([
        ((0, 1), misfit), ((rows + 1, 1), misfit), ((1, cols + 1), misfit), ((2.0, 1), ValueError),
    ]))
    return name, x, draw(sizes), draw(sizes), bad


class TestPooledResults:
    """Each pooling kernel keeps its results on the grid it pooled."""

    @settings(max_examples=300, deadline=None)
    @given(_cache_case())
    def test_repeat_call_returns_the_kept_result(self, case):
        name, x, sizes, other, (bad, error) = case
        kernel, oracle, _ = _KERNELS[name]
        grid = FrameGrid(x)
        first = kernel(grid, *sizes)
        assert kernel(grid, *sizes) is first
        assert kernel(grid, *map(np.int64, sizes)) is first
        assert np.array_equal(first.values, kernel(FrameGrid(x), *sizes).values)
        assert np.max(np.abs(first.values - oracle(grid, *sizes).values)) <= ORACLE_TOLERANCE
        second = kernel(grid, *other)
        assert (second is first) == (other == sizes)
        assert np.array_equal(second.values, kernel(FrameGrid(x), *other).values)
        with pytest.raises(error):
            kernel(grid, *bad)
        assert kernel(grid, *sizes) is first and kernel(grid, *other) is second
        # The other pooling kernel at the same sizes keeps its own result.
        twin = avg_pool_adaptive if kernel is avg_pool_strided else avg_pool_strided
        if all(n % k == 0 for n, k in zip(grid.shape, sizes)):  # valid for both kernels
            assert np.array_equal(twin(grid, *sizes).values, twin(FrameGrid(x), *sizes).values)

        if first.shape == grid.shape:
            return  # every output cell is one input cell, so no sum can overflow
        # Finite float64 inputs whose sums overflow to inf: a call that
        # raises keeps nothing, so the repeat raises too.
        huge = FrameGrid(np.full(x.shape, 1.7e308))
        with np.errstate(over="ignore"):
            for _ in range(2):
                with pytest.raises(ValueError, match="finite"):
                    kernel(huge, *sizes)


NOT_AN_INTEGER = st.one_of(st.floats(), st.booleans(), st.text())

# Each kernel and loop oracle, with the names of its two size arguments and
# a pair of valid values for a 4x6 grid.
_SIZED = [
    (fn, names, (2, 3))
    for pair, names in (
        ((avg_pool_strided, naive_avg_pool_strided), ("stride_h", "stride_w")),
        ((avg_pool_adaptive, naive_avg_pool_adaptive), ("out_rows", "out_cols")),
        ((bilinear_resample, naive_bilinear_resample), ("out_rows", "out_cols")),
    )
    for fn in pair
]


class TestKernelArguments:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_SIZED), st.integers(0, 1), NOT_AN_INTEGER)
    def test_non_integers_rejected_by_name(self, sized, position, value):
        fn, names, valid = sized
        args = list(valid)
        args[position] = value
        with pytest.raises(ValueError, match=f"{names[position]} must be an integer"):
            fn(FrameGrid(np.ones((4, 6, 2))), *args)

    @pytest.mark.parametrize("kernel, sizes, error, message", [
        (avg_pool_strided, (4, 4), NonDivisibleStride, "strides 4x4 do not divide grid 6x8"),
        (avg_pool_strided, (0, 2), NonDivisibleStride, "strides must be positive, got 0x2"),
        (avg_pool_strided, (2, 2.0), ValueError, "stride_w must be an integer, got 2.0"),
        (avg_pool_adaptive, (7, 2), InvalidOutputShape, "output 7x2 exceeds input 6x8"),
        (avg_pool_adaptive, (2, -1), InvalidOutputShape, "output must be positive, got 2x-1"),
        (avg_pool_adaptive, (True, 2), ValueError, "out_rows must be an integer, got True"),
    ])
    def test_misfit_sizes_raise_alike_with_and_without_kept_results(self, kernel, sizes, error,
                                                                       message):
        grid = FrameGrid(np.arange(48.0).reshape(6, 8, 1))
        for _ in range(2):  # a fresh grid, then one that keeps a result
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                kernel(grid, *sizes)
            kernel(grid, 2, 2)
        assert len(grid._pooled) == 1

    @pytest.mark.parametrize("sized", _SIZED)
    def test_numpy_integers_accepted(self, sized):
        fn, _, valid = sized
        grid = FrameGrid(np.arange(48.0).reshape(4, 6, 2))
        got = fn(grid, np.int64(valid[0]), np.uint8(valid[1])).values
        assert np.array_equal(got, fn(grid, *valid).values)


# Memory layouts a grid's array may have, each holding the values of the
# C-ordered grid x. FrameGrid copies into C order, but a kernel's result
# can be a strided view of its stack's output and be pooled again.
def _fortran(x):
    return np.asfortranarray(x)


def _transposed(x):
    return np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)


def _channels_first(x):
    return np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)


def _sliced(x):
    rows, cols, ch = x.shape
    big = np.zeros((2 * rows, 2 * cols, ch), dtype=x.dtype, order="F")
    big[::2, 1::2] = x
    return big[::2, 1::2]


_LAYOUTS = [_fortran, _transposed, _channels_first, _sliced]


@st.composite
def _strided_layout_case(draw):
    sh, sw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows, cols = sh * draw(st.integers(2, 6)), sw * draw(st.integers(2, 6))
    channels = draw(st.integers(1, 8))
    width = draw(st.sampled_from([32, 64]))
    elements = st.floats(-1e3, 1e3, width=width)
    dtype = np.float32 if width == 32 else np.float64
    x = draw(arrays(dtype, (rows, cols, channels), elements=elements))
    return x, draw(st.sampled_from(_LAYOUTS)), (sh, sw)


class TestStridedLayouts:
    """Strided pooling does not depend on how the grid lies in memory."""

    @staticmethod
    def _check(x, layout, sh, sw):
        # Returns the grid wrapped as the layout lies, uncopied.
        view = layout(x)
        assert np.array_equal(view, x)
        grid = _wrap(view)
        got = avg_pool_strided(grid, sh, sw).values
        assert np.array_equal(got, _strided_by_mean(x.astype(np.float64), sh, sw))
        copied = FrameGrid(view)
        assert copied.values.flags.c_contiguous
        assert np.array_equal(got, avg_pool_strided(copied, sh, sw).values)
        widened = FrameGrid(view.astype(np.float64))
        assert np.array_equal(got, avg_pool_strided(widened, sh, sw).values)
        return grid

    @settings(max_examples=300, deadline=None)
    @given(_strided_layout_case())
    def test_matches_mean_of_c_ordered_input(self, case):
        x, layout, (sh, sw) = case
        grid = self._check(x, layout, sh, sw)
        if x.shape[2] > 1 or layout is not _channels_first:
            assert not grid.values.flags.c_contiguous

    @pytest.mark.parametrize("layout", _LAYOUTS)
    def test_encoder_width_mixed_exponents(self, layout):
        rng = np.random.default_rng(1024)
        x = rng.standard_normal((8, 8, 1024)) * 10.0 ** rng.integers(-30, 30, (8, 8, 1024))
        grid = self._check(x.astype(np.float32), layout, 2, 2)
        assert not grid.values.flags.c_contiguous


class TestSynthFeatures:
    def test_deterministic(self):
        a = synth_features(3, PatchGrid(5, 7), 2)
        b = synth_features(3, PatchGrid(5, 7), 2)
        assert np.array_equal(a.values, b.values)

    def test_frames_differ(self):
        a = synth_features(0, PatchGrid(4, 4), 1)
        b = synth_features(1, PatchGrid(4, 4), 1)
        assert (a.values != b.values).any()

    def test_values_in_unit_interval(self):
        g = synth_features(2, PatchGrid(16, 16), 3)
        assert (g.values >= 0).all() and (g.values < 1).all()

    def test_golden_checksum_30x30x4_frame0(self):
        g = synth_features(0, PatchGrid(30, 30), 4)
        assert g.values[0, 0, 0] == pytest.approx(0.8833108082136426, abs=0)
        assert g.values[29, 29, 3] == pytest.approx(0.40814532774797985, abs=0)
        assert float(g.values.sum()) == pytest.approx(1798.4948494802027, abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            synth_features(-1, PatchGrid(2, 2), 1)
        with pytest.raises(ValueError):
            synth_features(0, PatchGrid(2, 2), 0)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["frame_index", "channels"]), NOT_AN_INTEGER)
    def test_non_integers_rejected_by_name(self, name, value):
        args = {"frame_index": 0, "channels": 2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            synth_features(args["frame_index"], PatchGrid(2, 2), args["channels"])
