"""Rulebook construction, execution, and dense oracles.

Offset convention under test everywhere: for stride 1 a tuple (i, w, o)
means coord(o) - coord(i) == offsets[w], with offsets enumerated row-major
from (-pad_h, -pad_w). The 2x2 stride-2 forms use i = 2*o + delta for
downsampling and o = 2*i + delta for the transposed direction.
"""

import itertools
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarconv import conv
from pillarconv.conv import (
    Kernel,
    Rulebook,
    build_rulebook_deconv2x2,
    build_rulebook_downsample2x2,
    build_rulebook_selective,
    build_rulebook_sparse,
    build_rulebook_subm,
    dense_conv_oracle,
    dense_deconv_oracle,
    execute_rulebook,
    flops_of_rulebook,
)
from pillarconv.errors import (
    BadKernelShapeError,
    NonFiniteValueError,
    SelectionNotSubsetError,
    ShapeMismatchError,
    StrideUnsupportedError,
    UnsortedInputError,
)
from pillarconv.importance import pillar_importance, select_topk
from pillarconv.scenes import SceneSpec, generate
from pillarconv.tensor import FEATURE_DTYPE, DenseGrid, PillarTensor, from_entries


def scene(h, w, c, density, seed):
    return generate(SceneSpec(height=h, width=w, channels=c, density=density, seed=seed))


def oracle_at(dense, coords):
    return np.stack([dense.data[r, c] for (r, c) in coords])


class TestKernel:
    def test_offsets_row_major_centered(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        assert k.offsets == (
            (-1, -1), (-1, 0), (-1, 1),
            (0, -1), (0, 0), (0, 1),
            (1, -1), (1, 0), (1, 1),
        )
        assert k.taps == 9

    def test_rectangular_offsets(self):
        k = Kernel.seeded(1, 3, 1, 1, 1, seed=0)
        assert k.offsets == ((0, -1), (0, 0), (0, 1))

    def test_stride2_offsets(self):
        k = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        assert k.offsets == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_even_kernel_rejected_at_stride1(self):
        with pytest.raises(BadKernelShapeError):
            Kernel.seeded(2, 2, 1, 1, 1, seed=0)

    def test_only_2x2_at_stride2(self):
        with pytest.raises(BadKernelShapeError):
            Kernel.seeded(3, 3, 1, 1, 2, seed=0)

    def test_stride3_rejected(self):
        with pytest.raises(StrideUnsupportedError):
            Kernel.seeded(3, 3, 1, 1, 3, seed=0)

    def test_weight_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            Kernel(3, 3, 2, 2, 1, np.zeros((9, 2, 3), dtype=np.float32),
                   np.zeros(2, dtype=np.float32))

    def test_seeded_is_deterministic(self):
        a = Kernel.seeded(3, 3, 4, 5, 1, seed=11, bias_scale=0.2)
        b = Kernel.seeded(3, 3, 4, 5, 1, seed=11, bias_scale=0.2)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        c = Kernel.seeded(3, 3, 4, 5, 1, seed=12, bias_scale=0.2)
        assert not np.array_equal(a.weights, c.weights)

    @pytest.mark.parametrize("where,value", [
        ("weights", np.nan), ("weights", np.inf), ("bias", -np.inf), ("bias", np.nan),
    ])
    def test_non_finite_values_rejected(self, where, value):
        w = np.ones((9, 2, 3), dtype=np.float32)
        b = np.zeros(3, dtype=np.float32)
        (w if where == "weights" else b).flat[1] = value
        with pytest.raises(NonFiniteValueError):
            Kernel(3, 3, 2, 3, 1, w, b)

    @pytest.mark.parametrize("c_in,c_out", [(0, 4), (4, 0), (-1, 4), (4, -1)])
    def test_channels_below_one_rejected(self, c_in, c_out):
        # seeded checks before its draw: numpy raises its own error for a negative shape
        field = "c_in" if c_in < 1 else "c_out"
        with pytest.raises(ShapeMismatchError, match=f"{field} must be >= 1"):
            Kernel.seeded(3, 3, c_in, c_out, 1, seed=0)
        with pytest.raises(ShapeMismatchError, match=f"{field} must be >= 1"):
            Kernel(3, 3, c_in, c_out, 1, np.zeros((9, max(c_in, 0), max(c_out, 0))),
                   np.zeros(max(c_out, 0)))

    def test_identity_passes_features_through(self):
        t = scene(6, 6, 4, 0.3, seed=1)
        k = Kernel.identity(4)
        rb = build_rulebook_subm(t.coords, k, bounds=(6, 6))
        out = execute_rulebook(rb, t, k)
        assert out.coords == t.coords
        assert np.array_equal(out.features, t.features)


def dense_conv_reference(g: DenseGrid, k: Kernel) -> DenseGrid:
    """Scalar-loop reference convolution, small grids only.

    Same math as dense_conv_oracle written as six nested loops, kept as an
    independent cross-check of the vectorized oracle.
    """
    h, w = g.height, g.width
    if k.stride == 1:
        out_h, out_w = h, w
    else:
        out_h, out_w = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((out_h, out_w, k.c_out), dtype=np.float64)
    for orow in range(out_h):
        for ocol in range(out_w):
            for wi, (dr, dc) in enumerate(k.offsets):
                if k.stride == 1:
                    r, c = orow - dr, ocol - dc
                else:
                    r, c = 2 * orow + dr, 2 * ocol + dc
                if not (0 <= r < h and 0 <= c < w):
                    continue
                for ci in range(k.c_in):
                    v = float(g.data[r, c, ci])
                    for co in range(k.c_out):
                        out[orow, ocol, co] += v * float(k.weights[wi, ci, co])
            for co in range(k.c_out):
                out[orow, ocol, co] += float(k.bias[co])
    return DenseGrid(out.astype(FEATURE_DTYPE))


def per_tap_conv_reference(g: DenseGrid, k: Kernel) -> DenseGrid:
    """The whole-grid dense oracle the tiled one replaced, kept as a bitwise reference.

    One float64 grid, one strided GEMM-and-add per tap over every row at
    once, then the bias and a single rounding to float32.
    """
    h, w = g.height, g.width
    data = g.data.astype(np.float64)
    weights = k.weights.astype(np.float64)
    if k.stride == 1:
        out = np.zeros((h, w, k.c_out), dtype=np.float64)
        for wi, (dr, dc) in enumerate(k.offsets):
            r0, r1 = max(0, dr), min(h, h + dr)
            c0, c1 = max(0, dc), min(w, w + dc)
            if r0 >= r1 or c0 >= c1:
                continue
            src = data[r0 - dr : r1 - dr, c0 - dc : c1 - dc]
            out[r0:r1, c0:c1] += src @ weights[wi]
    else:
        out_h, out_w = (h + 1) // 2, (w + 1) // 2
        out = np.zeros((out_h, out_w, k.c_out), dtype=np.float64)
        for wi, (dr, dc) in enumerate(k.offsets):
            src = data[dr::2, dc::2]
            out[: src.shape[0], : src.shape[1]] += src @ weights[wi]
    out += k.bias.astype(np.float64)
    return DenseGrid(out.astype(FEATURE_DTYPE))


def per_tap_deconv_reference(g: DenseGrid, k: Kernel, out_bounds=None) -> DenseGrid:
    """The whole-grid transposed oracle the tiled one replaced, kept as a bitwise reference."""
    out_h, out_w = out_bounds or (2 * g.height, 2 * g.width)
    data = g.data.astype(np.float64)
    weights = k.weights.astype(np.float64)
    out = np.zeros((out_h, out_w, k.c_out), dtype=np.float64)
    for wi, (dr, dc) in enumerate(k.offsets):
        dst = out[dr::2, dc::2]
        src = data[: dst.shape[0], : dst.shape[1]]
        dst[: src.shape[0], : src.shape[1]] += src @ weights[wi]
    out += k.bias.astype(np.float64)
    return DenseGrid(out.astype(FEATURE_DTYPE))


def grid_data(rng, h, w, c):
    """float32 values over six decades, with some +0.0 and -0.0 entries."""
    data = rng.standard_normal((h, w, c)) * 10.0 ** rng.integers(-3, 4, (h, w, c))
    data[rng.random((h, w, c)) < 0.15] = 0.0
    data[rng.random((h, w, c)) < 0.1] = -0.0
    return data.astype(FEATURE_DTYPE)


def order_revealing_rows(c_in: int) -> np.ndarray:
    """float32 rows whose products with weights of 1 + 2**-12 expose summation order.

    Each row holds one big entry and two tiny ones, in every placement. The
    big product lies on a float32 rounding midpoint; each tiny product is
    below half a float64 ulp of it, the two together above. Added one at a
    time after the big one they vanish and float32 rounds the midpoint to
    even; added together first, or before it, they round it up. A GEMM that
    sums its K terms in another order therefore changes float32 bits, which
    ordinary data almost never shows.
    """
    rows = []
    for big in range(c_in):
        for a, b in itertools.combinations([i for i in range(c_in) if i != big], 2):
            x = np.zeros(c_in, dtype=FEATURE_DTYPE)
            x[big] = 1 + 2.0**-12
            x[a] = x[b] = 1.25 * 2.0**-54
            rows.append(x)
    return np.array(rows)


def one_product_grid(rows: np.ndarray, h: int, w: int, k: Kernel) -> DenseGrid:
    """An h x w grid holding `rows`, spread evenly, so each output of `k` gets one nonzero product.

    At stride 1 the rows sit on a k_h x k_w lattice, so every output's
    window holds one of them; at 2x2 stride 2 each 2x2 block holds one, at
    the tap (R + C) % 4 in row-major order. All other cells are zero and
    their products, exact zeros, leave each output its one product's
    order-revealing bits. A 1x1 kernel fills every cell, as the transposed
    convolution would need.
    """
    data = np.zeros((h, w, rows.shape[1]), dtype=FEATURE_DTYPE)
    if k.stride == 1:
        rr, cc = np.mgrid[0:h:k.k_h, 0:w:k.k_w]
    else:
        blocks_r, blocks_c = np.mgrid[0 : (h + 1) // 2, 0 : (w + 1) // 2]
        dr, dc = np.divmod((blocks_r + blocks_c) % 4, 2)
        rr, cc = 2 * blocks_r + dr, 2 * blocks_c + dc
        inside = (rr < h) & (cc < w)
        rr, cc = rr[inside], cc[inside]
    rr, cc = rr.ravel(), cc.ravel()
    data[rr, cc] = rows[np.arange(rr.size) * len(rows) // rr.size]
    return DenseGrid(data)


def order_revealing_kernel(k_h, k_w, c_in, c_out, stride=1) -> Kernel:
    w = np.full((k_h * k_w, c_in, c_out), 1 + 2.0**-12, dtype=FEATURE_DTYPE)
    return Kernel(k_h, k_w, c_in, c_out, stride, w, np.zeros(c_out, dtype=FEATURE_DTYPE))


# accumulator budgets: one row per tile, a few rows, and the production size
BUDGETS = st.sampled_from([8, 512, 4096, conv.ACC_BYTES])
ORACLE_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class TestTiledOraclesBitwise:
    """The tiled oracles equal the whole-grid per-tap ones byte for byte."""

    @ORACLE_SETTINGS
    @given(st.integers(1, 9), st.integers(1, 9),
           st.sampled_from([(1, 1, 1), (3, 1, 1), (5, 3, 1), (3, 3, 1), (2, 2, 2)]),
           st.integers(1, 5), st.sampled_from([1, 2, 3, 5, 8, 16]),
           st.booleans(), BUDGETS, st.integers(0, 2**31 - 1))
    def test_conv(self, h, w, kshape, c_in, c_out, zero_bias, budget, seed):
        rng = np.random.default_rng(seed)
        g = DenseGrid(grid_data(rng, h, w, c_in))
        k = Kernel.seeded(*kshape[:2], c_in, c_out, kshape[2], seed=seed,
                          bias_scale=0.0 if zero_bias else 0.5)
        with mock.patch.object(conv, "ACC_BYTES", budget):
            got = dense_conv_oracle(g, k)
        assert got.data.tobytes() == per_tap_conv_reference(g, k).data.tobytes()

    @ORACLE_SETTINGS
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(-3, 3), st.integers(-3, 3),
           st.booleans(), st.integers(1, 5), st.sampled_from([1, 2, 3, 5, 8, 16]),
           st.booleans(), BUDGETS, st.integers(0, 2**31 - 1))
    def test_deconv(self, h, w, dh, dw, default_bounds, c_in, c_out, zero_bias, budget, seed):
        rng = np.random.default_rng(seed)
        g = DenseGrid(grid_data(rng, h, w, c_in))
        k = Kernel.seeded(2, 2, c_in, c_out, 2, seed=seed,
                          bias_scale=0.0 if zero_bias else 0.5)
        # clipped, odd or padded output bounds around the 2h x 2w default
        bounds = None if default_bounds else (max(1, 2 * h + dh), max(1, 2 * w + dw))
        with mock.patch.object(conv, "ACC_BYTES", budget):
            got = dense_deconv_oracle(g, k, bounds)
        want = per_tap_deconv_reference(g, k, bounds)
        assert got.data.tobytes() == want.data.tobytes()

    def test_seeded_zero_bias_holds_negative_zero(self):
        # the case the +0.0 start exists for: -0.0 products and -0.0 biases
        k = Kernel.seeded(2, 2, 3, 16, 2, seed=1)
        assert np.signbit(k.bias).any() and not k.bias.any()
        g = DenseGrid(np.zeros((3, 4, 3), dtype=FEATURE_DTYPE))
        out = dense_deconv_oracle(g, k, (5, 9))
        assert not np.signbit(out.data).any()
        assert out.data.tobytes() == per_tap_deconv_reference(g, k, (5, 9)).data.tobytes()

    @pytest.mark.parametrize("h,w,kshape", [(40, 64, (3, 3, 1)), (37, 64, (5, 3, 1)),
                                            (81, 129, (2, 2, 2))])
    def test_several_production_tiles_tall(self, h, w, kshape):
        # 256 float64 channels: 2 KB per column, so each tile holds a few rows
        rng = np.random.default_rng(h)
        g = DenseGrid(grid_data(rng, h, w, 3))
        k = Kernel.seeded(kshape[0], kshape[1], 3, 256, kshape[2], seed=2, bias_scale=0.1)
        out_w = -(-w // kshape[2])
        assert -(-g.height // kshape[2]) > 2 * conv.ACC_BYTES // (8 * out_w * 256)
        got = dense_conv_oracle(g, k)
        assert got.data.tobytes() == per_tap_conv_reference(g, k).data.tobytes()

    def test_deconv_several_production_tiles_tall(self):
        rng = np.random.default_rng(3)
        g = DenseGrid(grid_data(rng, 70, 33, 4))
        k = Kernel.seeded(2, 2, 4, 256, 2, seed=3, bias_scale=0.1)
        for bounds in (None, (139, 65)):
            got = dense_deconv_oracle(g, k, bounds)
            want = per_tap_deconv_reference(g, k, bounds)
            assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("c_out", [3, 8, 12, 64, 128, 256])
    @pytest.mark.parametrize("budget", [8, 4096, conv.ACC_BYTES])
    def test_same_summation_order(self, c_out, budget):
        # Order-revealing outputs: a GEMM call of another shape, which for
        # some widths sums in another order, would change output bits. c_out
        # 3 and 12 run one GEMM per output row, the others one per (tile,
        # tap) wherever each row call would have two rows or more. Widths 1-4
        # make row calls of one row (a GEMV, which sums in another order) and
        # of two.
        rows = order_revealing_rows(32)
        shapes = [(120, 124), (120, 1), (120, 2), (120, 3), (120, 4)]
        kernels = [order_revealing_kernel(kh, kw, 32, c_out, stride)
                   for kh, kw, stride in [(1, 1, 1), (3, 3, 1), (5, 3, 1), (2, 2, 2)]]
        up = order_revealing_kernel(2, 2, 32, c_out, stride=2)
        # default, clipped and padded bounds; in_w = 1 under padded bounds
        # makes one-row calls where the output has three columns per tap
        deconvs = [((120, 124), None), ((120, 124), (239, 247)), ((120, 124), (241, 250)),
                   ((60, 1), (121, 5)), ((60, 2), None), ((60, 2), (120, 3)),
                   ((60, 3), (119, 5))]
        with mock.patch.object(conv, "ACC_BYTES", budget):
            for (h, w), k in itertools.product(shapes, kernels):
                g = one_product_grid(rows, h, w, k)
                got = dense_conv_oracle(g, k).data.tobytes()
                want = per_tap_conv_reference(g, k).data.tobytes()
                assert got == want, ((h, w), k.k_h, k.k_w, k.stride)
            for (h, w), bounds in deconvs:
                g = one_product_grid(rows, h, w, Kernel.identity(32))
                got = dense_deconv_oracle(g, up, bounds).data.tobytes()
                want = per_tap_deconv_reference(g, up, bounds).data.tobytes()
                assert got == want, ((h, w), bounds)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_no_full_grid_float64_array(self, stride):
        # a float64 copy of the output grid alone would be twice its float32 size
        g = DenseGrid(np.ones((128, 128, 2), dtype=FEATURE_DTYPE))
        oracle = dense_conv_oracle if stride == 1 else dense_deconv_oracle
        size = 3 if stride == 1 else 2
        k = Kernel.seeded(size, size, 2, 256, stride, seed=0)
        tracemalloc.start()
        try:
            out = oracle(g, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.data.nbytes + 3 * conv.ACC_BYTES + g.data.nbytes


class TestDenseOracles:
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (3, 1), (5, 3)])
    def test_oracle_matches_scalar_reference(self, kh, kw):
        rng = np.random.Generator(np.random.Philox(key=5))
        data = rng.standard_normal((7, 6, 3)).astype(np.float32)
        k = Kernel.seeded(kh, kw, 3, 2, 1, seed=8, bias_scale=0.5)
        fast = dense_conv_oracle(DenseGrid(data), k)
        slow = dense_conv_reference(DenseGrid(data), k)
        assert fast.data.shape == slow.data.shape == (7, 6, 2)
        np.testing.assert_allclose(fast.data, slow.data, rtol=1e-6, atol=1e-6)

    def test_stride2_oracle_matches_scalar_reference(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        data = rng.standard_normal((7, 9, 2)).astype(np.float32)
        k = Kernel.seeded(2, 2, 2, 3, 2, seed=9, bias_scale=0.3)
        fast = dense_conv_oracle(DenseGrid(data), k)
        slow = dense_conv_reference(DenseGrid(data), k)
        assert fast.data.shape == (4, 5, 3)
        np.testing.assert_allclose(fast.data, slow.data, rtol=1e-6, atol=1e-6)

    def test_delta_input_stamps_the_kernel_unflipped(self):
        # out[p + offsets[w]] = weights[w] for a unit impulse at p
        data = np.zeros((7, 7, 1), dtype=np.float32)
        data[3, 3, 0] = 1.0
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=4)
        out = dense_conv_oracle(DenseGrid(data), k)
        for w, (dr, dc) in enumerate(k.offsets):
            assert out.data[3 + dr, 3 + dc, 0] == pytest.approx(
                float(k.weights[w, 0, 0]), abs=1e-7)

    def test_deconv_oracle_spreads_one_input_to_four_outputs(self):
        data = np.zeros((3, 3, 1), dtype=np.float32)
        data[1, 2, 0] = 2.0
        k = Kernel(2, 2, 1, 1, 2,
                   np.arange(1, 5, dtype=np.float32).reshape(4, 1, 1),
                   np.zeros(1, dtype=np.float32))
        out = dense_deconv_oracle(DenseGrid(data), k)
        assert out.data.shape == (6, 6, 1)
        assert out.data[2, 4, 0] == 2.0   # delta (0,0), weight 1
        assert out.data[2, 5, 0] == 4.0   # delta (0,1), weight 2
        assert out.data[3, 4, 0] == 6.0   # delta (1,0), weight 3
        assert out.data[3, 5, 0] == 8.0   # delta (1,1), weight 4
        assert np.count_nonzero(out.data) == 4


class TestSubmanifold:
    def test_frozen_diagonal_rulebook(self):
        # actives on a diagonal: each neighbors the next at offset (1,1)
        coords = ((0, 0), (1, 1), (2, 2))
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_subm(coords, k, bounds=(4, 4))
        assert rb.output_coords == coords
        assert rb.in_idx.tolist() == [1, 2, 0, 1, 2, 0, 1]
        assert rb.w_idx.tolist() == [0, 0, 4, 4, 4, 8, 8]
        assert rb.out_idx.tolist() == [0, 1, 0, 1, 2, 1, 2]

    def test_output_set_equals_active_set(self):
        t = scene(12, 9, 1, 0.3, seed=2)
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_subm(t.coords, k, bounds=(12, 9))
        assert rb.output_coords == t.coords

    def test_unsorted_input_rejected(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        with pytest.raises(UnsortedInputError):
            build_rulebook_subm(((2, 2), (0, 0)), k, bounds=(4, 4))

    def test_1x1_rulebook_is_identity_pairing(self):
        coords = ((0, 1), (3, 2))
        k = Kernel.seeded(1, 1, 1, 1, 1, seed=0)
        rb = build_rulebook_subm(coords, k, bounds=(4, 4))
        assert rb.n_tuples == 2
        assert rb.in_idx.tolist() == [0, 1]
        assert rb.w_idx.tolist() == [0, 0]


class TestSparseFull:
    def test_interior_active_dilates_to_nine_outputs(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_sparse(((2, 2),), k, (5, 5))
        assert rb.n_outputs == 9
        assert rb.n_tuples == 9
        assert set(rb.output_coords) == {(r, c) for r in (1, 2, 3) for c in (1, 2, 3)}

    def test_corner_active_clips_to_four_outputs(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_sparse(((0, 0),), k, (5, 5))
        assert set(rb.output_coords) == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_tuple_count_is_all_reachable_pairs(self):
        t = scene(10, 10, 1, 0.2, seed=3)
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_sparse(t.coords, k, (10, 10))
        want = sum(
            1
            for (r, c) in t.coords
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if 0 <= r + dr < 10 and 0 <= c + dc < 10
        )
        assert rb.n_tuples == want


class TestSelective:
    def test_frozen_two_active_one_selected(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_selective(((2, 2), (4, 4)), ((2, 2),), k, (7, 7))
        want_outputs = {(r, c) for r in (1, 2, 3) for c in (1, 2, 3)} | {(4, 4)}
        assert set(rb.output_coords) == want_outputs
        assert rb.n_outputs == 10
        # the selected pillar reaches all 9 of its neighbors; the unselected
        # one still feeds every output inside its own reach
        assert rb.n_tuples == 11
        out_index = {c: i for i, c in enumerate(rb.output_coords)}
        tuples = set(zip(rb.in_idx.tolist(), rb.w_idx.tolist(), rb.out_idx.tolist()))
        assert (1, 0, out_index[(3, 3)]) in tuples  # (4,4) -> (3,3), offset (-1,-1)
        assert (1, 4, out_index[(4, 4)]) in tuples  # (4,4) self tap

    def test_empty_selection_degenerates_to_submanifold(self):
        t = scene(9, 11, 1, 0.25, seed=4)
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        sd = build_rulebook_selective(t.coords, (), k, (9, 11))
        subm = build_rulebook_subm(t.coords, k, bounds=(9, 11))
        assert sd.same_tuples(subm)

    def test_full_selection_degenerates_to_sparse(self):
        t = scene(9, 11, 1, 0.25, seed=4)
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        sd = build_rulebook_selective(t.coords, t.coords, k, (9, 11))
        sparse = build_rulebook_sparse(t.coords, k, (9, 11))
        assert sd.same_tuples(sparse)

    def test_tuples_nest_between_submanifold_and_sparse(self):
        t = scene(8, 8, 1, 0.3, seed=5)
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        sparse_tuples = build_rulebook_sparse(t.coords, k, (8, 8))
        sel = t.coords[:: 2]
        sd = build_rulebook_selective(t.coords, sel, k, (8, 8))
        # indices refer to the same input order; output indices differ per
        # book, so compare as coordinate triples
        def as_coords(rb):
            return {
                (int(i), int(w), rb.output_coords[int(o)])
                for i, w, o in zip(rb.in_idx, rb.w_idx, rb.out_idx)
            }

        subm_set = as_coords(build_rulebook_subm(t.coords, k, bounds=(8, 8)))
        sd_set = as_coords(sd)
        sparse_set = as_coords(sparse_tuples)
        assert subm_set <= sd_set <= sparse_set

    def test_selection_must_be_subset_of_active(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        with pytest.raises(SelectionNotSubsetError):
            build_rulebook_selective(((1, 1),), ((2, 2),), k, (4, 4))

    def test_dilated_outputs_get_contributions_from_unselected_inputs(self):
        # (0,1) is created by dilating (1,1); (1,2)'s reach covers it, so the
        # unselected (1,2) must contribute there too
        coords = ((1, 1), (1, 2))
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_selective(coords, ((1, 1),), k, (4, 4))
        out_index = {c: i for i, c in enumerate(rb.output_coords)}
        contributors = {
            int(i) for i, o in zip(rb.in_idx, rb.out_idx) if int(o) == out_index[(0, 1)]
        }
        assert contributors == {0, 1}


class TestStride2Books:
    def test_downsample_parity_mapping(self):
        k = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        rb = build_rulebook_downsample2x2(((3, 5),), k, (6, 8))
        assert rb.output_coords == ((1, 2),)
        assert rb.out_height == 3 and rb.out_width == 4
        assert rb.w_idx.tolist() == [3]  # delta (1,1)

    def test_downsample_merges_a_full_block(self):
        k = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        coords = ((2, 4), (2, 5), (3, 4), (3, 5))
        rb = build_rulebook_downsample2x2(coords, k, (6, 8))
        assert rb.output_coords == ((1, 2),)
        assert rb.n_tuples == 4
        assert sorted(rb.w_idx.tolist()) == [0, 1, 2, 3]

    def test_downsample_ceil_grid_for_odd_dims(self):
        k = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        rb = build_rulebook_downsample2x2(((4, 6),), k, (5, 7))
        assert (rb.out_height, rb.out_width) == (3, 4)
        assert rb.output_coords == ((2, 3),)

    def test_deconv_spreads_to_four_offsets(self):
        k = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        rb = build_rulebook_deconv2x2(((1, 2),), k, (6, 8))
        assert set(rb.output_coords) == {(2, 4), (2, 5), (3, 4), (3, 5)}
        assert rb.n_tuples == 4

    def test_deconv_clips_at_grid_edge(self):
        k = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        rb = build_rulebook_deconv2x2(((2, 3),), k, (5, 7))
        assert set(rb.output_coords) == {(4, 6)}
        assert rb.n_tuples == 1

    def test_downsample_then_deconv_covers_the_source_blocks(self):
        t = scene(12, 14, 1, 0.2, seed=6)
        k2 = Kernel.seeded(2, 2, 1, 1, 2, seed=0)
        down = build_rulebook_downsample2x2(t.coords, k2, (12, 14))
        up = build_rulebook_deconv2x2(down.output_coords, k2, (12, 14))
        got = set(up.output_coords)
        want = {
            (2 * (r // 2) + a, 2 * (c // 2) + b)
            for (r, c) in t.coords
            for a in (0, 1)
            for b in (0, 1)
        }
        assert got == want
        assert set(t.coords) <= got


class TestExecution:
    @pytest.mark.parametrize("mode", ["subm", "sparse", "selective"])
    @pytest.mark.parametrize("kh,kw", [(1, 1), (3, 3), (3, 5)])
    def test_matches_dense_oracle_at_output_coords(self, mode, kh, kw):
        for case in range(6):
            t = scene(11, 13, 3, 0.25, seed=100 + case)
            k = Kernel.seeded(kh, kw, 3, 4, 1, seed=200 + case, bias_scale=0.3)
            if mode == "subm":
                rb = build_rulebook_subm(t.coords, k, bounds=(11, 13))
            elif mode == "sparse":
                rb = build_rulebook_sparse(t.coords, k, (11, 13))
            else:
                sel = select_topk(pillar_importance(t), 30.0)
                rb = build_rulebook_selective(t.coords, sel.selected, k, (11, 13))
            out = execute_rulebook(rb, t, k)
            dense = dense_conv_oracle(t.to_dense(), k)
            np.testing.assert_allclose(
                out.features, oracle_at(dense, out.coords), rtol=1e-5, atol=1e-5)

    def test_downsample_matches_stride2_oracle(self):
        t = scene(12, 10, 2, 0.3, seed=7)
        k = Kernel.seeded(2, 2, 2, 3, 2, seed=3, bias_scale=0.2)
        rb = build_rulebook_downsample2x2(t.coords, k, (12, 10))
        out = execute_rulebook(rb, t, k)
        dense = dense_conv_oracle(t.to_dense(), k)
        np.testing.assert_allclose(
            out.features, oracle_at(dense, out.coords), rtol=1e-5, atol=1e-5)

    def test_deconv_matches_transposed_oracle(self):
        t = scene(6, 5, 2, 0.3, seed=8)
        k = Kernel.seeded(2, 2, 2, 3, 2, seed=4, bias_scale=0.2)
        rb = build_rulebook_deconv2x2(t.coords, k, (12, 10))
        out = execute_rulebook(rb, t, k)
        dense = dense_deconv_oracle(t.to_dense(), k, (12, 10))
        np.testing.assert_allclose(
            out.features, oracle_at(dense, out.coords), rtol=1e-5, atol=1e-5)

    def test_accumulation_in_float64_survives_cancellation(self):
        # 1e8 + 1 - 1e8 collapses to 0 in float32 accumulation order
        entries = [((1, 0), [1e8]), ((1, 1), [1.0]), ((1, 2), [-1e8])]
        t = from_entries(3, 3, 1, entries)
        w = np.ones((9, 1, 1), dtype=np.float32)
        k = Kernel(3, 3, 1, 1, 1, w, np.zeros(1, dtype=np.float32))
        rb = build_rulebook_subm(t.coords, k, bounds=(3, 3))
        out = execute_rulebook(rb, t, k)
        assert out.coords[1] == (1, 1) and out.features[1, 0] == 1.0

    def test_bias_lands_on_dilated_outputs_too(self):
        t = from_entries(5, 5, 1, [((2, 2), [0.0, ])])
        # zero feature, nonzero bias: every produced output shows the bias
        k = Kernel(3, 3, 1, 1, 1, np.ones((9, 1, 1), dtype=np.float32),
                   np.full(1, 0.75, dtype=np.float32))
        rb = build_rulebook_sparse(t.coords, k, (5, 5))
        out = execute_rulebook(rb, t, k)
        assert out.n_active == 9
        assert np.all(out.features == 0.75)

    def test_empty_active_set_runs(self):
        k = Kernel.seeded(3, 3, 2, 2, 1, seed=0)
        rb = build_rulebook_sparse((), k, (4, 4))
        t = from_entries(4, 4, 2, [])
        out = execute_rulebook(rb, t, k)
        assert out.n_active == 0
        assert rb.n_tuples == 0

    def test_execution_is_bitwise_deterministic(self):
        t = scene(10, 10, 4, 0.4, seed=9)
        k = Kernel.seeded(3, 3, 4, 4, 1, seed=5, bias_scale=0.1)
        rb = build_rulebook_sparse(t.coords, k, (10, 10))
        a = execute_rulebook(rb, t, k)
        b = execute_rulebook(rb, t, k)
        assert np.array_equal(a.features, b.features)

    def test_channel_mismatch_rejected(self):
        t = scene(4, 4, 2, 0.5, seed=1)
        k = Kernel.seeded(3, 3, 3, 3, 1, seed=0)
        rb = build_rulebook_subm(t.coords, Kernel.seeded(3, 3, 2, 2, 1, seed=0),
                                 bounds=(4, 4))
        with pytest.raises(ShapeMismatchError):
            execute_rulebook(rb, t, k)


class TestEpilogue:
    """`relu=True` gives the bytes of np.maximum(relu=False output, 0), on every executor path."""

    @staticmethod
    def inputs(c_out, stride):
        # 9x7 cells at density 0.4 with a NaN entry, rows of +0.0 and -0.0, and
        # a bias holding -0.0, +0.0 and values of both signs
        t = scene(9, 7, 4, 0.4, seed=12)
        feats = t.features.copy()
        feats[0, 1] = np.nan
        feats[2::5] = 0.0
        feats[3::5] = -0.0
        t = PillarTensor(9, 7, 4, t.rc, feats)
        side = 2 if stride == 2 else 3
        k = Kernel.seeded(side, side, 4, c_out, stride, seed=13, bias_scale=0.5)
        bias = k.bias.copy()
        bias[:2] = (-0.0, 0.0)
        return t, Kernel(k.k_h, k.k_w, 4, c_out, stride, k.weights, bias)

    @staticmethod
    def assert_clamped(fused, plain):
        assert fused.tobytes() == np.maximum(plain, 0).tobytes()
        assert not np.signbit(fused[~np.isnan(fused)]).any()

    @pytest.mark.parametrize("c_out", [3, 8])
    @pytest.mark.parametrize("budget", [64, conv.ACC_BYTES])
    @pytest.mark.parametrize("form", ["sparse", "subm1x1", "down", "deconv"])
    def test_sparse_executor(self, form, budget, c_out):
        # budget 64 holds one output per block at c_out 8: every segment has
        # one tuple of a longer offset (the two-row rule); "subm1x1" and
        # "deconv" (clipped) take the one-product path
        t, k = self.inputs(c_out, 2 if form in ("down", "deconv") else 1)
        if form == "sparse":
            rb = build_rulebook_sparse(t.rc, k, (9, 7))
        elif form == "subm1x1":
            k = Kernel(1, 1, 4, c_out, 1, k.weights[4:5], k.bias)
            rb = build_rulebook_subm(t.rc, k, bounds=(9, 7))
        elif form == "down":
            rb = build_rulebook_downsample2x2(t.rc, k, (9, 7))
        else:
            rb = build_rulebook_deconv2x2(t.rc, k, (17, 13))
        with mock.patch.object(conv, "ACC_BYTES", budget):
            plain = execute_rulebook(rb, t, k)
            fused = execute_rulebook(rb, t, k, relu=True)
        assert fused.rc.tobytes() == plain.rc.tobytes()
        assert np.isnan(fused.features).any() and (plain.features < 0).any()
        self.assert_clamped(fused.features, plain.features)

    @pytest.mark.parametrize("c_out", [3, 8])
    @pytest.mark.parametrize("budget", [64, conv.ACC_BYTES])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv_oracle(self, stride, budget, c_out):
        # c_out 3 makes the row calls, c_out 8 one GEMM per (tile, tap)
        t, k = self.inputs(c_out, stride)
        with mock.patch.object(conv, "ACC_BYTES", budget):
            plain = dense_conv_oracle(t.to_dense(), k).data
            fused = dense_conv_oracle(t.to_dense(), k, relu=True).data
        assert np.isnan(fused).any() and (plain < 0).any()
        self.assert_clamped(fused, plain)

    @pytest.mark.parametrize("c_out", [3, 8])
    @pytest.mark.parametrize("budget", [64, conv.ACC_BYTES])
    @pytest.mark.parametrize("bounds", [(17, 13), (18, 14), (21, 15)])
    def test_deconv_oracle(self, bounds, budget, c_out):
        # clipped, exact, and past 2h x 2w, where the cells no input reaches
        # hold ReLU(+0.0 + bias)
        t, k = self.inputs(c_out, 2)
        g = t.to_dense()
        with mock.patch.object(conv, "ACC_BYTES", budget):
            plain = dense_deconv_oracle(g, k, bounds).data
            fused = dense_deconv_oracle(g, k, bounds, relu=True).data
        assert np.isnan(fused).any() and (plain < 0).any()
        self.assert_clamped(fused, plain)
        if bounds == (21, 15):
            want = np.maximum(k.bias, 0)
            assert all(fused[r, c].tobytes() == want.tobytes() for r, c in ((20, 0), (0, 14)))

    def test_relu_is_keyword_only(self):
        t, k = self.inputs(8, 1)
        t2, k2 = self.inputs(8, 2)
        rb = build_rulebook_subm(t.rc, k, bounds=(9, 7))
        for f, args in ((execute_rulebook, (rb, t, k)), (dense_conv_oracle, (t.to_dense(), k)),
                        (dense_deconv_oracle, (t2.to_dense(), k2, None))):
            f(*args, relu=True)
            with pytest.raises(TypeError):
                f(*args, True)


class TestFlops:
    def test_frozen_values(self):
        t = scene(8, 8, 8, 0.2, seed=10)
        k = Kernel.seeded(3, 3, 8, 8, 1, seed=0)
        rb = build_rulebook_subm(t.coords, k, bounds=(8, 8))
        want = 2 * rb.n_tuples * 8 * 8 + rb.n_outputs * 8
        assert flops_of_rulebook(rb, 8, 8) == want

    def test_single_tuple_and_bias(self):
        k = Kernel.seeded(3, 3, 8, 8, 1, seed=0)
        rb = build_rulebook_subm(((1, 1),), k, bounds=(3, 3))
        # one self tuple: 2*1*8*8 + 1*8
        assert flops_of_rulebook(rb, 8, 8) == 136

    def test_empty_book_counts_nothing(self):
        k = Kernel.seeded(3, 3, 1, 1, 1, seed=0)
        rb = build_rulebook_sparse((), k, (4, 4))
        assert flops_of_rulebook(rb, 16, 16) == 0


def _one_pillar() -> PillarTensor:
    return PillarTensor(2, 2, 1, [(0, 0)], np.ones((1, 1)))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Kernel(1, 1, 2, 3, 1, np.zeros((1, 2, 3)), np.zeros(2)),
     ShapeMismatchError, "bias shape (2,), expected (3,)"),
    (lambda: Rulebook([0, 1], [0], [0], [(0, 0)], 1, 1),
     ShapeMismatchError, "rulebook arrays must have equal length"),
    (lambda: execute_rulebook(Rulebook([1], [0], [0], [(0, 0)], 2, 2), _one_pillar(),
                              Kernel.identity(1)),
     ShapeMismatchError, "rulebook input index out of range for this tensor"),
    (lambda: execute_rulebook(Rulebook([0], [1], [0], [(0, 0)], 2, 2), _one_pillar(),
                              Kernel.identity(1)),
     ShapeMismatchError, "rulebook weight index out of range for this kernel"),
    (lambda: dense_conv_oracle(DenseGrid(np.zeros((2, 2, 2))), Kernel.identity(1)),
     ShapeMismatchError, "grid has 2 channels, kernel wants 1"),
    (lambda: dense_deconv_oracle(DenseGrid(np.zeros((2, 2, 2))), Kernel.seeded(2, 2, 1, 1, 2)),
     ShapeMismatchError, "grid has 2 channels, kernel wants 1"),
    (lambda: dense_deconv_oracle(DenseGrid(np.zeros((2, 2, 1))), Kernel.identity(1)),
     BadKernelShapeError, "deconv oracle needs a 2x2 stride-2 kernel"),
], ids=["bias-shape", "rulebook-lengths", "input-index", "weight-index", "conv-oracle-channels",
        "deconv-oracle-channels", "deconv-oracle-kernel"])
def test_error_paths(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()
