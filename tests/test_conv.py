"""Rulebook construction, execution, and dense oracles.

Offset convention under test everywhere: for stride 1 a tuple (i, w, o)
means coord(o) - coord(i) == offsets[w], with offsets enumerated row-major
from (-pad_h, -pad_w). The 2x2 stride-2 forms use i = 2*o + delta for
downsampling and o = 2*i + delta for the transposed direction.
"""

import numpy as np
import pytest

from pillarconv.conv import (
    Kernel,
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
    SelectionNotSubsetError,
    ShapeMismatchError,
    StrideUnsupportedError,
    UnsortedInputError,
)
from pillarconv.importance import pillar_importance, select_topk
from pillarconv.scenes import SceneSpec, generate
from pillarconv.tensor import FEATURE_DTYPE, DenseGrid, from_entries


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
        assert rb.in_idx.tolist() == [1, 0, 2, 1, 0, 2, 1]
        assert rb.w_idx.tolist() == [0, 4, 0, 4, 8, 4, 8]
        assert rb.out_idx.tolist() == [0, 0, 1, 1, 1, 2, 2]

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
        tuples = rb.tuple_set()
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
        subm = build_rulebook_subm(t.coords, k, bounds=(8, 8)).tuple_set()
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
        assert out.features[out.index_of[(1, 1)], 0] == 1.0

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
