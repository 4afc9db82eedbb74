"""Property tests of the kernel-map join against brute-force per-tuple references.

Every builder is one vectorised join over linearised keys. The references
here enumerate (input, offset) pairs one at a time with Python sets, so a
key that wraps into the next row, a dropped clip or a wrong (offset-major)
tuple order shows up as a mismatch.
"""

import itertools
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarconv.accel import (
    AcceleratorConfig,
    generate_rules_pipelined,
    mapping_stats_3x3,
    mapping_stats_strided,
    simulate_network,
)
from pillarconv import conv
from pillarconv import tensor
from pillarconv.backbone import (
    ConvMode,
    LayerSpec,
    PlannedLayer,
    _map_layers,
    _run_layer,
    make_pointpillars,
    override_topk_percent,
    run_network,
    with_body_mode,
)
from pillarconv.conv import (
    Kernel,
    Rulebook,
    build_rulebook_deconv2x2,
    build_rulebook_downsample2x2,
    build_rulebook_selective,
    build_rulebook_sparse,
    build_rulebook_subm,
    dense_conv_oracle,
    execute_rulebook,
)
from pillarconv.errors import (
    BadKernelShapeError,
    DuplicateCoordError,
    OutOfBoundsError,
    ShapeMismatchError,
    StrideUnsupportedError,
    UnsortedInputError,
)
from pillarconv.importance import Selection
from pillarconv.scenes import SceneSpec, generate
from pillarconv.tensor import (
    FEATURE_DTYPE,
    PillarTensor,
    concat_channels,
    from_dense,
    load_plt,
    save_plt,
)
from test_conv import order_revealing_kernel, order_revealing_rows

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def kernel(k_h, k_w, stride=1, c_in=1, c_out=1, seed=0):
    return Kernel.seeded(k_h, k_w, c_in, c_out, stride, seed=seed, bias_scale=0.1)


# -- brute-force references ----------------------------------------------------


def reference(active, k, out_shape, target, outputs=None):
    """Offset-major tuples and output coords by enumerating every (input, offset).

    `target(r, c, dr, dc)` is the output an input reaches under an offset, or
    None. Outputs default to every in-grid target; otherwise targets off
    `outputs` are dropped.
    """
    out_h, out_w = out_shape
    pairs = []
    for i, (r, c) in enumerate(active):
        for w, (dr, dc) in enumerate(k.offsets):
            t = target(r, c, dr, dc)
            if t is not None and 0 <= t[0] < out_h and 0 <= t[1] < out_w:
                pairs.append((i, w, t))
    if outputs is None:
        outputs = {t for _, _, t in pairs}
    out_coords = sorted(outputs)
    index = {rc: j for j, rc in enumerate(out_coords)}
    tuples = sorted((w, index[t], i) for i, w, t in pairs if t in index)
    return tuple(out_coords), [(i, w, o) for w, o, i in tuples]


def stride1(r, c, dr, dc):
    return (r + dr, c + dc)


def transposed(r, c, dr, dc):
    return (2 * r + dr, 2 * c + dc)


def downsampled(r, c, dr, dc):
    if (r - dr) % 2 or (c - dc) % 2:
        return None
    return ((r - dr) // 2, (c - dc) // 2)


def neighborhood(points, k, shape):
    return {
        (r + dr, c + dc)
        for r, c in points
        for dr, dc in k.offsets
        if 0 <= r + dr < shape[0] and 0 <= c + dc < shape[1]
    }


def assert_matches(rb, want):
    out_coords, tuples = want
    assert rb.output_coords == out_coords
    got = list(zip(rb.in_idx.tolist(), rb.w_idx.tolist(), rb.out_idx.tolist()))
    assert got == tuples


# -- strategies --------------------------------------------------------------------


@st.composite
def grids(draw, max_side=8, edge_columns=False, max_active=None):
    """(h, w, sorted active cells); with `edge_columns` only columns 0 and w - 1."""
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    if edge_columns:
        cells = [(r, c) for r in range(h) for c in sorted({0, w - 1})]
    else:
        cells = [(r, c) for r in range(h) for c in range(w)]
    active = draw(st.lists(st.sampled_from(cells), unique=True,
                           max_size=min(len(cells), max_active or len(cells))))
    return h, w, sorted(active)


odd_kernels = st.tuples(st.sampled_from([1, 3, 5]), st.sampled_from([1, 3, 5]))


# -- the five builders against the references ---------------------------------------


class TestBuildersMatchReference:
    @SETTINGS
    @given(grids(), odd_kernels)
    def test_subm(self, grid, kshape):
        h, w, active = grid
        k = kernel(*kshape)
        rb = build_rulebook_subm(active, k, bounds=(h, w))
        assert_matches(rb, reference(active, k, (h, w), stride1, set(active)))

    @SETTINGS
    @given(grids(), odd_kernels)
    def test_sparse(self, grid, kshape):
        h, w, active = grid
        k = kernel(*kshape)
        rb = build_rulebook_sparse(active, k, (h, w))
        assert_matches(rb, reference(active, k, (h, w), stride1))

    @SETTINGS
    @given(grids(), odd_kernels, st.data())
    def test_selective(self, grid, kshape, data):
        h, w, active = grid
        k = kernel(*kshape)
        selected = data.draw(st.lists(st.sampled_from(active), unique=True) if active
                             else st.just([]))
        rb = build_rulebook_selective(active, selected, k, (h, w))
        outputs = set(active) | neighborhood(selected, k, (h, w))
        assert_matches(rb, reference(active, k, (h, w), stride1, outputs))

    @SETTINGS
    @given(grids())
    def test_downsample(self, grid):
        h, w, active = grid
        k = kernel(2, 2, stride=2)
        rb = build_rulebook_downsample2x2(active, k, (h, w))
        out_shape = ((h + 1) // 2, (w + 1) // 2)
        assert (rb.out_height, rb.out_width) == out_shape
        assert_matches(rb, reference(active, k, out_shape, downsampled))

    @SETTINGS
    @given(grids(max_side=5), st.integers(0, 2), st.integers(0, 2))
    def test_deconv(self, grid, clip_h, clip_w):
        h, w, active = grid
        k = kernel(2, 2, stride=2)
        out_shape = (max(1, 2 * h - clip_h), max(1, 2 * w - clip_w))
        rb = build_rulebook_deconv2x2(active, k, out_shape)
        assert_matches(rb, reference(active, k, out_shape, transposed))


class TestEdgeColumns:
    """Keys r * W + c of column 0 and W - 1 sit next to the neighbouring rows'."""

    @SETTINGS
    @given(grids(edge_columns=True), odd_kernels, st.data())
    def test_no_key_wraps_across_rows(self, grid, kshape, data):
        h, w, active = grid
        k = kernel(*kshape)
        assert_matches(build_rulebook_subm(active, k, bounds=(h, w)),
                       reference(active, k, (h, w), stride1, set(active)))
        assert_matches(build_rulebook_sparse(active, k, (h, w)),
                       reference(active, k, (h, w), stride1))
        selected = data.draw(st.lists(st.sampled_from(active), unique=True) if active
                             else st.just([]))
        outputs = set(active) | neighborhood(selected, k, (h, w))
        assert_matches(build_rulebook_selective(active, selected, k, (h, w)),
                       reference(active, k, (h, w), stride1, outputs))


class TestEmptyAndInferredBounds:
    def test_every_builder_accepts_an_empty_active_set(self):
        k3, k2 = kernel(3, 3), kernel(2, 2, stride=2)
        books = [
            build_rulebook_subm((), k3, bounds=(4, 4)),
            build_rulebook_sparse((), k3, (4, 4)),
            build_rulebook_selective((), (), k3, (4, 4)),
            build_rulebook_downsample2x2((), k2, (4, 4)),
            build_rulebook_deconv2x2((), k2, (8, 8)),
        ]
        for rb in books:
            assert rb.n_tuples == 0 and rb.n_outputs == 0
            assert rb.output_coords == ()
            assert rb.output_rc.shape == (0, 2)

    def test_array_and_tuple_inputs_build_the_same_book(self):
        active = [(0, 0), (0, 3), (2, 1), (3, 3)]
        k = kernel(3, 3)
        as_array = np.array(active, dtype=np.int64)
        assert build_rulebook_sparse(active, k, (4, 4)).same_tuples(
            build_rulebook_sparse(as_array, k, (4, 4)))
        assert build_rulebook_selective(active, frozenset(active[:2]), k, (4, 4)).same_tuples(
            build_rulebook_selective(as_array, as_array[:2], k, (4, 4)))


class TestJoinPreconditions:
    """The join's one door (kernel form, key space, input order and grid), and the tuple
    order and ranges `Rulebook` checks."""

    K3, K2 = kernel(3, 3), kernel(2, 2, stride=2)
    # name: (build(active, kernel, grid), its kernel, its grid, a kernel of the wrong form
    # and the error that kernel raises)
    BUILDERS = {
        "subm": (lambda a, k, g: build_rulebook_subm(a, k, bounds=g),
                 K3, (6, 6), K2, StrideUnsupportedError),
        "selective": (lambda a, k, g: build_rulebook_selective(a, a[:1], k, g),
                      K3, (6, 6), K2, StrideUnsupportedError),
        "sparse": (lambda a, k, g: build_rulebook_sparse(a, k, g),
                   K3, (6, 6), K2, StrideUnsupportedError),
        "down": (lambda a, k, g: build_rulebook_downsample2x2(a, k, g),
                 K2, (6, 6), K3, BadKernelShapeError),
        "deconv": (lambda a, k, g: build_rulebook_deconv2x2(a, k, g),
                   K2, (12, 12), K3, BadKernelShapeError),
        "streaming": (lambda a, k, g: generate_rules_pipelined(*g, a, [False] * len(a), k),
                      K3, (6, 6), K2, BadKernelShapeError),
    }

    def build(self, name, active, k=None, grid=None):
        build, own_k, own_grid, _, _ = self.BUILDERS[name]
        return build(active, k or own_k, grid or own_grid)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_rejects_unsorted_input(self, name):
        with pytest.raises(UnsortedInputError):
            self.build(name, [(2, 2), (1, 3)])
        with pytest.raises(UnsortedInputError):
            self.build(name, [(1, 1), (1, 0)])

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_rejects_duplicate_input(self, name):
        with pytest.raises(UnsortedInputError):
            self.build(name, [(1, 1), (1, 1)])

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_builders_reject_actives_off_their_input_grid(self, name):
        # all but deconv know their 6x6 input grid; on it the key of (0, 6) is that of (1, 0).
        # deconv does not know its input grid, but no input of it is negative
        off = [[(-1, 0), (0, 0)], [(-1, 2), (0, 0)], [(0, -1)], [(0, 0), (1, -3)]]
        if name != "deconv":
            off += [[(0, 0), (0, 6)], [(0, 0), (6, 0)]]
        for active in off:
            with pytest.raises(OutOfBoundsError):
                self.build(name, active)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_rejects_a_kernel_of_the_wrong_form(self, name):
        # the form is checked before the coords: (0, 9) lies off every builder's grid
        _, _, _, wrong, error = self.BUILDERS[name]
        for active in ([(0, 0)], [(0, 9)]):
            with pytest.raises(error):
                self.build(name, active, k=wrong)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_rejects_a_grid_beyond_the_key_space(self, name):
        # 2^66 cells: row * width + col would wrap in int64
        with pytest.raises(ShapeMismatchError, match="key space"):
            self.build(name, [(2**32, 2**32)], grid=(2**33, 2**33))
        self.build(name, [(2**30, 2**30)], grid=(2**31, 2**31))  # 2^62 cells fit

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_rejects_a_non_positive_grid(self, name):
        for grid in ((0, 0), (-1, 5), (5, 0)):
            with pytest.raises(ShapeMismatchError, match="must be >= 1"):
                self.build(name, [], grid=grid)

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_every_builder_rejects_a_non_integer_grid(self, name):
        # the join's book is trusted without `Rulebook`'s checks, so the door checks the type
        for grid in ((6.0, 6), (6, 6.5), (True, True)):
            with pytest.raises(ShapeMismatchError, match="must be an integer"):
                self.build(name, [(0, 0)], grid=grid)

    @pytest.mark.parametrize("out_rc, dims, error", [
        ([(0, 1), (0, 0)], (2, 2), ShapeMismatchError),  # unsorted
        ([(0, 0), (0, 0)], (2, 2), DuplicateCoordError),
        ([(0, 0), (2, 0)], (2, 2), OutOfBoundsError),
        ([(0, 0), (0, 2)], (2, 2), OutOfBoundsError),
        ([(0, 0), (0, 1)], (0, 2), ShapeMismatchError),
        ([(0, 0), (0, 1)], (2, -1), ShapeMismatchError),
        ([(0, 0), (0, 1)], (2.0, 2), ShapeMismatchError),
        ([(0, 0), (0, 1)], (2, True), ShapeMismatchError),
        ([(0, 0), (0, 1)], (2**32, 2**32), ShapeMismatchError),  # beyond the key space
    ])
    def test_rulebook_rejects_a_bad_output_set(self, out_rc, dims, error):
        # `execute_rulebook` trusts a book's output set, so the book is checked when built
        with pytest.raises(error):
            Rulebook([0, 0], [0, 1], [0, 1], out_rc, *dims)

    def test_coordinate_arrays_are_copied_on_entry(self):
        # `execute_rulebook` trusts a book's output set, so a later write by the caller
        # must reach neither it nor a selection's coords
        out = np.array([[0, 0], [0, 1]], dtype=np.int64)
        rb, sel = Rulebook([0, 1], [0, 0], [0, 1], out, 2, 2), Selection(out)
        out[0] = [1, 1]
        t = PillarTensor(2, 2, 1, [(0, 0), (0, 1)], np.ones((2, 1)))
        assert execute_rulebook(rb, t, Kernel.identity(1)).rc.tolist() == [[0, 0], [0, 1]]
        assert sel.rc.tolist() == [[0, 0], [0, 1]]

    def test_flags_of_the_wrong_shape_are_rejected(self):
        # a bool array is always flags, never coords, whatever its shape
        for flags in (np.zeros(1, bool), np.zeros(3, bool), np.zeros((2, 2), bool)):
            with pytest.raises(ShapeMismatchError, match="flags shape"):
                build_rulebook_selective([(0, 0), (1, 1)], flags, self.K3, (6, 6))

    def test_rulebook_rejects_tuples_out_of_offset_major_order(self):
        out_rc = np.array([[0, 0], [0, 1]])
        Rulebook([1, 0], [0, 1], [0, 1], out_rc, 1, 2)
        with pytest.raises(UnsortedInputError):
            Rulebook([0, 1], [1, 0], [1, 0], out_rc, 1, 2)  # output-major
        with pytest.raises(UnsortedInputError):
            Rulebook([1, 0], [0, 0], [1, 0], out_rc, 1, 2)

    def test_rulebook_rejects_indices_out_of_range(self):
        # a negative input index would gather the last entry without a word
        out_rc = np.array([[0, 0]])
        for i, w, o in (([-1], [0], [0]), ([0], [-1], [0]), ([0], [0], [-1]), ([0], [0], [1])):
            with pytest.raises(ShapeMismatchError):
                Rulebook(i, w, o, out_rc, 1, 1)

    def test_rulebook_rejects_a_duplicate_pair(self):
        # a second tuple for one (offset, output) would be dropped by the scatter
        with pytest.raises(UnsortedInputError):
            Rulebook([0, 1], [0, 0], [0, 0], np.array([[0, 0]]), 1, 1)

    def test_same_tuples_compares_all_four_arrays(self):
        out_rc = np.array([[0, 0], [0, 1]])
        book = Rulebook([0, 1], [0, 4], [0, 1], out_rc, 1, 2)
        assert book.same_tuples(Rulebook(np.array([0, 1]), [0, 4], [0, 1], out_rc.copy(), 1, 2))
        others = {
            "output set": Rulebook([0, 1], [0, 4], [0, 1], np.array([[0, 0], [1, 1]]), 2, 2),
            "longer output set": Rulebook([0, 1], [0, 4], [0, 1],
                                          np.array([[0, 0], [0, 1], [0, 2]]), 1, 3),
            "one w_idx entry": Rulebook([0, 1], [0, 5], [0, 1], out_rc, 1, 2),
            "one in_idx entry": Rulebook([0, 0], [0, 4], [0, 1], out_rc, 1, 2),
            "one out_idx entry": Rulebook([0, 1], [0, 4], [0, 0], out_rc, 1, 2),
            "tuple count": Rulebook([0], [0], [0], out_rc, 1, 2),
            "no tuples": Rulebook([], [], [], out_rc, 1, 2),
        }
        for name, other in others.items():
            assert not book.same_tuples(other), name
            assert not other.same_tuples(book), name


# -- dilation flags, the join's one selection form ------------------------------------


class TestFlags:
    @SETTINGS
    @given(grids(), odd_kernels, st.data())
    def test_flags_build_the_book_of_the_flagged_coords(self, grid, kshape, data):
        h, w, active = grid
        flags = np.array(data.draw(st.lists(st.booleans(), min_size=len(active),
                                            max_size=len(active))), dtype=bool)
        flagged = [rc for rc, f in zip(active, flags) if f]
        k, k3 = kernel(*kshape), kernel(3, 3)
        assert build_rulebook_selective(active, flags, k, (h, w)).same_tuples(
            build_rulebook_selective(active, flagged, k, (h, w)))
        streamed, _ = generate_rules_pipelined(h, w, active, flags, k3)
        assert streamed.same_tuples(build_rulebook_selective(active, flagged, k3, (h, w)))


# -- stats-only mapping against the streaming generator -----------------------------

latencies = st.integers(1, 4)


class TestStatsOnlyMapping:
    @SETTINGS
    @given(grids(max_side=5, max_active=6),
           latencies, latencies, latencies, latencies)
    def test_3x3_stats_equal_the_pipelined_generator_for_every_flag_set(
        self, grid, la, lm, ld, le
    ):
        h, w, active = grid
        cfg = AcceleratorConfig(lat_align=la, lat_merge=lm, lat_dilate=ld, lat_expand=le)
        k = Kernel(3, 3, 1, 1, 1, np.zeros((9, 1, 1), np.float32), np.zeros(1, np.float32))
        want = mapping_stats_3x3(h, active, cfg)
        for flags in itertools.product([False, True], repeat=len(active)):
            _, stats = generate_rules_pipelined(h, w, active, list(flags), k, cfg)
            assert stats == want

    @SETTINGS
    @given(grids(), st.sampled_from(["downsample", "deconv"]), latencies, latencies, latencies)
    def test_strided_stats_equal_a_per_band_count(self, grid, kind, la, lm, le):
        _, _, active = grid
        cfg = AcceleratorConfig(lat_align=la, lat_merge=lm, lat_dilate=3, lat_expand=le)
        bands: dict[int, list[int]] = {}
        for r, c in active:
            if kind == "downsample":
                bands.setdefault(r // 2, []).append(c // 2)
            else:
                bands.setdefault(2 * r, []).append(c)
                bands.setdefault(2 * r + 1, []).append(c)
        merged = sum(len(set(cols)) for cols in bands.values())
        lat = lm if kind == "downsample" else max(lm, le)
        cycles = sum(max(len(cols) * la, len(set(cols)) * lat) for cols in bands.values())
        stats = mapping_stats_strided(active, kind, cfg)
        assert (stats.bands, stats.alignment, stats.row_merge, stats.cycles) == (
            len(bands), sum(map(len, bands.values())), merged, cycles)
        assert stats.dilation_check == 0
        assert stats.column_dilation == (merged if kind == "deconv" else 0)


# -- execution -------------------------------------------------------------------------


def execute_add_at(rb, t, k):
    """Per-offset masks and np.add.at: the scatter the segment loop replaces."""
    acc = np.zeros((rb.n_outputs, k.c_out), dtype=np.float64)
    feats = t.features.astype(np.float64)
    weights = k.weights.astype(np.float64)
    for w in range(k.taps):
        mask = rb.w_idx == w
        if mask.any():
            np.add.at(acc, rb.out_idx[mask], feats[rb.in_idx[mask]] @ weights[w])
    acc += k.bias.astype(np.float64)
    return acc.astype(FEATURE_DTYPE)


def order_revealing_features(rng, n, c_in):
    """n rows for `order_revealing_kernel` that expose the order an output sums its taps in.

    Each row holds one entry, big (a quarter of them) or tiny, as in
    `order_revealing_rows`: an output with one big product and two tiny ones
    changes float32 bits when its taps are summed in another order.
    """
    feats = np.zeros((n, c_in), FEATURE_DTYPE)
    feats[np.arange(n), rng.integers(0, c_in, n)] = np.where(
        rng.random(n) < 0.25, 1 + 2.0**-12, 1.25 * 2.0**-54)
    return feats


def case_kernel(kshape, c_in, c_out, seed, revealing):
    """A (k_h, k_w, stride) kernel: `order_revealing_kernel` if `revealing`, else seeded."""
    k_h, k_w, stride = kshape
    if revealing:
        return order_revealing_kernel(k_h, k_w, c_in, c_out, stride)
    return kernel(k_h, k_w, stride, c_in, c_out, seed)


class TestExecution:
    """The executor's bytes equal `execute_add_at`'s, which sums every output's taps in order.

    Half of the random draws use order-revealing values, so a copy that sums
    the taps in another order fails.
    """

    @SETTINGS
    @given(grids(), st.sampled_from(["subm", "sparse", "selective", "down", "deconv"]),
           st.integers(1, 5), st.integers(1, 5), st.booleans(), st.integers(0, 2**31 - 1))
    def test_bitwise_equal_to_add_at(self, grid, mode, c_in, c_out, revealing, seed):
        h, w, active = grid
        rng = np.random.default_rng(seed)
        if revealing:
            feats = order_revealing_features(rng, len(active), c_in)
        else:
            feats = (rng.standard_normal((len(active), c_in))
                     * 10.0 ** rng.integers(-3, 4)).astype(FEATURE_DTYPE)
        t = PillarTensor(h, w, c_in, active, feats)
        if mode in ("down", "deconv"):
            k = case_kernel((2, 2, 2), c_in, c_out, seed, revealing)
            rb = (build_rulebook_downsample2x2(active, k, (h, w)) if mode == "down"
                  else build_rulebook_deconv2x2(active, k, (2 * h, 2 * w)))
        else:
            k = case_kernel((3, 3, 1), c_in, c_out, seed, revealing)
            if mode == "subm":
                rb = build_rulebook_subm(active, k, bounds=(h, w))
            elif mode == "sparse":
                rb = build_rulebook_sparse(active, k, (h, w))
            else:
                rb = build_rulebook_selective(active, active[::3], k, (h, w))
        out = execute_rulebook(rb, t, k)
        want = execute_add_at(rb, t, k)
        assert out.features.tobytes() == want.tobytes()
        assert np.array_equal(out.rc, rb.output_rc)

    @SETTINGS
    @given(grids(), st.sampled_from(["subm", "sparse", "selective", "down", "deconv"]),
           st.sampled_from([1, 3, 5, 16, 64]), st.sampled_from([1, 3, 8, 16, 64]),
           st.sampled_from([8, 64, 512, 4096]), st.booleans(), st.integers(0, 2**31 - 1))
    def test_outputs_in_several_blocks(self, grid, mode, c_in, c_out, budget, revealing, seed):
        # budgets of one to a few dozen outputs per block split every rulebook
        h, w, active = grid
        rng = np.random.default_rng(seed)
        if revealing:
            feats = order_revealing_features(rng, len(active), c_in)
        else:
            feats = rng.standard_normal((len(active), c_in)).astype(FEATURE_DTYPE)
        t = PillarTensor(h, w, c_in, active, feats)
        if mode in ("down", "deconv"):
            k = case_kernel((2, 2, 2), c_in, c_out, seed, revealing)
            rb = (build_rulebook_downsample2x2(active, k, (h, w)) if mode == "down"
                  else build_rulebook_deconv2x2(active, k, (2 * h, 2 * w)))
        else:
            k = case_kernel((3, 3, 1), c_in, c_out, seed, revealing)
            rb = {"subm": lambda: build_rulebook_subm(active, k, bounds=(h, w)),
                  "sparse": lambda: build_rulebook_sparse(active, k, (h, w)),
                  "selective": lambda: build_rulebook_selective(active, active[1::2], k, (h, w)),
                  }[mode]()
        with mock.patch.object(conv, "ACC_BYTES", budget):
            out = execute_rulebook(rb, t, k)
        assert out.features.tobytes() == execute_add_at(rb, t, k).tobytes()

    @pytest.mark.parametrize("c_out", [3, 8, 12, 64])
    @pytest.mark.parametrize("budget", [64, 4096, conv.ACC_BYTES])
    def test_blocks_keep_summation_order(self, c_out, budget):
        # order-revealing features: a product computed by a GEMM call that sums
        # in another order (GEMV for one row, other edge kernels for some
        # widths) changes output bits; at budget 64 a block holds one output
        # for c_out = 8, so every segment has one tuple of a longer offset
        rows = order_revealing_rows(32)
        active = [(r, c) for r in range(120) for c in range(124)]
        t = PillarTensor(120, 124, 32, active, rows)
        k = order_revealing_kernel(1, 1, 32, c_out)
        rb = build_rulebook_subm(active, k, bounds=(120, 124))
        with mock.patch.object(conv, "ACC_BYTES", budget):
            out = execute_rulebook(rb, t, k)
        assert out.features.tobytes() == execute_add_at(rb, t, k).tobytes()

    @pytest.mark.parametrize("budget", [64, 4096, conv.ACC_BYTES])
    def test_deconv_signed_zeros(self, budget):
        # one product per output: p + (bias + 0.0) must equal (+0.0 + p) + bias,
        # so a zero row's outputs are +0.0 whatever the signs of product and bias
        active = [(r, c) for r in range(9) for c in range(7)]
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((len(active), 4)).astype(FEATURE_DTYPE)
        feats[::3] = 0.0
        feats[1::3] = -0.0
        t = PillarTensor(9, 7, 4, active, feats)
        k = Kernel.seeded(2, 2, 4, 8, 2, seed=3, bias_scale=0.0)
        assert np.signbit(k.bias).any() and not np.signbit(k.bias).all()
        rb = build_rulebook_deconv2x2(active, k, (18, 14))
        assert rb.n_tuples == rb.n_outputs
        with mock.patch.object(conv, "ACC_BYTES", budget):
            out = execute_rulebook(rb, t, k).features
        assert out.tobytes() == execute_add_at(rb, t, k).tobytes()
        zero = np.isin(rb.in_idx, np.flatnonzero(~feats.any(axis=1)))
        assert zero.any() and not np.signbit(out[rb.out_idx[zero]]).any()

    @pytest.mark.parametrize("budget", [64, 4096, conv.ACC_BYTES])
    def test_1x1_submanifold(self, budget):
        rng = np.random.default_rng(6)
        active = sorted(map(tuple, np.argwhere(rng.random((20, 20)) < 0.4).tolist()))
        t = PillarTensor(20, 20, 5, active,
                         rng.standard_normal((len(active), 5)).astype(FEATURE_DTYPE))
        k = Kernel.seeded(1, 1, 5, 16, seed=6, bias_scale=0.5)
        rb = build_rulebook_subm(active, k, bounds=(20, 20))
        assert rb.n_tuples == rb.n_outputs
        with mock.patch.object(conv, "ACC_BYTES", budget):
            out = execute_rulebook(rb, t, k)
        assert out.features.tobytes() == execute_add_at(rb, t, k).tobytes()

    def test_as_many_tuples_as_outputs_but_an_empty_output(self):
        # output 1 gets two tuples and output 2 none: products must add up,
        # and the empty output must read +0.0 + bias
        t = PillarTensor(2, 2, 2, [(0, 0), (0, 1)],
                         np.array([[1.0, -2.0], [0.5, 3.0]], dtype=FEATURE_DTYPE))
        k = Kernel(1, 3, 2, 3, 1, np.arange(18.0).reshape(3, 2, 3) / 7,
                   np.array([-0.0, 0.0, 0.25]))
        rb = Rulebook([0, 1, 0], [0, 0, 1], [0, 1, 1], [(0, 0), (0, 1), (1, 0)], 2, 2)
        assert rb.n_tuples == rb.n_outputs
        out = execute_rulebook(rb, t, k).features
        assert out.tobytes() == execute_add_at(rb, t, k).tobytes()
        assert out[2].tobytes() == np.array([0.0, 0.0, 0.25], dtype=FEATURE_DTYPE).tobytes()

    @pytest.mark.parametrize("budget", [64, 512, 4096, conv.ACC_BYTES])
    def test_contiguous_and_gathered_runs(self, budget):
        # a 16x16 grid less a few cells: an off-centre offset's inputs ascend by
        # one along each row, and the border column its targets leave breaks
        # the run at every row; the holes are outputs with no centre tuple
        holes = {(3, 4), (3, 5), (8, 0), (11, 13)}
        active = [(r, c) for r in range(16) for c in range(16) if (r, c) not in holes]
        rng = np.random.default_rng(7)
        t = PillarTensor(16, 16, 6, active,
                         rng.standard_normal((len(active), 6)).astype(FEATURE_DTYPE))
        k = kernel(3, 3, 1, 6, 8, seed=7)
        rb = build_rulebook_sparse(active, k, (16, 16))
        steps = np.diff(rb.in_idx[rb.w_idx == 5])
        assert (steps == 1).any() and (steps > 1).any()
        with mock.patch.object(conv, "ACC_BYTES", budget):
            out = execute_rulebook(rb, t, k)
        assert out.features.tobytes() == execute_add_at(rb, t, k).tobytes()

    def test_production_blocks(self):
        # 64 float64 channels: 4096 outputs per block, so ~6k outputs make two
        rng = np.random.default_rng(11)
        active = sorted(map(tuple, np.argwhere(rng.random((80, 80)) < 0.5).tolist()))
        t = PillarTensor(80, 80, 32, active,
                         rng.standard_normal((len(active), 32)).astype(FEATURE_DTYPE))
        k = kernel(3, 3, 1, 32, 64, seed=11)
        rb = build_rulebook_sparse(active, k, (80, 80))
        assert rb.n_outputs > conv.ACC_BYTES // (8 * 64)
        out = execute_rulebook(rb, t, k)
        assert out.features.tobytes() == execute_add_at(rb, t, k).tobytes()


# -- sparse equals dense ---------------------------------------------------------------


class TestSparseEqualsDense:
    """Where c_out is a multiple of `PANEL`, sparse outputs are the dense oracle's bytes.

    The argument is in the `conv` module docstring. The three stride-1
    builders, the downsample and deconvolutions clipped by a row, a column
    or both are drawn, with and without the epilogue's ReLU.
    """

    @SETTINGS
    @given(grids(max_side=9), st.sampled_from(["subm", "sparse", "selective", "down", "deconv"]),
           odd_kernels, st.sampled_from([1, 3, 8, 33]), st.sampled_from([8, 16, 24]),
           st.integers(0, 3), st.booleans(), st.booleans(), st.integers(0, 2**31 - 1), st.data())
    def test_bytes_equal_the_oracle_at_the_outputs(self, grid, form, kshape, c_in, c_out,
                                                   clip, relu, revealing, seed, data):
        h, w, active = grid
        assert c_out % conv.PANEL == 0
        rng = np.random.default_rng(seed)
        n = len(active)
        kshape = (2, 2, 2) if form in ("down", "deconv") else (*kshape, 1)
        if revealing:
            feats = order_revealing_features(rng, n, c_in)
        else:
            feats = (rng.standard_normal((n, c_in))
                     * 10.0 ** rng.integers(-3, 4, (n, 1))).astype(FEATURE_DTYPE)
        k = case_kernel(kshape, c_in, c_out, seed, revealing)
        t = PillarTensor(h, w, c_in, active, feats)
        if form == "subm":
            rb = build_rulebook_subm(active, k, bounds=(h, w))
        elif form == "sparse":
            rb = build_rulebook_sparse(active, k, (h, w))
        elif form == "selective":
            selected = data.draw(st.lists(st.sampled_from(active), unique=True) if active
                                 else st.just([]))
            rb = build_rulebook_selective(active, selected, k, (h, w))
        elif form == "down":
            rb = build_rulebook_downsample2x2(active, k, (h, w))
        else:
            bounds = (max(1, 2 * h - clip // 2), max(1, 2 * w - clip % 2))
            rb = build_rulebook_deconv2x2(active, k, bounds)
        out = execute_rulebook(rb, t, k, relu=relu)
        if form == "deconv":
            dense = conv.dense_deconv_oracle(t.to_dense(), k, bounds, relu=relu)
        else:
            dense = dense_conv_oracle(t.to_dense(), k, relu=relu)
        want = dense.data[rb.output_rc[:, 0], rb.output_rc[:, 1]]
        assert out.features.tobytes() == want.tobytes()


# -- the production path stays on arrays ----------------------------------------------


@pytest.mark.parametrize("mode", [None, ConvMode.SPARSE_FULL, ConvMode.SUBMANIFOLD,
                                  ConvMode.DENSE])
def test_load_run_simulate_builds_no_coordinate_tuples(tmp_path, monkeypatch, mode):
    path = tmp_path / "scene.plt"
    save_plt(generate(SceneSpec(height=32, width=24, channels=8, density=0.15,
                                pattern="clustered", clusters=4, spread=2.0, seed=3)),
             str(path))
    spec = override_topk_percent(make_pointpillars(height=32, width=24, channels=8), 10.0)
    if mode is not None:
        spec = with_body_mode(spec, mode)

    def refuse(self):
        raise AssertionError("a coordinate tuple view was built")

    for cls, name in ((PillarTensor, "coords"), (Rulebook, "output_coords"),
                      (Selection, "selected")):
        monkeypatch.setattr(cls, name, property(refuse))
    res = run_network(load_plt(str(path)), spec)
    net = simulate_network(res.traces)
    assert res.output.n_active > 0 and net.total > 0


# -- each invariant checked once ------------------------------------------------------


@pytest.mark.parametrize("mode,activation", [
    (None, "relu"), (ConvMode.SPARSE_FULL, "relu"), (ConvMode.SUBMANIFOLD, "relu"),
    (ConvMode.DENSE, "relu"), (ConvMode.SPARSE_FULL, "none"), (ConvMode.DENSE, "none"),
])
def test_run_network_rechecks_no_value_it_built(monkeypatch, mode, activation):
    """Every layer reads values the code built from checked ones, so nothing re-checks them."""
    t = generate(SceneSpec(height=32, width=24, channels=8, density=0.15,
                           pattern="clustered", clusters=4, spread=2.0, seed=3))
    spec = override_topk_percent(make_pointpillars(height=32, width=24, channels=8), 10.0)
    if mode is not None:
        spec = with_body_mode(spec, mode)
    act = lambda layer: replace(layer, activation=activation)
    spec = _map_layers(spec, act, act)
    calls = Counter()

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    monkeypatch.setattr(tensor, "validate_coords",
                        counted("validate_coords", tensor.validate_coords))
    monkeypatch.setattr(Rulebook, "__post_init__", counted("Rulebook", Rulebook.__post_init__))
    res = run_network(t, spec)
    assert res.output.n_active > 0
    assert calls == Counter()
    # the counters are live: the public constructors still check
    PillarTensor(2, 2, 1, [(0, 0)], np.ones((1, 1)))
    Rulebook([0], [0], [0], [(0, 0)], 1, 1)
    assert calls == Counter(validate_coords=1, Rulebook=1)


def assert_passes_public_checks(u):
    """A tensor built without the re-check is one the public constructor accepts, bit for bit."""
    tensor.validate_coords(u.height, u.width, u.rc)
    assert u.rc.dtype == np.int64 and u.features.dtype == FEATURE_DTYPE
    assert not u.rc.flags.writeable and not u.features.flags.writeable
    v = PillarTensor(u.height, u.width, u.channels, u.rc, u.features)
    assert (v.height, v.width, v.channels) == (u.height, u.width, u.channels)
    assert v.rc.shape == u.rc.shape and v.features.shape == u.features.shape
    assert v.rc.tobytes() == u.rc.tobytes() and v.features.tobytes() == u.features.tobytes()


class TestProvenValues:
    """What the join, the executor and the tensor derivations build passes the public checks."""

    @SETTINGS
    @given(grids(max_side=7), odd_kernels, st.integers(0, 2), st.data())
    def test_books_rebuild_through_the_public_constructor(self, grid, kshape, clip, data):
        h, w, active = grid
        k, k2 = kernel(*kshape), kernel(2, 2, stride=2)
        selected = data.draw(st.lists(st.sampled_from(active), unique=True) if active
                             else st.just([]))
        books = [
            build_rulebook_subm(active, k, bounds=(h, w)),
            build_rulebook_sparse(active, k, (h, w)),
            build_rulebook_selective(active, selected, k, (h, w)),
            build_rulebook_downsample2x2(active, k2, (h, w)),
            build_rulebook_deconv2x2(active, k2, (2 * h - clip // 2, 2 * w - clip % 2)),
        ]
        for rb in books:
            for a in (rb.in_idx, rb.w_idx, rb.out_idx, rb.output_rc):
                assert a.dtype == np.int64 and not a.flags.writeable
            assert all(a.flags.c_contiguous for a in (rb.in_idx, rb.w_idx, rb.out_idx))
            again = Rulebook(rb.in_idx, rb.w_idx, rb.out_idx, rb.output_rc,
                             rb.out_height, rb.out_width)
            assert again.same_tuples(rb)
            assert (again.out_height, again.out_width) == (rb.out_height, rb.out_width)

    @SETTINGS
    @given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, 8]),
           st.floats(0.0, 1.0), st.sampled_from(["uniform", "clustered", "ring-arcs"]),
           st.integers(0, 2**16))
    def test_tensors_pass_the_public_checks(self, h, w, c, density, pattern, seed):
        t = generate(SceneSpec(height=h, width=w, channels=c, density=density,
                               pattern=pattern, seed=seed))
        k = kernel(3, 3, c_in=c, c_out=c, seed=seed)
        out = execute_rulebook(build_rulebook_sparse(t.rc, k, (h, w)), t, k)
        up = kernel(2, 2, stride=2, c_in=c, c_out=c, seed=seed)
        up_out = execute_rulebook(build_rulebook_deconv2x2(t.rc, up, (2 * h, 2 * w)), t, up)
        relu = execute_rulebook(build_rulebook_sparse(t.rc, k, (h, w)), t, k, relu=True)
        dense = from_dense(dense_conv_oracle(t.to_dense(), k))
        layer = PlannedLayer("d", "body", LayerSpec(ConvMode.DENSE, c, c), h, w, h, w, 1)
        gathered, _ = _run_layer(t, layer, k)
        for u in (t, out, up_out, relu, dense, gathered,
                  concat_channels([t, out, relu, dense, gathered])):
            assert_passes_public_checks(u)
