"""Sparse pillar tensor container and PLT text format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarconv.errors import (
    BadVectorLengthError,
    DuplicateCoordError,
    FormatError,
    OutOfBoundsError,
    PillarConvError,
    ShapeMismatchError,
)
from pillarconv.tensor import (
    DenseGrid,
    PillarTensor,
    concat_channels,
    from_dense,
    from_entries,
    load_plt,
    read_plt,
    save_plt,
    validate_coords,
    write_plt,
)
from pillarconv.util import fmt_float


def make_tensor(coords, h=8, w=8, c=3, seed=0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    feats = rng.standard_normal((len(coords), c)).astype(np.float32)
    return from_entries(h, w, c, list(zip(coords, feats)))


class TestConstruction:
    def test_from_entries_sorts_row_major(self):
        t = make_tensor([(5, 1), (0, 3), (0, 1), (2, 7)])
        assert t.coords == ((0, 1), (0, 3), (2, 7), (5, 1))
        assert t.n_active == 4
        assert t.features.dtype == np.float32

    def test_features_follow_their_coords_through_the_sort(self):
        entries = [((3, 3), [3.0]), ((1, 1), [1.0])]
        t = from_entries(4, 4, 1, entries)
        assert t.coords == ((1, 1), (3, 3))
        assert t.features[0, 0] == 1.0
        assert t.features[1, 0] == 3.0

    def test_duplicate_coord_rejected(self):
        with pytest.raises(DuplicateCoordError):
            make_tensor([(1, 1), (1, 1)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(OutOfBoundsError):
            make_tensor([(8, 0)])
        with pytest.raises(OutOfBoundsError):
            make_tensor([(0, -1)])

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(BadVectorLengthError):
            from_entries(4, 4, 2, [((0, 0), [1.0])])

    def test_unsorted_direct_construction_rejected(self):
        with pytest.raises(ShapeMismatchError):
            PillarTensor(4, 4, 1, ((2, 2), (1, 1)), np.zeros((2, 1), dtype=np.float32))
        validate_coords(4, 4, ((1, 1), (2, 2)))

    @pytest.mark.parametrize("field,value", [
        ("height", 4.0), ("width", 4.5), ("channels", 1.0), ("height", True), ("channels", "1"),
    ])
    def test_non_integer_sizes_rejected(self, field, value):
        sizes = {"height": 4, "width": 4, "channels": 1, field: value}
        with pytest.raises(ShapeMismatchError, match=f"{field} must be an integer"):
            PillarTensor(sizes["height"], sizes["width"], sizes["channels"], [(0, 0)], np.ones((1, 1)))

    def test_numpy_integer_sizes_accepted(self):
        t = PillarTensor(np.int64(4), np.int32(4), np.uint8(1), [(0, 0)], np.ones((1, 1)))
        assert t.to_dense().data.shape == (4, 4, 1)

    def test_features_are_read_only(self):
        t = make_tensor([(0, 0)])
        with pytest.raises(ValueError):
            t.features[0, 0] = 5.0

    def test_empty(self):
        t = make_tensor([], h=6, w=7, c=2)
        assert t.n_active == 0
        assert t.density() == 0.0
        assert t.features.shape == (0, 2)

    def test_density(self):
        t = make_tensor([(0, 0), (1, 1)], h=4, w=4)
        assert t.density() == 2 / 16

    def test_with_features_keeps_active_set(self):
        t = make_tensor([(0, 1), (2, 3)], c=2)
        u = t.with_features(np.ones((2, 2), dtype=np.float32))
        assert u.coords == t.coords
        assert np.all(u.features == 1.0)

    def test_with_features_rejects_the_wrong_shape(self):
        t = make_tensor([(0, 1), (2, 3)], c=2)
        for shape in ((2, 3), (1, 2), (4,), (2, 2, 1)):
            with pytest.raises(BadVectorLengthError, match="does not match 2 entries x 2"):
                t.with_features(np.ones(shape))


class TestDenseRoundTrip:
    def test_to_dense_places_values(self):
        t = make_tensor([(1, 2), (4, 0)], h=6, w=5, c=2)
        g = t.to_dense()
        assert g.data.shape == (6, 5, 2)
        assert np.array_equal(g.data[1, 2], t.features[0])
        assert np.array_equal(g.data[4, 0], t.features[1])
        assert np.count_nonzero(g.data) == np.count_nonzero(t.features)

    def test_from_dense_keeps_any_nonzero_channel(self):
        data = np.zeros((3, 3, 2), dtype=np.float32)
        data[0, 0, 1] = 2.0
        data[2, 1, 0] = -1.0
        t = from_dense(DenseGrid(data))
        assert t.coords == ((0, 0), (2, 1))

    def test_round_trip_preserves_features(self):
        t = make_tensor([(0, 0), (3, 4), (7, 7)], c=4)
        back = from_dense(t.to_dense())
        assert back.coords == t.coords
        assert np.array_equal(back.features, t.features)

    def test_all_zero_grid_gives_empty_tensor(self):
        t = from_dense(DenseGrid(np.zeros((2, 2, 1), dtype=np.float32)))
        assert t.n_active == 0


class TestConcatChannels:
    def test_union_of_active_sets_with_zero_fill(self):
        a = from_entries(4, 4, 1, [((0, 0), [1.0])])
        b = from_entries(4, 4, 2, [((1, 1), [2.0, 3.0])])
        out = concat_channels([a, b])
        assert out.channels == 3
        assert out.coords == ((0, 0), (1, 1))
        assert np.array_equal(out.features, np.array(
            [[1.0, 0.0, 0.0], [0.0, 2.0, 3.0]], dtype=np.float32))

    def test_shared_coords_align(self):
        a = from_entries(4, 4, 1, [((2, 2), [5.0])])
        b = from_entries(4, 4, 1, [((2, 2), [7.0])])
        out = concat_channels([a, b])
        assert out.coords == ((2, 2),)
        assert np.array_equal(out.features, np.array([[5.0, 7.0]], dtype=np.float32))

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            concat_channels([make_tensor([], h=4, w=4, c=1), make_tensor([], h=4, w=5, c=1)])


class TestPltFormat:
    def test_round_trip_is_exact_for_float32(self):
        rng = np.random.Generator(np.random.Philox(key=42))
        coords = [(0, 0), (1, 5), (7, 2)]
        feats = (rng.standard_normal((3, 4)) * 1e3).astype(np.float32)
        t = from_entries(8, 8, 4, list(zip(coords, feats)))
        buf = io.StringIO()
        write_plt(t, buf)
        buf.seek(0)
        back = read_plt(buf)
        assert back.coords == t.coords
        assert np.array_equal(back.features, t.features)

    def test_nine_digit_format_round_trips_float32(self):
        # 9 significant digits uniquely identify any float32
        rng = np.random.Generator(np.random.Philox(key=7))
        vals = rng.standard_normal(2000).astype(np.float32)
        vals = vals * (10.0 ** rng.integers(-6, 7, 2000)).astype(np.float32)
        back = np.array([np.float32(fmt_float(v)) for v in vals])
        assert np.array_equal(back, vals)

    def test_file_round_trip(self, tmp_path):
        t = make_tensor([(2, 2), (3, 0)], c=2)
        path = tmp_path / "scene.plt"
        save_plt(t, str(path))
        back = load_plt(str(path))
        assert back.coords == t.coords
        assert np.array_equal(back.features, t.features)
        assert path.read_text().splitlines()[0] == "PLT v1 8 8 2 2"

    @pytest.mark.parametrize("mangle", [
        lambda lines: ["XLT v1 2 2 1 1"] + lines[1:],            # bad magic
        lambda lines: ["PLT v1 2 2 1"] + lines[1:],              # short header
        lambda lines: ["PLT v1 2 2 1 2"] + lines[1:],            # truncated body
        lambda lines: lines + ["1 1 " + fmt_float(0.5)],         # trailing content
        lambda lines: ["PLT v1 2 2 1 2", lines[1], lines[1]],    # duplicate coord
        lambda lines: [lines[0], "5 0 " + fmt_float(1.0)],       # out of bounds
        lambda lines: [lines[0], "0 1"],                         # missing values
    ])
    def test_malformed_inputs_rejected(self, mangle):
        t = from_entries(2, 2, 1, [((0, 1), [1.5])])
        buf = io.StringIO()
        write_plt(t, buf)
        lines = buf.getvalue().splitlines()
        text = "\n".join(mangle(lines)) + "\n"
        with pytest.raises(FormatError):
            read_plt(io.StringIO(text))

    def test_unsorted_entries_rejected(self):
        text = "PLT v1 4 4 1 2\n2 2 " + fmt_float(1.0) + "\n1 1 " + fmt_float(1.0) + "\n"
        with pytest.raises(FormatError):
            read_plt(io.StringIO(text))

    def test_wrong_vector_length_rejected(self):
        text = "PLT v1 4 4 2 1\n0 0 " + fmt_float(1.0) + "\n"
        with pytest.raises(FormatError):
            read_plt(io.StringIO(text))


class TestPltValues:
    def test_non_numeric_value_is_a_format_error(self):
        text = "PLT v1 4 4 2 2\n0 0 1.0 2.0\n1 1 1.0 x2\n"
        with pytest.raises(FormatError, match="entry 1 has a non-numeric value"):
            read_plt(io.StringIO(text))

    def test_non_integer_coordinate_is_a_format_error(self):
        with pytest.raises(FormatError, match="non-integer coordinate"):
            read_plt(io.StringIO("PLT v1 4 4 1 1\n0.5 0 1.0\n"))
        with pytest.raises(FormatError, match="non-numeric value"):
            read_plt(io.StringIO("PLT v1 4 4 1 1\nx 0 1.0\n"))

    @pytest.mark.parametrize("header", ["PLT v1 4 4 1 -3", "PLT v1 4 4 -1 2"])
    def test_negative_counts_are_rejected_before_allocating(self, header):
        with pytest.raises(FormatError, match="negative count"):
            read_plt(io.StringIO(header + "\n"))

    def test_first_fault_in_file_order_is_reported(self):
        # entry 1 is out of bounds, entry 2 has too few values
        text = "PLT v1 4 4 1 3\n0 0 1.0\n9 9 1.0\n2 2\n"
        with pytest.raises(FormatError, match="entry 1 coordinate"):
            read_plt(io.StringIO(text))
        text = "PLT v1 4 4 1 3\n0 0 1.0\n1 1\n0 0 1.0\n"
        with pytest.raises(FormatError, match="entry 1 has 0 values"):
            read_plt(io.StringIO(text))

    def test_blank_line_inside_the_body_is_an_entry_with_no_values(self):
        text = "PLT v1 4 4 1 2\n0 0 1.0\n\n1 1 1.0\n"
        with pytest.raises(FormatError, match="entry 1 has -2 values"):
            read_plt(io.StringIO(text))

    def test_float32_values_round_trip_bit_for_bit(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        bits = rng.integers(0, 2**32, size=(500, 6), dtype=np.uint64).astype(np.uint32)
        feats = bits.view(np.float32)
        feats = np.where(np.isfinite(feats), feats, np.float32(0.0))
        feats[0, :4] = [np.float32(1e-45), np.float32(-3.4028235e38), -0.0, np.float32(1.1754942e-38)]
        coords = [(i // 25, i % 25) for i in range(500)]
        t = PillarTensor(20, 25, 6, coords, feats)
        buf = io.StringIO()
        write_plt(t, buf)
        buf.seek(0)
        back = read_plt(buf)
        assert back.features.tobytes() == t.features.tobytes()
        assert np.array_equal(back.rc, t.rc)


# tokens that are not plain decimal numbers, or are numbers no PLT field accepts
JUNK_TOKENS = ("x", "nan", "-inf", "1e", "0x10", "1.5", "--2", "+", "\u0663", "1_0", "PLT", "v1")
# header counts: small, negative, huge but representable, and beyond int64
HEADER_COUNTS = (
    st.integers(0, 12)
    | st.integers(-(2**70), -1)
    | st.integers(13, 2**40)
    | st.integers(2**63, 2**70)
)
MANGLES = ("truncate", "extra", "drop_token", "dup_token", "swap", "junk", "header_count",
           "huge_grid")


def mangle(op: str, lines: list[str], draw) -> list[str]:
    """Apply one named corruption to the lines of a PLT text."""
    lines = list(lines)
    if not lines:
        return [" ".join(draw(st.lists(st.sampled_from(JUNK_TOKENS), max_size=6)))]
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    j = draw(st.integers(0, max(len(tokens) - 1, 0)))
    if op == "truncate":
        return lines[:i]
    if op == "extra":
        tokens = draw(st.lists(st.sampled_from(JUNK_TOKENS + ("0", "1", "2.5e+00")), max_size=6))
        return lines[:i] + [draw(st.sampled_from([*lines, " ".join(tokens)]))] + lines[i:]
    if op == "swap":
        k = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[k] = lines[k], lines[i]
        return lines
    if op == "huge_grid":  # h = w = 2**62: each fits int64, the cell count does not
        i, tokens = 0, lines[0].split()
        tokens[2:4] = [str(2**62)] * 2
    elif op == "header_count":
        i, tokens = 0, lines[0].split()
        if len(tokens) < 3:
            return lines
        j = draw(st.integers(2, len(tokens) - 1))
        tokens[j] = str(draw(HEADER_COUNTS))
    elif not tokens:
        return lines
    elif op == "drop_token":
        del tokens[j]
    elif op == "dup_token":
        tokens.insert(j, tokens[j])
    else:  # junk
        tokens[j] = draw(st.sampled_from(JUNK_TOKENS))
    lines[i] = " ".join(tokens)
    return lines


class TestPltFuzz:
    """Mangled PLT text parses to a valid tensor or raises a PillarConvError, nothing else."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_mangled_text_parses_or_raises_a_pillarconv_error(self, data):
        buf = io.StringIO()
        write_plt(make_tensor([(0, 1), (2, 3), (2, 5), (4, 0)], h=5, w=6, c=2), buf)
        lines = buf.getvalue().splitlines()
        for op in data.draw(st.lists(st.sampled_from(MANGLES), min_size=1, max_size=3)):
            lines = mangle(op, lines, data.draw)
        text = "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]))
        try:
            t = read_plt(io.StringIO(text))
        except PillarConvError:
            return
        assert t.rc.shape == (t.n_active, 2)
        assert t.features.shape == (t.n_active, t.channels)
        validate_coords(t.height, t.width, t.rc)


class TestArrayCoords:
    def test_coords_view_matches_the_array(self):
        t = make_tensor([(5, 1), (0, 3), (0, 1)])
        assert t.rc.dtype == np.int64 and t.rc.shape == (3, 2)
        assert t.coords == tuple(map(tuple, t.rc.tolist()))
        assert np.array_equal(t.keys, t.rc[:, 0] * t.width + t.rc[:, 1])

    def test_coords_array_is_read_only_and_callers_array_is_untouched(self):
        rc = np.array([[0, 0], [1, 1]], dtype=np.int64)
        t = PillarTensor(2, 2, 1, rc, np.zeros((2, 1), dtype=np.float32))
        with pytest.raises(ValueError):
            t.rc[0, 0] = 1
        rc[0, 0] = 0  # the caller's array stays writable

    def test_validate_reports_the_first_fault_in_order(self):
        with pytest.raises(ShapeMismatchError, match=r"\(0, 0\) after \(1, 1\)"):
            validate_coords(4, 4, ((1, 1), (0, 0), (9, 9)))
        with pytest.raises(OutOfBoundsError):
            validate_coords(4, 4, ((1, 1), (9, 9), (0, 0)))
        with pytest.raises(DuplicateCoordError):
            validate_coords(4, 4, ((1, 1), (1, 1), (0, 0)))
        with pytest.raises(OutOfBoundsError):
            validate_coords(4, 4, ((-1, 2),))

    def test_concat_of_disjoint_and_overlapping_sets(self):
        a = make_tensor([(0, 0), (3, 7)], c=1, seed=1)
        b = make_tensor([(3, 7), (7, 0)], c=2, seed=2)
        out = concat_channels([a, b])
        assert out.coords == ((0, 0), (3, 7), (7, 0))
        assert np.array_equal(out.features[1], np.concatenate([a.features[1], b.features[0]]))
        assert np.array_equal(out.features[0, 1:], [0.0, 0.0])
        assert np.array_equal(out.features[2, :1], [0.0])
