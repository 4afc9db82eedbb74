"""Sparse pillar tensor container and PLT text format."""

import io
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarconv.accel import AcceleratorConfig, generate_rules_pipelined
from pillarconv.backbone import ConvMode, LayerSpec, NetworkSpec
from pillarconv.conv import (
    Kernel,
    Rulebook,
    build_rulebook_deconv2x2,
    build_rulebook_downsample2x2,
    build_rulebook_selective,
    build_rulebook_sparse,
    build_rulebook_subm,
    dense_deconv_oracle,
)
from pillarconv.errors import (
    BadVectorLengthError,
    DuplicateCoordError,
    FormatError,
    OutOfBoundsError,
    PillarConvError,
    ShapeMismatchError,
    SpecMismatchError,
)
from pillarconv import tensor
from pillarconv.importance import Selection
from pillarconv.scenes import SceneSpec
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
from pillarconv.util import FLOAT_FORMAT, fmt_float


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


def reference_write_plt(t: PillarTensor, f) -> None:
    """The per-row writer `write_plt` replaced: one `str.format` call per row. The byte reference."""
    f.write(f"PLT v1 {t.height} {t.width} {t.channels} {t.n_active}\n")
    row = " ".join(["{} {}"] + [FLOAT_FORMAT] * t.channels) + "\n"
    with np.errstate(invalid="ignore"):  # a signalling NaN raises the flag on conversion
        values = t.features.astype(np.float64)
    for rc, vec in zip(t.rc.tolist(), values.tolist()):
        f.write(row.format(*rc, *vec))


def plt_text(writer, t: PillarTensor) -> str:
    buf = io.StringIO()
    writer(t, buf)
    return buf.getvalue()


F32_SIGN, F32_MAX, F32_INF = 0x80000000, 0x7F7FFFFF, 0x7F800000
POW10_BITS = [int(np.float32(10.0**k).view(np.uint32)) for k in range(-45, 39)]
# Float32 values whose nine-digit mantissa is a rounding tie (the first four) or lies
# within 1e-6 of one; found by an exact scan, checked by `test_near_ties_are_near_ties`.
NEAR_TIES = (0x38800000, 0x49C8F3D9, 0x4850B9DC, 0x47C298C4, 0x14A68E96, 0x6F89CB21,
             0x14934133, 0x716596A5, 0x370BB242, 0x059CD4C7, 0x1EBE0C4B)
F32_MAGNITUDES = st.one_of(
    st.sampled_from([0, 1, 0x007FFFFF, 0x00800000, F32_MAX, F32_INF,
                     0x7FC00000, 0x7F800001, 0x7FFFFFFF]),  # quiet, signalling and full NaNs
    st.integers(1, 0x007FFFFF),  # subnormals
    st.builds(lambda p, d: min(max(p + d, 0), 0x7FFFFFFF),
              st.sampled_from(POW10_BITS), st.integers(-2, 2)),  # 10**k and its neighbours
    st.sampled_from(NEAR_TIES),
    st.integers(0, 0x7FFFFFFF),
)
F32_BITS = st.builds(lambda m, negative: m | (F32_SIGN if negative else 0),
                     F32_MAGNITUDES, st.booleans())


class TestPltWriter:
    """`write_plt` writes exactly the bytes of the per-row writer it replaced."""

    def test_empty_tensor(self):
        t = make_tensor([], h=3, w=4, c=5)
        assert plt_text(write_plt, t) == plt_text(reference_write_plt, t) == "PLT v1 3 4 5 0\n"

    def test_one_channel(self):
        t = make_tensor([(r, c) for r in range(8) for c in range(0, 8, 3)], c=1)
        assert plt_text(write_plt, t) == plt_text(reference_write_plt, t)

    def test_coordinates_of_one_and_nineteen_digits(self):
        h = 2 * 10**18  # h * 4 cells fit the int64 keys
        rc = [(0, 0), (7, 3), (10**18, 1), (h - 1, 3)]
        t = PillarTensor(h, 4, 2, rc, np.arange(8, dtype=np.float32).reshape(4, 2) - 3)
        text = plt_text(write_plt, t)
        assert text == plt_text(reference_write_plt, t)
        assert text.splitlines()[4].startswith("1999999999999999999 3 ")

    def test_near_ties_are_near_ties(self):
        for bits in NEAR_TIES:
            x = Fraction(float(np.uint32(bits).view(np.float32)))
            e = len(str(int(x * 10**60))) - 61  # x * 10**-e lies in [1, 10)
            mantissa = x * Fraction(10) ** (8 - e)
            assert 10**8 <= mantissa < 10**9
            assert abs(mantissa - int(mantissa) - Fraction(1, 2)) < Fraction(1, 10**6)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_float32_class_matches_the_per_row_writer(self, data):
        c = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(0, 12))
        bits = data.draw(st.lists(F32_BITS, min_size=n * c, max_size=n * c))
        feats = np.array(bits, dtype=np.uint32).view(np.float32).reshape(n, c)
        t = PillarTensor(n + 1, 3, c, [(i, i % 3) for i in range(n)], feats)
        chunk = data.draw(st.sampled_from([1, 5, 7, tensor._PLT_CHUNK]))
        with mock.patch.object(tensor, "_PLT_CHUNK", chunk):
            text = plt_text(write_plt, t)
        assert text == plt_text(reference_write_plt, t)
        finite = np.isfinite(feats).all(axis=1)
        if finite.all():  # every finite feature reads back bit for bit
            assert read_plt(io.StringIO(text)).features.tobytes() == feats.tobytes()
        else:
            with pytest.raises(FormatError, match=f"entry {finite.argmin()} has a value that is not"):
                read_plt(io.StringIO(text))

    def test_transient_memory_is_bounded_by_the_chunk(self):
        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        rng = np.random.Generator(np.random.Philox(key=9))
        t = PillarTensor(64, 64, 256, np.argwhere(np.ones((64, 64), dtype=bool))[:3000],
                         rng.standard_normal((3000, 256), dtype=np.float32))
        sink = Sink()
        with mock.patch.object(tensor, "_PLT_CHUNK", 4096):
            tracemalloc.start()
            try:
                write_plt(t, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sink.size > 11 * 2**20  # the file's text, never held at once
        assert peak < 2**20  # ~115 bytes per value of one 4096-value chunk


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

    @pytest.mark.parametrize("token", ["nan", "-inf", "inf", "NaN", "1e39", "-1e39"])
    def test_non_finite_feature_is_a_format_error(self, token):
        text = f"PLT v1 4 4 2 3\n0 0 1.0 2.0\n1 1 1.0 {token}\n2 2 {token} 0\n"
        with pytest.raises(FormatError, match=f"entry 1 has a value that is not finite in "
                                              f"float32: '{token}'"):
            read_plt(io.StringIO(text))

    def test_first_of_coordinate_and_non_finite_faults_is_reported(self):
        with pytest.raises(FormatError, match="entry 1 has a value that is not finite"):
            read_plt(io.StringIO("PLT v1 4 4 1 3\n0 0 1.0\n1 1 nan\n9 9 1.0\n"))
        with pytest.raises(FormatError, match="entry 1 coordinate"):
            read_plt(io.StringIO("PLT v1 4 4 1 3\n0 0 1.0\n9 9 1.0\n1 1 nan\n"))
        with pytest.raises(FormatError, match="entry 1 coordinate"):
            read_plt(io.StringIO("PLT v1 4 4 1 2\n0 0 1.0\n9 9 nan\n"))
        with pytest.raises(FormatError, match="entry 1 has a value that is not finite"):
            read_plt(io.StringIO("PLT v1 4 4 1 3\n0 0 1.0\n1 1 inf\n2 2\n"))

    def test_largest_float32_is_finite(self):
        text = "PLT v1 1 1 2 1\n0 0 3.40282347e+38 -3.4028235e38\n"
        big = float(np.finfo(np.float32).max)
        assert read_plt(io.StringIO(text)).features.tolist() == [[big, -big]]

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
# numbers no feature accepts: NaN, infinities and a value beyond the float32 range
NON_FINITE_TOKENS = ("nan", "-inf", "inf", "1e39")
MANGLES = ("truncate", "extra", "drop_token", "dup_token", "swap", "junk", "header_count",
           "huge_grid", "non_finite")


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
    elif op == "non_finite":
        tokens[j] = draw(st.sampled_from(NON_FINITE_TOKENS))
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
        assert np.isfinite(t.features).all()  # a non-finite feature token is a FormatError
        assert t.rc.shape == (t.n_active, 2)
        assert t.features.shape == (t.n_active, t.channels)
        validate_coords(t.height, t.width, t.rc)


class TestArrayCoords:
    def test_coords_view_matches_the_array(self):
        t = make_tensor([(5, 1), (0, 3), (0, 1)])
        assert t.rc.dtype == np.int64 and t.rc.shape == (3, 2)
        assert t.coords == tuple(map(tuple, t.rc.tolist()))
        assert np.array_equal(t.keys, t.rc[:, 0] * t.width + t.rc[:, 1])

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


# -- array ownership -------------------------------------------------------------

# owner: (build(arrays), the arrays it is given, by the field that stores each)
OWNED = {
    "PillarTensor": (lambda a: PillarTensor(2, 2, 1, a["rc"], a["features"]),
                     lambda: dict(rc=np.array([[0, 0], [1, 1]], np.int64),
                                  features=np.ones((2, 1), np.float32))),
    "Rulebook": (lambda a: Rulebook(a["in_idx"], a["w_idx"], a["out_idx"], a["output_rc"], 2, 2),
                 lambda: dict(in_idx=np.array([0, 1], np.int64), w_idx=np.zeros(2, np.int64),
                              out_idx=np.array([0, 1], np.int64),
                              output_rc=np.array([[0, 0], [1, 1]], np.int64))),
    "Kernel": (lambda a: Kernel(3, 3, 1, 1, 1, a["weights"], a["bias"]),
               lambda: dict(weights=np.ones((9, 1, 1), np.float32),
                            bias=np.zeros(1, np.float32))),
    "DenseGrid": (lambda a: DenseGrid(a["data"]),
                  lambda: dict(data=np.ones((2, 2, 1), np.float32))),
    "Selection": (lambda a: Selection(a["rc"]),
                  lambda: dict(rc=np.array([[0, 1]], np.int64))),
}


@pytest.mark.parametrize("given", ["array", "view"])
@pytest.mark.parametrize("owner, field", [(owner, field) for owner, (_, arrays) in OWNED.items()
                                          for field in arrays()])
def test_public_constructors_store_a_private_copy(owner, field, given):
    # arrays already of the stored dtype and layout, which a constructor could keep as they are
    build, arrays = OWNED[owner]
    args = arrays()
    base = args[field]
    if given == "view":
        args[field] = base.view()
    obj = build(args)
    stored = getattr(obj, field)
    before = stored.tobytes()
    assert not stored.flags.writeable
    assert base.flags.writeable and args[field].flags.writeable
    base.flat[0] = np.nan if base.dtype.kind == "f" else base.flat[0] + 1
    assert getattr(obj, field).tobytes() == before


# -- the size rule ---------------------------------------------------------------


def _kernel(s):
    c_in, c_out = int(s["c_in"]), int(s["c_out"])
    w = np.zeros((int(s["k_h"]) * int(s["k_w"]), c_in, c_out))
    return Kernel(s["k_h"], s["k_w"], s["c_in"], s["c_out"], s["stride"], w, np.zeros(c_out))


_K3, _K2 = Kernel.seeded(3, 3, 1, 1), Kernel.seeded(2, 2, 1, 1, 2)
_KERNEL = dict(k_h=3, k_w=3, c_in=1, c_out=1, stride=1)
_GRID = dict(height=2, width=2)

# owner: (its error type, valid sizes, build(sizes)); a builder's sizes are its grid
SIZE_OWNERS = {
    "PillarTensor": (ShapeMismatchError, dict(height=2, width=2, channels=1),
                     lambda s: PillarTensor(s["height"], s["width"], s["channels"], [],
                                            np.ones((0, 1)))),
    "Rulebook": (ShapeMismatchError, dict(out_height=2, out_width=2),
                 lambda s: Rulebook([], [], [], [], s["out_height"], s["out_width"])),
    "Kernel": (ShapeMismatchError, _KERNEL, _kernel),
    "Kernel.seeded": (ShapeMismatchError, _KERNEL, lambda s: Kernel.seeded(**s)),
    "AcceleratorConfig": (SpecMismatchError, dict(array_rows=4, array_cols=4, sram_kbytes=8,
                                                  lat_align=1, lat_merge=1, lat_dilate=1,
                                                  lat_expand=1),
                          lambda s: AcceleratorConfig(**s)),
    "SceneSpec": (SpecMismatchError, dict(height=4, width=4, channels=1, clusters=2, arcs=2,
                                          seed=3),
                  lambda s: SceneSpec(density=0.5, **s)),
    "LayerSpec": (SpecMismatchError, _KERNEL, lambda s: LayerSpec(ConvMode.SPARSE_FULL, **s)),
    "NetworkSpec": (SpecMismatchError, dict(height=2, width=2, channels=1),
                    lambda s: NetworkSpec("n", stages=(), neck=(), **s)),
    "subm": (ShapeMismatchError, _GRID,
             lambda s: build_rulebook_subm([], _K3, (s["height"], s["width"]))),
    "sparse": (ShapeMismatchError, _GRID,
               lambda s: build_rulebook_sparse([], _K3, (s["height"], s["width"]))),
    "selective": (ShapeMismatchError, _GRID,
                  lambda s: build_rulebook_selective([], [], _K3, (s["height"], s["width"]))),
    "down": (ShapeMismatchError, _GRID,
             lambda s: build_rulebook_downsample2x2([], _K2, (s["height"], s["width"]))),
    "deconv": (ShapeMismatchError, _GRID,
               lambda s: build_rulebook_deconv2x2([], _K2, (s["height"], s["width"]))),
    "generate_rules_pipelined": (ShapeMismatchError, _GRID,
                                 lambda s: generate_rules_pipelined(s["height"], s["width"],
                                                                    [], [], _K3)),
    "dense_deconv_oracle": (ShapeMismatchError, _GRID,
                            lambda s: dense_deconv_oracle(DenseGrid(np.ones((1, 1, 1))), _K2,
                                                          (s["height"], s["width"]))),
}
MINIMUM = {"sram_kbytes": 0, "seed": 0}  # every other size is at least 1


def _size_cases():
    for owner, (_, sizes, _) in SIZE_OWNERS.items():
        for field, valid in sizes.items():
            low = MINIMUM.get(field, 1)
            yield from (
                pytest.param(owner, field, float(valid), f"{field} must be an integer",
                             id=f"{owner}-{field}-float"),
                pytest.param(owner, field, True, f"{field} must be an integer",
                             id=f"{owner}-{field}-bool"),
                pytest.param(owner, field, low - 1, f"{field} must be >= {low}",
                             id=f"{owner}-{field}-below"),
                pytest.param(owner, field, np.int32(valid), None, id=f"{owner}-{field}-numpy"),
                pytest.param(owner, field, low, None, id=f"{owner}-{field}-minimum"),
            )


@pytest.mark.parametrize("owner, field, value, rejected", _size_cases())
def test_every_size_follows_the_size_rule(owner, field, value, rejected):
    error, sizes, build = SIZE_OWNERS[owner]
    if rejected is None:
        build({**sizes, field: value})
    else:
        with pytest.raises(error, match=rejected):
            build({**sizes, field: value})


@pytest.mark.parametrize("build, error, message", [
    (lambda: PillarTensor(2, 2, 1, [(0, 0, 0)], np.ones((1, 1))),
     ShapeMismatchError, "coords must be (n, 2), got (1, 3)"),
    (lambda: DenseGrid(np.zeros((2, 2))),
     ShapeMismatchError, "dense grid must be 3-d, got shape (2, 2)"),
    (lambda: PillarTensor(2, 2, 1, [(0, 0)], np.ones((1, 2))),
     BadVectorLengthError, "feature array shape (1, 2) does not match 1 entries x 1 channels"),
    (lambda: concat_channels([]), ShapeMismatchError, "concat_channels needs at least one tensor"),
], ids=["coords-shape", "dense-ndim", "feature-shape", "concat-nothing"])
def test_error_paths(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()
