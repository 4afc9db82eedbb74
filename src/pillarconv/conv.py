"""Sparse 2D convolution via rulebooks, plus exact dense oracles.

A rulebook is the list of (input_index, weight_index, output_index) tuples a
sparse convolution executes: gather the input feature vector, multiply by the
weight slice for that kernel offset, scatter-add into the output entry. The
builders here differ only in which output set they commit to:

* submanifold: outputs exactly the active inputs, so the active set never
  grows with depth;
* full sparse: outputs everywhere any input reaches (the dilation union,
  clipped to the grid);
* selective: outputs at every active input plus the full dilation
  neighborhoods of a selected subset. With nothing selected this is the
  submanifold rulebook, with everything selected it is the full sparse one.

All five builders are thin entry points over one vectorised kernel-map join,
`_kernel_map`, on (n, 2) int64 coordinates and linearised keys. They accept
(n, 2) arrays or any sequence of (row, col) pairs; `Rulebook.output_coords`
is a tuple view of `output_rc`.

Offset conventions. For odd stride-1 kernels (the only stride-1 form) weight
index w enumerates centered offsets (dr, dc) in row-major order, and a tuple
pairs input i with output o exactly when coord(o) - coord(i) = offset(w).
The only strided form is the 2x2/stride-2 pair: the downsampling convolution
sends input (r, c) to output (r // 2, c // 2) under weight offset
(r % 2, c % 2), and the transposed convolution sends input (r, c) to the four
outputs (2r + dr, 2c + dc), clipped to the output bounds. Stride-1 output
positions use same padding; positions reached outside the grid are dropped.

Tuples are stored sorted by (output_index, weight_index, input_index) and
execution accumulates in exactly that order per output, so results are
bit-for-bit reproducible. Products accumulate in float64 and round to float32
once at the end.

FLOPs convention: flops = 2 * n_tuples * c_in * c_out + n_outputs * c_out.
Every multiply-accumulate counts as two operations and every output entry
pays one bias add per channel, whether or not the bias is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadKernelShapeError,
    ShapeMismatchError,
    StrideUnsupportedError,
    UnsortedInputError,
)
from .tensor import (
    FEATURE_DTYPE,
    Coord,
    DenseGrid,
    PillarTensor,
    as_coords_array,
    as_tuples,
    coords_of_keys,
    selection_mask,
    sorted_unique,
)


# -- kernels -----------------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Convolution weights: (k_h * k_w, c_in, c_out) plus a (c_out,) bias.

    Supported shapes: odd k_h x k_w at stride 1, and 2x2 at stride 2.
    """

    k_h: int
    k_w: int
    c_in: int
    c_out: int
    stride: int
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.stride == 1:
            if self.k_h < 1 or self.k_w < 1 or self.k_h % 2 == 0 or self.k_w % 2 == 0:
                raise BadKernelShapeError(
                    f"stride-1 kernels must be odd, got {self.k_h}x{self.k_w}"
                )
        elif self.stride == 2:
            if (self.k_h, self.k_w) != (2, 2):
                raise BadKernelShapeError(
                    f"stride-2 kernels must be 2x2, got {self.k_h}x{self.k_w}"
                )
        else:
            raise StrideUnsupportedError(f"stride {self.stride} not supported")
        w = np.ascontiguousarray(self.weights, dtype=FEATURE_DTYPE)
        b = np.ascontiguousarray(self.bias, dtype=FEATURE_DTYPE)
        if w.shape != (self.k_h * self.k_w, self.c_in, self.c_out):
            raise ShapeMismatchError(
                f"weights shape {w.shape}, expected "
                f"{(self.k_h * self.k_w, self.c_in, self.c_out)}"
            )
        if b.shape != (self.c_out,):
            raise ShapeMismatchError(f"bias shape {b.shape}, expected ({self.c_out},)")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def taps(self) -> int:
        return self.k_h * self.k_w

    @cached_property
    def offsets(self) -> tuple[Coord, ...]:
        """Weight offsets in weight-index order.

        Centered for stride 1, raw {0,1}x{0,1} for the 2x2 stride-2 form.
        """
        if self.stride == 1:
            ph, pw = self.k_h // 2, self.k_w // 2
            return tuple(
                (dr, dc)
                for dr in range(-ph, ph + 1)
                for dc in range(-pw, pw + 1)
            )
        return ((0, 0), (0, 1), (1, 0), (1, 1))

    @cached_property
    def offset_array(self) -> np.ndarray:
        """(2, taps) int64: row offsets, then column offsets, in weight order."""
        return np.array(self.offsets, dtype=np.int64).T.copy()

    @staticmethod
    def seeded(
        k_h: int,
        k_w: int,
        c_in: int,
        c_out: int,
        stride: int = 1,
        seed: int = 0,
        scale: float | None = None,
        bias_scale: float = 0.0,
    ) -> "Kernel":
        """Deterministic pseudorandom kernel (Philox counter-based stream).

        Weights are normal with std 1/sqrt(taps * c_in) unless `scale` is
        given; bias is normal * bias_scale (zero bias by default).
        """
        rng = np.random.Generator(np.random.Philox(key=seed))
        if scale is None:
            scale = 1.0 / np.sqrt(k_h * k_w * c_in)
        w = rng.standard_normal((k_h * k_w, c_in, c_out)) * scale
        b = rng.standard_normal(c_out) * bias_scale
        return Kernel(k_h, k_w, c_in, c_out, stride, w, b)

    @staticmethod
    def identity(channels: int) -> "Kernel":
        """1x1 stride-1 kernel that passes features through unchanged."""
        w = np.eye(channels, dtype=FEATURE_DTYPE).reshape(1, channels, channels)
        return Kernel(1, 1, channels, channels, 1, w, np.zeros(channels))


# -- rulebooks ---------------------------------------------------------------


@dataclass(frozen=True)
class Rulebook:
    """Gather-multiply-scatter plan for one sparse convolution.

    Parallel arrays of (input_index, weight_index, output_index), sorted by
    (output, weight, input); each (output, weight) pair holds at most one
    tuple. `output_rc` is the sorted unique (n, 2) output set; indices refer
    into it and into the input tensor's entry order. `output_coords` is its
    tuple view.
    """

    in_idx: np.ndarray
    w_idx: np.ndarray
    out_idx: np.ndarray
    output_rc: np.ndarray
    out_height: int
    out_width: int

    def __post_init__(self) -> None:
        for name in ("in_idx", "w_idx", "out_idx"):
            a = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        n = self.in_idx.size
        if self.w_idx.size != n or self.out_idx.size != n:
            raise ShapeMismatchError("rulebook arrays must have equal length")
        rc = as_coords_array(self.output_rc).view()
        rc.setflags(write=False)
        object.__setattr__(self, "output_rc", rc)

    @property
    def n_tuples(self) -> int:
        return int(self.in_idx.size)

    @property
    def n_outputs(self) -> int:
        return self.output_rc.shape[0]

    @cached_property
    def output_coords(self) -> tuple[Coord, ...]:
        return as_tuples(self.output_rc)

    def tuple_set(self) -> set[tuple[int, int, int]]:
        return set(zip(self.in_idx.tolist(), self.w_idx.tolist(), self.out_idx.tolist()))

    def tuples_per_offset(self, taps: int) -> np.ndarray:
        return np.bincount(self.w_idx, minlength=taps).astype(np.int64)

    def same_tuples(self, other: "Rulebook") -> bool:
        """Set equality of tuples (canonical sort makes it array equality)."""
        return (
            np.array_equal(self.output_rc, other.output_rc)
            and np.array_equal(self.in_idx, other.in_idx)
            and np.array_equal(self.w_idx, other.w_idx)
            and np.array_equal(self.out_idx, other.out_idx)
        )


def _require_stride1(k: Kernel, op: str) -> None:
    if k.stride != 1:
        raise StrideUnsupportedError(f"{op} requires stride 1, got {k.stride}")


def _require_sorted(rc: np.ndarray, width: int, op: str) -> None:
    keys = rc[:, 0] * width + rc[:, 1]
    if (keys[1:] <= keys[:-1]).any():
        raise UnsortedInputError(f"{op} builder needs row-major sorted coords")


def _kernel_map(
    rc: np.ndarray,
    k: Kernel,
    out_shape: tuple[int, int],
    base: np.ndarray | None = None,
    dilate: np.ndarray | None = None,
    transposed: bool = False,
) -> Rulebook:
    """The join every builder runs: input coords x kernel offsets -> output set.

    Without `base` the outputs are every in-grid target of every input (full
    sparse and strided forms). With `base`, a sorted unique (m, 2) output
    set, the outputs are `base` united with the targets of the inputs the
    mask `dilate` marks (none if omitted); targets off the output set are
    dropped. Every (input, offset) pair whose target is an output becomes a
    tuple.

    Targets of stride-1 kernels are (r + dr, c + dc); of the transposed 2x2
    form (2r + dr, 2c + dc); of the downsampling 2x2 form ((r - dr) / 2,
    (c - dc) / 2) when both divide, i.e. the offset of the input's parity.
    All n x taps targets are formed in one broadcast, bounds-checked per axis
    so no key wraps into the next row, and linearised on the output grid.
    Output keys are sorted, targets are matched to them by binary search, and
    tuples are sorted canonically by the single key output * taps + weight,
    which is unique because an output and an offset fix the input.
    """
    out_h, out_w = out_shape
    dr, dc = k.offset_array
    r, c = rc[:, :1], rc[:, 1:]
    if k.stride == 1:
        tr, tc = r + dr, c + dc
    elif transposed:
        tr, tc = 2 * r + dr, 2 * c + dc
    else:
        sr, sc = r - dr, c - dc
        tr, tc = sr >> 1, sc >> 1
    # negative values wrap to huge unsigned ones, so one compare checks both ends
    ok = (tr.view(np.uint64) < out_h) & (tc.view(np.uint64) < out_w)
    if k.stride == 2 and not transposed:
        ok &= ((sr | sc) & 1) == 0
    i, w = ok.nonzero()
    keys = (tr * out_w + tc)[i, w]
    if base is None:
        out_keys = sorted_unique(keys)
        o = out_keys.searchsorted(keys)
        out_rc = coords_of_keys(out_keys, out_w)
    else:
        out_keys = base[:, 0] * out_w + base[:, 1]
        out_rc = base
        if dilate is not None:
            out_keys = sorted_unique(np.concatenate((out_keys, keys[dilate[i]])))
            out_rc = coords_of_keys(out_keys, out_w)
        o = out_keys.searchsorted(keys)
        hit = out_keys.take(o, mode="clip") == keys
        i, w, o = i[hit], w[hit], o[hit]
    order = (o * k.taps + w).argsort()
    return Rulebook(i[order], w[order], o[order], out_rc, out_h, out_w)


def build_rulebook_subm(
    active: Sequence[Coord], k: Kernel, bounds: tuple[int, int] | None = None
) -> Rulebook:
    """Submanifold rulebook: outputs exactly the active set.

    A tuple (i, w, o) exists iff both ends are active and
    coord(o) - coord(i) = offset(w). Bounds never affect the tuple set; they
    only record the output grid dims (inferred from the coords if omitted).
    """
    _require_stride1(k, "submanifold convolution")
    rc = as_coords_array(active)
    if bounds is None:
        bounds = (int(rc[:, 0].max(initial=0)) + 1, int(rc[:, 1].max(initial=0)) + 1)
    _require_sorted(rc, bounds[1], "submanifold")
    return _kernel_map(rc, k, bounds, base=rc)


def build_rulebook_sparse(
    active: Sequence[Coord], k: Kernel, out_bounds: tuple[int, int]
) -> Rulebook:
    """Dilating sparse rulebook: outputs everywhere any input reaches.

    Stride 1 uses same padding (output grid = input grid); positions landing
    outside `out_bounds` are dropped. Stride 2 maps input (r, c) to output
    ((r - dr) / 2, (c - dc) / 2) for the offset of matching parity.
    """
    return _kernel_map(as_coords_array(active), k, out_bounds)


def build_rulebook_downsample2x2(
    active: Sequence[Coord], k: Kernel, in_bounds: tuple[int, int]
) -> Rulebook:
    """2x2 stride-2 downsampling convolution.

    Output grid is ceil(h/2) x ceil(w/2); each input contributes one tuple at
    (r // 2, c // 2) with weight offset (r % 2, c % 2).
    """
    if (k.k_h, k.k_w, k.stride) != (2, 2, 2):
        raise BadKernelShapeError("downsample needs a 2x2 stride-2 kernel")
    h, w = in_bounds
    return _kernel_map(as_coords_array(active), k, ((h + 1) // 2, (w + 1) // 2))


def build_rulebook_deconv2x2(
    active: Sequence[Coord], k: Kernel, out_bounds: tuple[int, int]
) -> Rulebook:
    """2x2 stride-2 transposed convolution.

    Input (r, c) produces outputs (2r + dr, 2c + dc) for each weight offset,
    clipped to `out_bounds`.
    """
    if (k.k_h, k.k_w, k.stride) != (2, 2, 2):
        raise BadKernelShapeError("deconv needs a 2x2 stride-2 kernel")
    return _kernel_map(as_coords_array(active), k, out_bounds, transposed=True)


def build_rulebook_selective(
    active: Sequence[Coord],
    selected: Iterable[Coord],
    k: Kernel,
    out_bounds: tuple[int, int],
) -> Rulebook:
    """Selectively dilated rulebook.

    Output set = active union the clipped kernel neighborhoods of the
    selected pillars. Tuples pair every active input with every output in
    kernel reach, so outputs created by a neighbor's dilation still receive
    contributions from non-selected inputs.
    """
    _require_stride1(k, "selective dilation")
    rc = as_coords_array(active)
    _require_sorted(rc, out_bounds[1], "selective")
    flags = selection_mask(rc, selected)
    return _kernel_map(rc, k, out_bounds, base=rc, dilate=flags if flags.any() else None)


# -- execution ---------------------------------------------------------------


def execute_rulebook(rb: Rulebook, t: PillarTensor, k: Kernel) -> PillarTensor:
    """Run gather-multiply-scatter over the rulebook.

    Accumulates in float64 in canonical tuple order per output, adds bias,
    rounds to float32. Output tensor lives on the rulebook's output grid.
    """
    if t.channels != k.c_in:
        raise ShapeMismatchError(f"input has {t.channels} channels, kernel wants {k.c_in}")
    if rb.n_tuples:
        if int(rb.in_idx.max()) >= t.n_active:
            raise ShapeMismatchError("rulebook input index out of range for this tensor")
        if int(rb.w_idx.max()) >= k.taps:
            raise ShapeMismatchError("rulebook weight index out of range for this kernel")
    acc = np.zeros((rb.n_outputs, k.c_out), dtype=np.float64)
    feats = t.features.astype(np.float64)
    weights = k.weights.astype(np.float64)
    # One segment per offset, in canonical order within it. An offset adds at
    # most once to any output, so a plain fancy-index add equals np.add.at,
    # and ascending offsets keep the canonical accumulation order per output.
    by_offset = np.argsort(rb.w_idx.astype(np.min_scalar_type(k.taps)), kind="stable")
    ends = np.cumsum(np.bincount(rb.w_idx, minlength=k.taps))
    start = 0
    for w, end in enumerate(ends.tolist()):
        seg = by_offset[start:end]
        start = end
        if seg.size:
            acc[rb.out_idx[seg]] += feats[rb.in_idx[seg]] @ weights[w]
    acc += k.bias.astype(np.float64)
    out = acc.astype(FEATURE_DTYPE)
    return PillarTensor(rb.out_height, rb.out_width, k.c_out, rb.output_rc, out)


def flops_of_rulebook(rb: Rulebook, c_in: int, c_out: int) -> int:
    """flops = 2 * tuples * c_in * c_out + outputs * c_out (bias adds)."""
    return 2 * rb.n_tuples * c_in * c_out + rb.n_outputs * c_out


# -- dense oracles -----------------------------------------------------------


def dense_conv_oracle(g: DenseGrid, k: Kernel) -> DenseGrid:
    """Dense convolution with the exact conventions of the sparse builders.

    Stride 1: same padding, out[o] = sum_w in[o - offset(w)] @ W[w] + bias.
    Stride 2 (2x2): out[(R, C)] = sum_{dr,dc} in[(2R+dr, 2C+dc)] @ W + bias
    on a ceil(h/2) x ceil(w/2) grid. No sparsity shortcuts: every output
    position is computed.
    """
    if g.channels != k.c_in:
        raise ShapeMismatchError(f"grid has {g.channels} channels, kernel wants {k.c_in}")
    h, w = g.height, g.width
    data = g.data.astype(np.float64)
    weights = k.weights.astype(np.float64)
    if k.stride == 1:
        out = np.zeros((h, w, k.c_out), dtype=np.float64)
        for wi, (dr, dc) in enumerate(k.offsets):
            # output rows R with R - dr inside the grid
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


def dense_deconv_oracle(g: DenseGrid, k: Kernel, out_bounds: tuple[int, int] | None = None) -> DenseGrid:
    """Dense 2x2 stride-2 transposed convolution (default output 2h x 2w)."""
    if g.channels != k.c_in:
        raise ShapeMismatchError(f"grid has {g.channels} channels, kernel wants {k.c_in}")
    if (k.k_h, k.k_w, k.stride) != (2, 2, 2):
        raise BadKernelShapeError("deconv oracle needs a 2x2 stride-2 kernel")
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
