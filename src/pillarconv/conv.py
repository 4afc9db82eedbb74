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

All five builders are one call each to the vectorised kernel-map join
`_kernel_map` on (n, 2) int64 coordinates and linearised keys, naming its
form and grids. Weight index w enumerates a kernel's offsets (dr, dc) in
row-major order, and input (r, c) reaches under offset w, in each form:

* "stride1" (submanifold, full sparse, selective; odd kernels, offsets
  centered, same padding: input grid = output grid): (r + dr, c + dc);
* "down" (2x2 stride 2, h x w input grid, ceil(h/2) x ceil(w/2) output
  grid): (r // 2, c // 2), under the offset (r % 2, c % 2) alone;
* "up" (transposed 2x2 stride 2; only the output grid is known):
  (2r + dr, 2c + dc).

Targets off the output grid are dropped. One door, `_check_join_input`,
checks what the join assumes, for every builder and for
`accel.generate_rules_pipelined`: the kernel fits the form, each known grid
has positive integer sides and fits the int64 key space, the coords are
strictly row-major on the input grid (non-negative for "up"), and it
returns what to dilate as one bool flag per input, the join's one selection
form (converting selected coords once). Builders take (n, 2) arrays or
sequences of (row, col) pairs; `Rulebook.output_coords` is a tuple view of
`output_rc`.

Tuples are stored offset-major: sorted by (weight_index, output_index), the
order execution runs them in, one GEMM per offset. The join emits them in
that order without sorting. Every output therefore receives its products in
ascending offset order, so results are bit-for-bit reproducible. Products
accumulate in float64 and round to float32 once at the end.

Each invariant is checked once. The door checks the join's input, and the
join builds its book from those checked values with `tensor._proven`,
skipping `Rulebook`'s checks. A book built by hand goes through them: the
public `Rulebook` rejects any other tuple order, indices out of range, and
an output set that is not sorted, unique and on a positive output grid
inside the key space. So `execute_rulebook` trusts every book's output set
and builds its result on it without a re-check.

Cache-sized accumulation. Both executors keep their float64 accumulator in
tiles of at most `ACC_BYTES`: the dense oracles in tiles of output rows, the
sparse executor in blocks of consecutive outputs. A tile is zeroed, receives
every kernel offset's products in tap order, gets the bias and is rounded
straight into the float32 result, so no full-grid float64 array exists and
each accumulator stays in cache across its offsets. Tiling changes no bit:

* per-output tap order: every output still sums its products in ascending
  offset order, starting from +0.0, and adds the bias last, in the same
  call that rounds it to float32. The transposed oracle writes each
  product p as p + (bias + 0.0), which equals (+0.0 + p) + bias (see the
  one-product shortcut below), so a -0.0 product cannot meet a -0.0 bias
  (seeded zero biases hold some) and leave -0.0 behind;
* one GEMM per (tile, tap): the conv oracle copies a tile's input rows
  once into float64, at stride 1 padded by k_h//2 rows and k_w//2 columns
  of zeros and flattened, so each tap's inputs for the whole tile are one
  contiguous slice (the shift-and-add form of GEMM convolution); at 2x2
  stride 2 it writes one contiguous block per tap, zero past an odd edge.
  The transposed oracle reads its tile as one block. A tap's GEMM over the
  tile is added to the flat accumulator, and the outputs that fall in the
  padding columns are dropped. The whole-grid form makes one GEMM per
  output row and tap instead (numpy runs a 3-D matmul as one GEMM per
  leading index), and the tile's GEMM gives the same bits only where a GEMM
  row does not depend on the call's row count: c_out a multiple of `PANEL`
  (see below), and two rows or more in each row call it replaces, because
  a one-row call runs as a GEMV, which sums in another order. Elsewhere
  the same loop makes the row calls themselves, one per output row over
  its in-grid columns. A zero padding row adds an exact zero to the float64
  accumulator: weights are finite, and adding +0.0 or -0.0 leaves any value
  but -0.0 unchanged, which an accumulator starting from +0.0 never holds.
  So neither the tile height nor the padding can change a bit;
* blocked sparse GEMMs: a block runs one GEMM per offset over its own
  tuples instead of one over all tuples of the offset, which is exact only
  while a GEMM row does not depend on how many rows the call has. OpenBLAS
  sums full column panels that way, but edge columns and single rows (which
  numpy hands to GEMV) in other orders. So outputs are blocked only when
  c_out is a multiple of `PANEL`, and a one-tuple segment of a longer
  offset runs as a two-row GEMM.

The sparse executor takes two shortcuts, and neither changes a bit:

* one product per output: when a rulebook has as many tuples as outputs
  and hits every output (every deconvolution, a 1x1 submanifold layer),
  each product is final. A block then keeps no accumulator and writes each
  GEMM result p straight into its float32 rows as p + (bias + 0.0),
  rounded once. That equals (+0.0 + p) + bias for every p and bias, signed
  zeros included: adding +0.0 only turns -0.0 into +0.0, a zero on one
  side leaves the sum equal to the other side, and two zeros give +0.0
  either way. The blocks, their GEMM calls and row counts are those of the
  accumulating case;
* slice gathers: a segment whose inputs are consecutive entries reads them
  as a slice of the input features instead of a fancy-index copy. The rows
  hold the same values, so the GEMM computes the same products. That covers
  every unclipped deconvolution run and a large share of the tuples of a
  full sparse layer.

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
    NonFiniteValueError,
    OutOfBoundsError,
    ShapeMismatchError,
    StrideUnsupportedError,
    UnsortedInputError,
)
from .tensor import (
    FEATURE_DTYPE,
    Coord,
    DenseGrid,
    PillarTensor,
    _freeze,
    _proven,
    _require_key_space,
    as_coords_array,
    as_tuples,
    coords_of_keys,
    selection_mask,
    sorted_unique,
    validate_coords,
)
from .util import require_fields


# -- kernels -----------------------------------------------------------------


def _require_channels(c_in: int, c_out: int) -> None:
    if c_in < 1 or c_out < 1:
        raise ShapeMismatchError(f"kernel channels must be >= 1, got {c_in} in, {c_out} out")


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
        _require_channels(self.c_in, self.c_out)
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
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise NonFiniteValueError("kernel weights and bias must be finite")
        object.__setattr__(self, "weights", _freeze(w))
        object.__setattr__(self, "bias", _freeze(b))

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
        return _freeze(np.array(self.offsets, dtype=np.int64).T.copy())

    @staticmethod
    def seeded(
        k_h: int,
        k_w: int,
        c_in: int,
        c_out: int,
        stride: int = 1,
        seed: int = 0,
        bias_scale: float = 0.0,
    ) -> "Kernel":
        """Deterministic pseudorandom kernel (Philox counter-based stream).

        Weights are normal with std 1/sqrt(taps * c_in); bias is normal *
        bias_scale (zero bias by default).
        """
        _require_channels(c_in, c_out)
        rng = np.random.Generator(np.random.Philox(key=seed))
        w = rng.standard_normal((k_h * k_w, c_in, c_out)) * (1.0 / np.sqrt(k_h * k_w * c_in))
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

    Parallel arrays of (input_index, weight_index, output_index), strictly
    ascending in (weight, output): offset-major, so each (weight, output)
    pair holds at most one tuple. `output_rc` is the sorted unique (n, 2)
    output set on the out_height x out_width grid (checked); indices, all
    non-negative, refer into it (checked) and into the input tensor's entry
    order. `output_coords` is its tuple view.
    """

    in_idx: np.ndarray
    w_idx: np.ndarray
    out_idx: np.ndarray
    output_rc: np.ndarray
    out_height: int
    out_width: int

    def __post_init__(self) -> None:
        for name in ("in_idx", "w_idx", "out_idx"):
            a = _freeze(np.ascontiguousarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, a)
        n = self.in_idx.size
        if self.w_idx.size != n or self.out_idx.size != n:
            raise ShapeMismatchError("rulebook arrays must have equal length")
        w, o = self.w_idx, self.out_idx
        if ((w[1:] < w[:-1]) | ((w[1:] == w[:-1]) & (o[1:] <= o[:-1]))).any():
            raise UnsortedInputError("rulebook tuples must ascend strictly in (weight, output)")
        rc = _freeze(as_coords_array(self.output_rc).view())
        if n and (self.in_idx.min() < 0 or w[0] < 0 or o.min() < 0 or o.max() >= rc.shape[0]):
            raise ShapeMismatchError("rulebook indices must be non-negative, outputs in range")
        require_fields(self, ("out_height", "out_width"), ShapeMismatchError)
        if self.out_height <= 0 or self.out_width <= 0:
            raise ShapeMismatchError("out_height and out_width must be positive")
        _require_key_space(self.out_height, self.out_width)
        validate_coords(self.out_height, self.out_width, rc)
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

    def tuples_per_offset(self, taps: int) -> np.ndarray:
        return np.bincount(self.w_idx, minlength=taps).astype(np.int64)

    def same_tuples(self, other: "Rulebook") -> bool:
        """Set equality of tuples: the one tuple order makes it equality of int64 bytes."""
        return (
            self.output_rc.tobytes() == other.output_rc.tobytes()
            and self.in_idx.tobytes() == other.in_idx.tobytes()
            and self.w_idx.tobytes() == other.w_idx.tobytes()
            and self.out_idx.tobytes() == other.out_idx.tobytes()
        )


def _check_join_input(
    rc: np.ndarray, k: Kernel, form: str, in_grid: tuple[int, int] | None,
    out_grid: tuple[int, int], dilate=None,
) -> np.ndarray | None:
    """Check the join's preconditions (see the module docstring) in O(n); return the flags."""
    if form == "stride1":
        if k.stride != 1:
            raise StrideUnsupportedError(f"this rulebook needs stride 1, got {k.stride}")
    elif (k.k_h, k.k_w, k.stride) != (2, 2, 2):
        raise BadKernelShapeError(f"{form} rulebooks need a 2x2 stride-2 kernel, got "
                                  f"{k.k_h}x{k.k_w} stride {k.stride}")
    for grid in (in_grid, out_grid):
        if grid is not None:
            for v in grid:  # numpy integers pass, a bool does not
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise ShapeMismatchError(f"height and width must be integers, got {grid}")
            if min(grid) < 1:
                raise ShapeMismatchError(f"height and width must be positive, got {grid}")
            _require_key_space(*grid)
    r, c = rc[:, 0], rc[:, 1]
    if ((r[1:] < r[:-1]) | ((r[1:] == r[:-1]) & (c[1:] <= c[:-1]))).any():
        raise UnsortedInputError("rulebook builders need strictly row-major sorted coords")
    if in_grid is None:
        if (rc < 0).any():
            raise OutOfBoundsError("active coords must be non-negative")
    # a negative value wraps to a huge unsigned one
    elif ((r.view(np.uint64) >= in_grid[0]) | (c.view(np.uint64) >= in_grid[1])).any():
        raise OutOfBoundsError(f"active coords must lie on the {in_grid[0]}x{in_grid[1]} input grid")
    if isinstance(dilate, np.ndarray) and dilate.dtype == bool:
        if dilate.shape != (rc.shape[0],):
            raise ShapeMismatchError(f"flags shape {dilate.shape} for {rc.shape[0]} entries")
        return dilate
    return None if dilate is None else selection_mask(rc, dilate, *out_grid)


def _kernel_map(
    rc: np.ndarray, k: Kernel, form: str, in_grid: tuple[int, int] | None,
    out_grid: tuple[int, int], dilate=None,
) -> Rulebook:
    """The join every builder runs: input coords x kernel offsets -> output set.

    Without `dilate` the outputs are every in-grid target of every input.
    With per-entry `dilate` flags they are the inputs united with the targets
    of the flagged ones (none for submanifold); targets off the output set
    are dropped. Every (input, offset) pair whose target is an output becomes
    a tuple. All taps x n targets (see the module docstring for each form)
    are formed in one broadcast, bounds-checked per axis so no key wraps into
    the next row, and linearised on the output grid. Output keys are sorted
    and targets are matched to them by binary search. For strictly row-major
    input every offset's target map is strictly monotone (a shift, a
    transpose, or a downsample within one parity class), so scanning the
    (taps, n) hits row by row yields the tuples already sorted by (offset,
    output).
    """
    dilate = _check_join_input(rc, k, form, in_grid, out_grid, dilate)
    out_h, out_w = out_grid
    r, c = rc[:, 0], rc[:, 1]
    dr, dc = k.offset_array[:, :, None]
    if form == "stride1":
        tr, tc = r + dr, c + dc
    elif form == "up":
        tr, tc = 2 * r + dr, 2 * c + dc
    else:
        sr, sc = r - dr, c - dc
        tr, tc = sr >> 1, sc >> 1
    # negative values wrap to huge unsigned ones, so one compare checks both ends
    ok = (tr.view(np.uint64) < out_h) & (tc.view(np.uint64) < out_w)
    if form == "down":
        ok &= ((sr | sc) & 1) == 0
    w, i = ok.nonzero()
    keys = (tr * out_w + tc)[w, i]
    if dilate is None:
        out_keys = sorted_unique(keys)
        o = out_keys.searchsorted(keys)
        out_rc = coords_of_keys(out_keys, out_w)
    else:
        out_keys = r * out_w + c
        out_rc = rc
        if dilate.any():
            out_keys = sorted_unique(np.concatenate((out_keys, keys[dilate[i]])))
            out_rc = coords_of_keys(out_keys, out_w)
        o = out_keys.searchsorted(keys)
        hit = out_keys.take(o, mode="clip") == keys
        i, w, o = i[hit], w[hit], o[hit]
    i, w, o = [_freeze(np.ascontiguousarray(a, dtype=np.int64)) for a in (i, w, o)]
    return _proven(Rulebook, in_idx=i, w_idx=w, out_idx=o, output_rc=_freeze(out_rc.view()),
                   out_height=out_h, out_width=out_w)


def build_rulebook_subm(active: Sequence[Coord], k: Kernel, bounds: tuple[int, int]) -> Rulebook:
    """Submanifold rulebook: outputs exactly the active set.

    A tuple (i, w, o) exists iff both ends are active and
    coord(o) - coord(i) = offset(w). Bounds never affect the tuple set; they
    record the output grid dims, and every active coord must lie inside them.
    """
    return _kernel_map(as_coords_array(active), k, "stride1", bounds, bounds, ())


def build_rulebook_sparse(
    active: Sequence[Coord], k: Kernel, out_bounds: tuple[int, int]
) -> Rulebook:
    """Dilating sparse rulebook: outputs everywhere any input reaches.

    Stride 1 only, with same padding: the output grid is the input grid, so
    the active coords must lie on `out_bounds`, and targets landing outside
    it are dropped. The strided form is `build_rulebook_downsample2x2`.
    """
    return _kernel_map(as_coords_array(active), k, "stride1", out_bounds, out_bounds)


def build_rulebook_downsample2x2(
    active: Sequence[Coord], k: Kernel, in_bounds: tuple[int, int]
) -> Rulebook:
    """2x2 stride-2 downsampling convolution.

    Output grid is ceil(h/2) x ceil(w/2); each input, which must lie on the
    h x w input grid, contributes one tuple at (r // 2, c // 2) with weight
    offset (r % 2, c % 2).
    """
    h, w = in_bounds
    return _kernel_map(as_coords_array(active), k, "down", in_bounds, ((h + 1) // 2, (w + 1) // 2))


def build_rulebook_deconv2x2(
    active: Sequence[Coord], k: Kernel, out_bounds: tuple[int, int]
) -> Rulebook:
    """2x2 stride-2 transposed convolution.

    Input (r, c), which must be non-negative, produces outputs
    (2r + dr, 2c + dc) for each weight offset, clipped to `out_bounds`.
    """
    return _kernel_map(as_coords_array(active), k, "up", None, out_bounds)


def build_rulebook_selective(
    active: Sequence[Coord],
    selected: Iterable[Coord] | np.ndarray,
    k: Kernel,
    out_bounds: tuple[int, int],
) -> Rulebook:
    """Selectively dilated rulebook.

    Output set = active union the clipped kernel neighborhoods of the
    selected pillars, given as (row, col) pairs or as per-entry bool flags.
    Tuples pair every active input with every output in kernel reach, so
    outputs created by a neighbor's dilation still receive contributions
    from non-selected inputs.
    """
    return _kernel_map(as_coords_array(active), k, "stride1", out_bounds, out_bounds, selected)


# -- execution ---------------------------------------------------------------

# Float64 accumulator bytes per dense tile or sparse block, about one core's
# L2 cache; a constant, so no caller can make tiling part of a result.
ACC_BYTES = 2 << 20
# BLAS column-panel width: sparse blocking is exact for c_out a multiple of it
PANEL = 8


def _tile_len(row_values: int) -> int:
    """Rows of `row_values` float64s that fit in ACC_BYTES, at least one."""
    return max(1, ACC_BYTES // (8 * max(1, row_values)))


def execute_rulebook(rb: Rulebook, t: PillarTensor, k: Kernel) -> PillarTensor:
    """Run gather-multiply-scatter over the rulebook.

    Accumulates in float64, one block of outputs at a time (see the module
    docstring): a block runs one GEMM per offset over its slice of the
    offset-major tuples, so every output sums its offsets in ascending
    order, then adds bias and rounds to float32. With one product per
    output (as many tuples as outputs, every output hit) the same GEMMs run
    but no accumulator is kept: each product p is written straight to the
    float32 output as p + (bias + 0.0), which equals (+0.0 + p) + bias bit
    for bit. A segment whose inputs are consecutive entries reads them as a
    slice rather than gathering them. Output tensor lives on the rulebook's
    output grid.
    """
    if t.channels != k.c_in:
        raise ShapeMismatchError(f"input has {t.channels} channels, kernel wants {k.c_in}")
    if rb.n_tuples:
        if int(rb.in_idx.max()) >= t.n_active:
            raise ShapeMismatchError("rulebook input index out of range for this tensor")
        if int(rb.w_idx.max()) >= k.taps:
            raise ShapeMismatchError("rulebook weight index out of range for this kernel")
    n_out, taps = rb.n_outputs, k.taps
    block = _tile_len(k.c_out) if k.c_out % PANEL == 0 else max(1, n_out)
    n_blocks = -(-n_out // block)
    feats = t.features.astype(np.float64)
    weights = k.weights.astype(np.float64)
    bias = k.bias.astype(np.float64)
    # Offset-major tuples make each (offset, block) run one slice, in output
    # order; a plain fancy-index add equals np.add.at because an offset adds
    # at most once to any output.
    runs = np.bincount(rb.w_idx * n_blocks + rb.out_idx // block, minlength=taps * n_blocks)
    ends = runs.cumsum()
    starts = ends - runs
    # a run is read as a slice of feats when no tuple after its first starts a
    # new step-one run of in_idx
    breaks = np.flatnonzero(np.diff(rb.in_idx) != 1) + 1
    sliced = (breaks.searchsorted(starts, "right") == breaks.searchsorted(ends - 1, "right")).tolist()
    starts, ends = starts.tolist(), ends.tolist()
    per_offset = runs.reshape(taps, n_blocks).sum(axis=1).tolist()
    # one product per output (see the module docstring): the accumulator has
    # no rows, so a block's fill, bias pass and copy below touch nothing
    single = rb.n_tuples == n_out and np.bincount(rb.out_idx, minlength=n_out).all()
    bias0 = bias + 0.0
    out = np.empty((n_out, k.c_out), dtype=FEATURE_DTYPE)
    acc = np.empty((0 if single else min(block, n_out), k.c_out))
    for b, lo in enumerate(range(0, n_out, block)):
        a = acc[: min(block, n_out - lo)]
        a.fill(0.0)
        for w in range(taps):
            j = w * n_blocks + b
            start, end = starts[j], ends[j]
            if end == start:
                continue
            if sliced[j]:
                i0 = int(rb.in_idx[start])
                x = feats[i0 : i0 + end - start]
            else:
                x = feats[rb.in_idx[start:end]]
            if end - start == 1 < per_offset[w]:
                p = (x.repeat(2, axis=0) @ weights[w])[:1]
            else:
                p = x @ weights[w]
            if single:
                p += bias0
                out[rb.out_idx[start:end]] = p
            else:
                a[rb.out_idx[start:end] - lo] += p
        a += bias
        out[lo : lo + a.shape[0]] = a
    return _proven(PillarTensor, height=rb.out_height, width=rb.out_width,
                   channels=out.shape[1], rc=rb.output_rc, features=_freeze(out))


def flops_of_rulebook(rb: Rulebook, c_in: int, c_out: int) -> int:
    """flops = 2 * tuples * c_in * c_out + outputs * c_out (bias adds)."""
    return 2 * rb.n_tuples * c_in * c_out + rb.n_outputs * c_out


# -- dense oracles -----------------------------------------------------------


def _one_gemm(c_out: int, row_len: int) -> bool:
    """Whether one GEMM per (tile, tap) gives the bits of per-row calls of `row_len` rows.

    A GEMM row does not depend on how many rows the call has once c_out is a
    multiple of `PANEL`; a one-row call runs as a GEMV, which sums in another
    order (see the module docstring).
    """
    return c_out % PANEL == 0 and row_len >= 2


def dense_conv_oracle(g: DenseGrid, k: Kernel) -> DenseGrid:
    """Dense convolution with the exact conventions of the sparse builders.

    Stride 1: same padding, out[o] = sum_w in[o - offset(w)] @ W[w] + bias.
    Stride 2 (2x2): out[(R, C)] = sum_{dr,dc} in[(2R+dr, 2C+dc)] @ W + bias
    on a ceil(h/2) x ceil(w/2) grid. No sparsity shortcuts: every output
    position is computed, one tile of output rows at a time, with one GEMM
    per (tile, tap) where that is exact and one per output row otherwise.
    """
    if g.channels != k.c_in:
        raise ShapeMismatchError(f"grid has {g.channels} channels, kernel wants {k.c_in}")
    h, w = g.height, g.width
    step = k.stride
    out_h, out_w = -(-h // step), -(-w // step)
    # Flat float64 inputs in which every tap of output (R, C) of a tile sits
    # `shift` rows after the accumulator's row (R - r0) * aw + C. Stride 1:
    # the tile's input rows padded by ph rows and pw columns of zeros, aw
    # columns wide, shift = (ph - dr) * aw + pw - dc. Stride 2: one
    # (rows, out_w) block per tap, zero-filled past an odd edge, shift 0.
    ph, pw = (k.k_h // 2, k.k_w // 2) if step == 1 else (0, 0)
    aw = w + 2 * pw if step == 1 else out_w
    weights = k.weights.astype(np.float64)
    bias = k.bias.astype(np.float64)
    out = np.empty((out_h, out_w, k.c_out), dtype=FEATURE_DTYPE)
    rows = min(max(1, out_h), _tile_len(aw * k.c_out))
    acc = np.empty((rows, aw, k.c_out))
    buf = np.empty((rows * aw, k.c_out))
    x = np.zeros((rows + 2 * ph, aw, k.c_in) if step == 1 else (k.taps, rows, aw, k.c_in))
    for r0 in range(0, out_h, rows):
        r1 = min(out_h, r0 + rows)
        n = r1 - r0
        if step == 1:
            xs = x[: n + 2 * ph]
            lo, a, b = r0 - ph, max(0, r0 - ph), min(h, r1 + ph)
            xs[: a - lo, pw : pw + w] = 0.0
            xs[a - lo : b - lo, pw : pw + w] = g.data[a:b]
            xs[b - lo :, pw : pw + w] = 0.0
            src = xs.reshape(-1, k.c_in)
        tile = acc[:n]
        tile.fill(0.0)
        flat = tile.reshape(-1, k.c_out)
        for wi, (dr, dc) in enumerate(k.offsets):
            if step == 1:
                shift = (ph - dr) * aw + pw - dc
                # output rows R with R - dr inside the grid, clipped to the tile
                t0, t1 = max(r0, dr), min(r1, h + dr)
                c0, c1 = max(0, dc), min(w, w + dc)
            else:
                xt = x[wi, :n]
                t0, t1 = r0, r0 + len(range(2 * r0 + dr, min(h, 2 * r1), 2))
                c0, c1 = 0, len(range(dc, w, 2))
                xt[: t1 - t0, :c1] = g.data[2 * r0 + dr : 2 * r1 : 2, dc::2]
                xt[t1 - t0 :] = 0.0
                src, shift = xt.reshape(-1, k.c_in), 0
            if _one_gemm(k.c_out, c1 - c0):
                spans = [(0, (n - 1) * aw + out_w)]
            else:  # the row calls: each in-grid output row over its in-grid columns
                spans = [((r - r0) * aw + c0, (r - r0) * aw + c1) for r in range(t0, t1) if c0 < c1]
            for s0, s1 in spans:
                prod = buf[: s1 - s0]
                np.matmul(src[s0 + shift : s1 + shift], weights[wi], out=prod)
                flat[s0:s1] += prod
        np.add(tile[:, :out_w], bias, out=out[r0:r1])
    return DenseGrid(out)


def dense_deconv_oracle(g: DenseGrid, k: Kernel, out_bounds: tuple[int, int] | None = None) -> DenseGrid:
    """Dense 2x2 stride-2 transposed convolution (default output 2h x 2w).

    out[(2r + dr, 2c + dc)] = (+0.0 + in[(r, c)] @ W[(dr, dc)]) + bias, clipped
    to `out_bounds`; positions no input reaches hold +0.0 + bias. Runs one
    tile of input rows at a time, with one GEMM per (tile, tap) where that is
    exact and one per input row otherwise; each result p goes straight to the
    tile's output rows 2r + dr, columns 2c + dc (a strided view) as
    p + (bias + 0.0), rounded once.
    """
    if g.channels != k.c_in:
        raise ShapeMismatchError(f"grid has {g.channels} channels, kernel wants {k.c_in}")
    if (k.k_h, k.k_w, k.stride) != (2, 2, 2):
        raise BadKernelShapeError("deconv oracle needs a 2x2 stride-2 kernel")
    out_h, out_w = out_bounds or (2 * g.height, 2 * g.width)
    weights = k.weights.astype(np.float64)
    bias0 = k.bias.astype(np.float64) + 0.0
    out = np.empty((out_h, out_w, k.c_out), dtype=FEATURE_DTYPE)
    if out_h > 2 * g.height or out_w > 2 * g.width:
        out[...] = bias0.astype(FEATURE_DTYPE)
    # input rows and columns that reach the output grid
    in_h, in_w = min(g.height, (out_h + 1) // 2), min(g.width, (out_w + 1) // 2)
    rows = min(max(1, in_h), _tile_len(in_w * k.c_out))
    x = np.empty((rows, in_w, k.c_in))
    buf = np.empty((rows * in_w, k.c_out))
    for r0 in range(0, in_h, rows):
        xs = x[: min(in_h, r0 + rows) - r0]
        xs[...] = g.data[r0 : r0 + xs.shape[0], :in_w]
        tile = out[2 * r0 : 2 * (r0 + xs.shape[0])]
        for wi, (dr, dc) in enumerate(k.offsets):
            dst = tile[dr::2, dc::2]
            nr, nc = min(xs.shape[0], dst.shape[0]), min(in_w, dst.shape[1])
            # (first row, end row, columns) of each GEMM over the tile's inputs
            if _one_gemm(k.c_out, nc):
                spans = [(0, nr, in_w)]
            else:  # the row calls
                spans = [(r, r + 1, nc) for r in range(nr)]
            for ra, rb, cols in spans:
                prod = buf[: (rb - ra) * cols]
                np.matmul(xs[ra:rb, :cols].reshape(-1, k.c_in), weights[wi], out=prod)
                np.add(prod.reshape(rb - ra, cols, k.c_out)[:, :nc], bias0, out=dst[ra:rb, :nc])
    return DenseGrid(out)
