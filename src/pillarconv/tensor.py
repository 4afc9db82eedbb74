"""Sparse pillar feature maps on a 2D grid.

A pillar map stores only its active cells: an (n, 2) int64 array of
(row, col) coordinates, each paired with a fixed-length feature vector.
Activeness is membership, not value: an entry whose features are all zero is
still active, and stays active through elementwise ops. The dense mirror of a
map is a row-major (height, width, channels) array with zeros at inactive
cells.

Entries are kept sorted by (row, col) ascending and coordinates are unique.
Each invariant is checked once, where a value enters the program: the
public constructor validates both properties of caller input (`from_entries`
sorts for you, `read_plt` checks the file first). Code that derives a map
from values already checked builds it with `_proven` and skips the
re-check: `with_features`, `concat_channels`, the sparse executor's output
on a rulebook's output set, a dense layer's gathered cells and the scene
generator. Every set operation works on linearised keys `row * width +
col`: on one grid, key order is row-major order, so sorted unique keys are
sorted unique coordinates. `PillarTensor.coords` is a read-only
tuple-of-tuples view of the array, built on first use for callers that
want Python coordinates; the convolution path never builds it.

Text form (PLT v1)::

    PLT v1 <height> <width> <channels> <n>
    <row> <col> <c0> <c1> ... <c{channels-1}>
    ...

one line per entry, values in scientific notation with 9 significant digits
(exact float32 round-trip). The reader rejects unsorted or duplicate
coordinates rather than repairing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import (
    BadVectorLengthError,
    DuplicateCoordError,
    FormatError,
    OutOfBoundsError,
    SelectionNotSubsetError,
    ShapeMismatchError,
)
from .util import FLOAT_FORMAT, require_fields

Coord = tuple[int, int]

FEATURE_DTYPE = np.float32

# Keys row * width + col are int64, so a grid holds at most this many cells.
_MAX_CELLS = np.iinfo(np.int64).max


def _require_key_space(height: int, width: int) -> None:
    if int(height) * int(width) > _MAX_CELLS:
        raise ShapeMismatchError(f"{height}x{width} grid exceeds the int64 key space")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _proven(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, without `__post_init__`.

    Only for values built from values already checked: the caller has
    established everything the public constructor would check, and passes
    every field as that constructor would store it (read-only arrays of the
    stored dtype and shape, sizes that are integers).
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def as_coords_array(coords) -> np.ndarray:
    """Any (row, col) collection as an (n, 2) int64 array; arrays pass through."""
    if not (isinstance(coords, np.ndarray) and coords.dtype == np.int64 and coords.ndim == 2):
        if not isinstance(coords, (np.ndarray, list, tuple)):
            coords = list(coords)  # sets, generators, mapping keys
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ShapeMismatchError(f"coords must be (n, 2), got {coords.shape}")
    return coords


def coords_of_keys(keys: np.ndarray, width: int) -> np.ndarray:
    """Inverse of the linearisation: keys on a `width`-column grid to (n, 2) rows/cols."""
    rc = np.empty((keys.size, 2), dtype=np.int64)
    np.divmod(keys, width, out=(rc[:, 0], rc[:, 1]))
    return rc


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """np.unique by sorting: on large key sets far faster than numpy's hashing path."""
    s = keys.copy()
    s.sort()
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def as_tuples(rc: np.ndarray) -> tuple[Coord, ...]:
    return tuple(map(tuple, rc.tolist()))


def selection_mask(rc: np.ndarray, selected, height: int, width: int) -> np.ndarray:
    """Per-entry flags marking which rows of `rc`, on a height x width grid, are in `selected`.

    Raises SelectionNotSubsetError if `selected` names a coordinate not in
    `rc`, off-grid ones included.
    """
    sel = as_coords_array(selected)
    if sel.size == 0:
        return np.zeros(rc.shape[0], dtype=bool)
    on_grid = (sel[:, 0].view(np.uint64) < height) & (sel[:, 1].view(np.uint64) < width)
    want = sorted_unique(sel[:, 0] * width + sel[:, 1])
    keys = rc[:, 0] * width + rc[:, 1]
    flags = want.take(want.searchsorted(keys), mode="clip") == keys
    if not on_grid.all() or np.count_nonzero(flags) != want.size:
        extra = set(as_tuples(sel)) - set(as_tuples(rc))
        raise SelectionNotSubsetError(f"selected coords not active: {sorted(extra)[:4]}")
    return flags


@dataclass(frozen=True)
class DenseGrid:
    """Dense (height, width, channels) float32 array, row-major."""

    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != 3:
            raise ShapeMismatchError(f"dense grid must be 3-d, got shape {self.data.shape}")
        d = np.ascontiguousarray(self.data, dtype=FEATURE_DTYPE)
        object.__setattr__(self, "data", _freeze(d))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class PillarTensor:
    """Sparse pillar map: sorted unique (n, 2) coords plus an (n, channels) feature array.

    `rc` accepts any (row, col) collection and is stored as a read-only
    int64 array.
    """

    height: int
    width: int
    channels: int
    rc: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        require_fields(self, ("height", "width", "channels"), ShapeMismatchError)
        if self.height <= 0 or self.width <= 0 or self.channels <= 0:
            raise ShapeMismatchError("height, width and channels must be positive")
        _require_key_space(self.height, self.width)
        rc = _freeze(as_coords_array(self.rc).view())
        feats = np.ascontiguousarray(self.features, dtype=FEATURE_DTYPE)
        if feats.shape != (rc.shape[0], self.channels):
            raise BadVectorLengthError(
                f"feature array shape {feats.shape} does not match "
                f"{rc.shape[0]} entries x {self.channels} channels"
            )
        validate_coords(self.height, self.width, rc)
        object.__setattr__(self, "rc", rc)
        object.__setattr__(self, "features", _freeze(feats))

    # -- basic queries ------------------------------------------------------

    @property
    def n_active(self) -> int:
        return self.rc.shape[0]

    def density(self) -> float:
        return self.n_active / (self.height * self.width)

    @cached_property
    def keys(self) -> np.ndarray:
        """Linearised coordinates row * width + col, ascending."""
        return _freeze(self.rc[:, 0] * self.width + self.rc[:, 1])

    @cached_property
    def coords(self) -> tuple[Coord, ...]:
        """The coordinates as a tuple of (row, col) tuples."""
        return as_tuples(self.rc)

    def with_features(self, features: np.ndarray) -> "PillarTensor":
        """Same active set, new feature values (shape must match)."""
        feats = np.ascontiguousarray(features, dtype=FEATURE_DTYPE)
        if feats.shape != (self.n_active, self.channels):
            raise BadVectorLengthError(
                f"feature array shape {feats.shape} does not match "
                f"{self.n_active} entries x {self.channels} channels"
            )
        return _proven(PillarTensor, height=self.height, width=self.width,
                       channels=self.channels, rc=self.rc, features=_freeze(feats))

    # -- dense conversion ---------------------------------------------------

    def to_dense(self) -> DenseGrid:
        grid = np.zeros((self.height, self.width, self.channels), dtype=FEATURE_DTYPE)
        grid[self.rc[:, 0], self.rc[:, 1]] = self.features
        return DenseGrid(grid)


def _first_fault(rc: np.ndarray, height: int, width: int) -> tuple[int, str] | None:
    """(index, "outside" | "duplicate" | "unsorted") of the first bad entry, or None.

    An entry is bad if it lies off the grid or does not step past the one
    before it in row-major order. Every key before the first fault is in
    bounds, so comparing keys there compares coordinates.
    """
    rows, cols = rc[:, 0], rc[:, 1]
    # negative values wrap to huge unsigned ones, so one compare checks both ends
    outside = (rows.view(np.uint64) >= height) | (cols.view(np.uint64) >= width)
    steps = np.diff(rows * width + cols)
    bad = outside.copy()
    bad[1:] |= steps <= 0
    if not bad.any():
        return None
    i = int(bad.argmax())
    return i, "outside" if outside[i] else "duplicate" if steps[i - 1] == 0 else "unsorted"


def validate_coords(height: int, width: int, coords) -> None:
    """Assert coords are in bounds, unique, and sorted row-major. O(n).

    Reports the first faulty entry in order, as a scan would.
    """
    rc = as_coords_array(coords)
    fault = _first_fault(rc, height, width)
    if fault is None:
        return
    i, kind = fault
    c = tuple(rc[i].tolist())
    if kind == "outside":
        raise OutOfBoundsError(f"coordinate {c} outside {height}x{width} grid")
    if kind == "duplicate":
        raise DuplicateCoordError(f"duplicate coordinate {c}")
    raise ShapeMismatchError(f"coordinates not sorted: {c} after {tuple(rc[i - 1].tolist())}")


def from_entries(
    height: int,
    width: int,
    channels: int,
    entries: Iterable[tuple[Coord, Sequence[float]]],
) -> PillarTensor:
    """Build a tensor from (coord, vector) pairs in any order.

    Entries are sorted row-major. Raises BadVectorLengthError on a vector of
    the wrong length, and the constructor's OutOfBoundsError or
    DuplicateCoordError on bad coordinates.
    """
    items = sorted(entries, key=lambda e: e[0])
    for coord, vec in items:
        if len(vec) != channels:
            raise BadVectorLengthError(
                f"entry at {coord} has {len(vec)} values, expected {channels}"
            )
    coords = [coord for coord, _ in items]
    feats = np.array([vec for _, vec in items], dtype=FEATURE_DTYPE)
    feats = feats.reshape(len(items), channels)
    return PillarTensor(height, width, channels, coords, feats)


def from_dense(grid: DenseGrid) -> PillarTensor:
    """Active set = cells with at least one nonzero channel."""
    mask = np.any(grid.data != 0, axis=2)
    return PillarTensor(grid.height, grid.width, grid.channels, np.argwhere(mask), grid.data[mask])


def concat_channels(tensors: Sequence[PillarTensor]) -> PillarTensor:
    """Channel-wise concatenation over the union of active sets.

    All tensors must share grid dims. Where a tensor has no entry for a
    coordinate in the union, its channel block is zero-filled.
    """
    if not tensors:
        raise ShapeMismatchError("concat_channels needs at least one tensor")
    h, w = tensors[0].height, tensors[0].width
    for t in tensors[1:]:
        if (t.height, t.width) != (h, w):
            raise ShapeMismatchError(
                f"grid mismatch in concat: {(t.height, t.width)} vs {(h, w)}"
            )
    union = sorted_unique(np.concatenate([t.keys for t in tensors]))
    total_c = sum(t.channels for t in tensors)
    out = np.zeros((union.size, total_c), dtype=FEATURE_DTYPE)
    offset = 0
    for t in tensors:
        out[union.searchsorted(t.keys), offset : offset + t.channels] = t.features
        offset += t.channels
    return _proven(PillarTensor, height=h, width=w, channels=total_c,
                   rc=_freeze(coords_of_keys(union, w)), features=_freeze(out))


# -- PLT v1 text I/O --------------------------------------------------------

PLT_MAGIC = "PLT v1"


def write_plt(t: PillarTensor, f: TextIO) -> None:
    f.write(f"{PLT_MAGIC} {t.height} {t.width} {t.channels} {t.n_active}\n")
    row = " ".join(["{} {}"] + [FLOAT_FORMAT] * t.channels) + "\n"
    for rc, vec in zip(t.rc.tolist(), t.features.astype(np.float64).tolist()):
        f.write(row.format(*rc, *vec))


def save_plt(t: PillarTensor, path: str) -> None:
    with open(path, "w") as f:
        write_plt(t, f)


def _parse_rows(lines: list[str], c: int) -> tuple[np.ndarray, FormatError | None]:
    """Parse entry lines into an (m, 2 + c) float64 table.

    Returns the rows before the first malformed line and that line's error
    (None if every line parses), so callers can report faults in file order.
    Well-formed input is parsed in one call; only a rejected one is re-read
    line by line to find the fault.
    """
    if lines:
        try:
            table = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
            if table.shape == (len(lines), 2 + c):
                return table, None
        except ValueError:
            pass
    rows: list[np.ndarray] = []
    err = None
    for i, line in enumerate(lines):
        tok = line.split()
        if len(tok) != 2 + c:
            err = FormatError(f"PLT entry {i} has {len(tok) - 2} values, expected {c}")
            break
        try:
            rows.append(np.array(tok, dtype=np.float64))
        except ValueError:
            err = FormatError(f"PLT entry {i} has a non-numeric value: {line.strip()[:60]!r}")
            break
    return np.array(rows, dtype=np.float64).reshape(len(rows), 2 + c), err


def read_plt(f: TextIO) -> PillarTensor:
    """Parse PLT v1. Rejects unsorted or duplicate coordinates.

    Faults are reported for the first offending entry in file order.
    """
    header = f.readline()
    parts = header.split()
    if len(parts) != 6 or " ".join(parts[:2]) != PLT_MAGIC:
        raise FormatError(f"bad PLT header: {header!r}")
    try:
        h, w, c, n = (int(x) for x in parts[2:])
    except ValueError as e:
        raise FormatError(f"bad PLT header numbers: {header!r}") from e
    if c < 0 or n < 0:
        raise FormatError(f"bad PLT header: negative count in {header!r}")
    # numpy sizes, clips and compares with these; beyond int64 it raises raw errors
    if max(abs(h), abs(w), c, n) > np.iinfo(np.int64).max:
        raise FormatError(f"bad PLT header: count beyond the int64 range in {header!r}")
    if h * w > _MAX_CELLS:
        raise FormatError(f"bad PLT header: {h}x{w} grid exceeds the int64 key space")
    lines = f.read().split("\n")
    n_lines = len(lines) - (lines[-1] == "")  # a final newline ends the last line
    body, rest = lines[: min(n, n_lines)], lines[n:]
    table, parse_error = _parse_rows(body, c)
    pos = table[:, :2]
    integral = (np.isfinite(pos) & (pos == np.floor(pos))).all(axis=1)
    # off-grid and non-integer positions become -1 so the cast cannot overflow
    rc = np.where(integral[:, None], np.clip(pos, -1, max(h, w)), -1).astype(np.int64)
    fault = _first_fault(rc, h, w)
    if fault is not None:
        i, kind = fault
        if not integral[i]:
            raise FormatError(f"PLT entry {i} has a non-integer coordinate: {body[i].split()[:2]}")
        coord = (int(pos[i, 0]), int(pos[i, 1]))
        if kind == "outside":
            raise FormatError(f"PLT entry {i} coordinate {coord} outside {h}x{w} grid")
        prev = tuple(rc[i - 1].tolist())
        raise FormatError(f"PLT entry {i} is {kind}: {coord} after {prev}")
    if parse_error is not None:
        raise parse_error
    if n_lines < n:
        raise FormatError(f"PLT truncated: expected {n} entries, got {n_lines}")
    extra = "\n".join(rest).strip()
    if extra:
        raise FormatError(f"PLT has content after {n} entries: {extra[:40]!r}")
    return PillarTensor(h, w, c, rc, table[:, 2:])


def load_plt(path: str) -> PillarTensor:
    with open(path) as f:
        return read_plt(f)
