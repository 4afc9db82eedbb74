"""Cycle model for a systolic-array accelerator with a streaming rule generator.

The rule generator consumes coordinates row-band by row-band. For a 3x3
stride-1 layer, candidate output row R draws contributors from input rows
R-1, R, R+1. Up to four pipelined stages process each band:

  1. alignment       streams every contributing entry into the band
  2. row merge       collapses contributors to distinct columns
  3. dilation check  ORs the per-entry dilation flags of each merged column
  4. column dilation expands flagged columns by one and unions the centers

Alignment runs for every layer form. The stage table `_STAGES` says which
merged-column stages each form runs: all three for 3x3 layers (the dilation
support SPADE+ adds), row merge alone for 1x1 and 2x2 downsample layers, row
merge and column dilation for 2x2 deconv layers. A band costs
max(contributions x lat_align, merged columns x the slowest running stage's
latency); bands overlap, so mapping time is the sum of band costs.

GEMM time tiles each weight offset's gathered rows onto an
array_rows x array_cols systolic array: ceil(n_w / rows) * ceil(c_out / cols)
passes of c_in cycles each. The dense baseline runs every grid position
through the same array as one long pass plus a rows+cols pipeline fill.
Feature working sets beyond SRAM capacity stall one cycle per spilled
64-value line. At the network level, rule generation for a layer overlaps
the previous layer's GEMM; stalls never overlap.

Flops convention in reports: 2 * tuples * c_in * c_out + outputs * c_out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conv import Kernel, Rulebook, _check_join_input
from .errors import BadKernelShapeError, ShapeMismatchError, SpecMismatchError
from .tensor import Coord, as_coords_array, sorted_unique
from .util import ceil_div

BYTES_PER_VALUE = 4
SPILL_LINE_VALUES = 64


@dataclass(frozen=True)
class AcceleratorConfig:
    array_rows: int = 64
    array_cols: int = 64
    sram_kbytes: int = 654
    lat_align: int = 1
    lat_merge: int = 1
    lat_dilate: int = 1
    lat_expand: int = 1

    def __post_init__(self) -> None:
        for name in ("array_rows", "array_cols", "lat_align", "lat_merge", "lat_dilate",
                     "lat_expand"):
            if getattr(self, name) < 1:
                raise SpecMismatchError(f"{name} {getattr(self, name)} must be >= 1")
        if self.sram_kbytes < 0:
            raise SpecMismatchError(f"sram_kbytes {self.sram_kbytes} must be >= 0")

    @property
    def sram_values(self) -> int:
        return self.sram_kbytes * 1024 // BYTES_PER_VALUE


@dataclass(frozen=True)
class MappingStats:
    """Streaming rule-generation work, summed over row bands."""

    bands: int
    alignment: int
    row_merge: int
    dilation_check: int
    column_dilation: int
    cycles: int  # sum over bands of the slowest stage


ZERO_MAPPING = MappingStats(0, 0, 0, 0, 0, 0)


def generate_rules_pipelined(
    height: int,
    width: int,
    coords,
    flags,
    k: Kernel,
    cfg: AcceleratorConfig | None = None,
) -> tuple[Rulebook, MappingStats]:
    """Streaming selective-dilation rule generation for a 3x3 stride-1 kernel.

    `coords` is the active set, strictly row-major on the height x width
    grid (checked as every builder checks it), and `flags` marks the entries
    whose neighborhoods dilate. Flags all False reproduces the submanifold
    rulebook, all True the full sparse one. Returns the rulebook (tuples
    offset-major, as every builder emits them) and the mapping-stage
    statistics.
    """
    if (k.k_h, k.k_w, k.stride) != (3, 3, 1):
        raise BadKernelShapeError("pipelined rule generation needs a 3x3 stride-1 kernel")
    cfg = cfg or AcceleratorConfig()
    pts = as_coords_array(coords)
    grid = (height, width)
    fl = _check_join_input(pts, k, "stride1", grid, grid, np.asarray(flags, dtype=bool))
    rows = pts[:, 0]
    cols = pts[:, 1]
    row_values = np.unique(rows)
    row_start = np.searchsorted(rows, row_values, side="left")
    row_end = np.searchsorted(rows, row_values, side="right")
    row_slice = {int(r): (int(s), int(e)) for r, s, e in zip(row_values, row_start, row_end)}

    cand = sorted(
        {int(r) + d for r in row_values for d in (-1, 0, 1) if 0 <= int(r) + d < height}
    )
    triples: list[tuple[int, int, int]] = []
    out_coords: list[Coord] = []
    align_total = merge_total = cycles = 0
    for band_row in cand:
        # merged columns of this band, and which entries feed each
        merged: dict[int, list[tuple[int, int]]] = {}
        center: set[int] = set()
        dilate: set[int] = set()
        n_contrib = 0
        for roff in (-1, 0, 1):
            r_in = band_row + roff
            if r_in not in row_slice:
                continue
            s, e = row_slice[r_in]
            n_contrib += e - s
            for idx in range(s, e):
                c = int(cols[idx])
                merged.setdefault(c, []).append((idx, roff))
                if roff == 0:
                    center.add(c)
                if fl[idx]:
                    dilate.add(c)
        out_cols: set[int] = set(center)
        for m in dilate:
            for dc in (-1, 0, 1):
                tc = m + dc
                if 0 <= tc < width:
                    out_cols.add(tc)
        col_index = {tc: len(out_coords) + i for i, tc in enumerate(sorted(out_cols))}
        out_coords.extend((band_row, tc) for tc in sorted(out_cols))
        for m, entries in merged.items():
            for dc in (-1, 0, 1):
                tc = m + dc
                oi = col_index.get(tc)
                if oi is None:
                    continue
                for idx, roff in entries:
                    # offset = output - input, so dr = -roff
                    w = (1 - roff) * 3 + (dc + 1)
                    triples.append((idx, w, oi))
        n_merged = len(merged)
        align_total += n_contrib
        merge_total += n_merged
        cycles += max(
            n_contrib * cfg.lat_align,
            n_merged * cfg.lat_merge,
            n_merged * cfg.lat_dilate,
            n_merged * cfg.lat_expand,
        )
    stats = MappingStats(len(cand), align_total, merge_total, merge_total, merge_total, cycles)
    t = np.array(triples, dtype=np.int64).reshape(-1, 3)
    t = t[np.lexsort((t[:, 2], t[:, 1]))]
    return Rulebook(t[:, 0], t[:, 1], t[:, 2], out_coords, height, width), stats


# Merged-column stages each layer form runs: row merge, dilation check, column dilation.
_STAGES = {"3x3": (1, 1, 1), "1x1": (1, 0, 0), "downsample": (1, 0, 0), "deconv": (1, 0, 1)}


def _mapping_stats(form: str, band, col, cfg: AcceleratorConfig | None) -> MappingStats:
    """Mapping-stage work of a stream of contributions through `form`'s stages.

    Entry j of `band`/`col` is one contribution streamed into row band
    band[j] at column col[j]. Alignment touches every contribution, each
    running merged-column stage every distinct (band, column) once.
    """
    if band.size == 0:
        return ZERO_MAPPING
    cfg = cfg or AcceleratorConfig()
    runs = _STAGES[form]
    lat = max(x for x, on in zip((cfg.lat_merge, cfg.lat_dilate, cfg.lat_expand), runs) if on)
    span = int(col.max()) + 1
    key = band * span + col
    key.sort()
    n_contrib = _run_lengths(key // span)
    n_merged = _run_lengths(sorted_unique(key) // span)
    cycles = np.maximum(n_contrib * cfg.lat_align, n_merged * lat).sum()
    merged = int(n_merged.sum())
    return MappingStats(n_contrib.size, band.size, *(merged * on for on in runs), int(cycles))


def _run_lengths(values: np.ndarray) -> np.ndarray:
    """Lengths of the runs of equal values in a sorted array."""
    edges = np.flatnonzero(values[1:] != values[:-1]) + 1
    return np.diff(edges, prepend=0, append=values.size)


def mapping_stats_3x3(height: int, coords, cfg: AcceleratorConfig | None = None) -> MappingStats:
    """Mapping-stage statistics of `generate_rules_pipelined`, without the rulebook.

    Band R (0 <= R < height) streams the entries of input rows R-1, R, R+1.
    Dilation flags change which outputs a band emits, never its stage work,
    so they are not needed here.
    """
    pts = as_coords_array(coords)
    band = (pts[:, :1] + np.array([-1, 0, 1])).ravel()
    keep = (band >= 0) & (band < height)
    return _mapping_stats("3x3", band[keep], np.repeat(pts[:, 1], 3)[keep], cfg)


def mapping_stats_strided(coords, kind: str, cfg: AcceleratorConfig | None = None) -> MappingStats:
    """Alignment and merge work for 2x2 stride-2 layers.

    Downsampling bands are output rows fed by two input rows; transposed
    bands are the two output rows each input row feeds, with every merged
    column expanding to two output columns (counted as column dilation).
    """
    pts = as_coords_array(coords)
    if kind == "downsample":
        band, col = pts[:, 0] // 2, pts[:, 1] // 2
    elif kind == "deconv":
        band, col = (pts[:, :1] * 2 + np.array([0, 1])).ravel(), np.repeat(pts[:, 1], 2)
    else:
        raise ShapeMismatchError(f"unknown strided kind {kind!r}")
    return _mapping_stats(kind, band, col, cfg)


# -- cycle accounting ----------------------------------------------------------


def gemm_cycles_sparse(
    n_per_offset: Sequence[int], c_in: int, c_out: int, cfg: AcceleratorConfig
) -> int:
    """Tiled gather-matmul passes, one group per weight offset."""
    row_tiles = ceil_div(np.asarray(n_per_offset, dtype=np.int64), cfg.array_rows).sum()
    return int(row_tiles) * ceil_div(c_out, cfg.array_cols) * c_in


def dense_baseline_cycles(
    positions: int, taps: int, c_in: int, c_out: int, cfg: AcceleratorConfig
) -> int:
    """One long systolic pass over every grid position, plus pipeline fill."""
    tiles = ceil_div(positions, cfg.array_rows) * ceil_div(c_out, cfg.array_cols)
    return tiles * taps * c_in + cfg.array_rows + cfg.array_cols


def stall_cycles(
    n_in: int, n_out: int, taps: int, c_in: int, c_out: int, cfg: AcceleratorConfig
) -> int:
    """One cycle per spilled 64-value line of the layer's working set."""
    working = n_in * c_in + n_out * c_out + taps * c_in * c_out + c_out
    spill = max(0, working - cfg.sram_values)
    return ceil_div(spill, SPILL_LINE_VALUES)


@dataclass(frozen=True)
class LayerCycles:
    layer_id: str
    mode: str
    mapping: MappingStats
    gemm: int
    stall: int
    dense_baseline: int
    flops: int

    @property
    def total(self) -> int:
        return self.mapping.cycles + self.gemm + self.stall


@dataclass(frozen=True)
class NetworkCycles:
    layers: tuple[LayerCycles, ...]
    mapping: int
    gemm: int
    stall: int
    total: int  # with mapping/GEMM overlap across layers
    dense_total: int
    speedup: float
    ideal_flops_ratio: float


def simulate_layer(rec, cfg: AcceleratorConfig | None = None) -> LayerCycles:
    """Cycle cost of one executed layer (a `backbone.LayerRecord`).

    Dense-mode layers cost exactly their dense baseline (no mapping, no
    stall), so an all-dense network simulates to speedup 1.
    """
    cfg = cfg or AcceleratorConfig()
    p, spec = rec.plan, rec.plan.spec
    mode = spec.mode.value
    dense = dense_baseline_cycles(p.dense_positions, p.dense_taps, spec.c_in, spec.c_out, cfg)
    if mode == "dense":
        return LayerCycles(p.layer_id, mode, ZERO_MAPPING, dense, 0, dense, rec.flops)
    if p.kind in ("downsample", "deconv"):
        mapping = mapping_stats_strided(rec.in_coords, p.kind, cfg)
    elif (spec.k_h, spec.k_w) == (1, 1):
        mapping = _mapping_stats("1x1", rec.in_coords[:, 0], rec.in_coords[:, 1], cfg)
    elif (spec.k_h, spec.k_w) == (3, 3):
        mapping = mapping_stats_3x3(p.in_h, rec.in_coords, cfg)
    else:
        raise BadKernelShapeError(f"{p.layer_id}: the cycle model prices 1x1 and 3x3 stride-1 "
                                  f"layers, got {spec.k_h}x{spec.k_w}")
    gemm = gemm_cycles_sparse(rec.n_per_offset, spec.c_in, spec.c_out, cfg)
    stall = stall_cycles(
        rec.active_in, rec.active_out, spec.k_h * spec.k_w, spec.c_in, spec.c_out, cfg
    )
    return LayerCycles(p.layer_id, mode, mapping, gemm, stall, dense, rec.flops)


def simulate_network(records: Sequence, cfg: AcceleratorConfig | None = None) -> NetworkCycles:
    """Simulate executed layers (`backbone.LayerRecord`s) in execution order.

    Total time overlaps each layer's rule generation with the previous
    layer's GEMM: mapping_1 + sum(max(mapping_i, gemm_{i-1})) + gemm_last,
    plus all stalls.
    """
    cfg = cfg or AcceleratorConfig()
    per = [simulate_layer(rec, cfg) for rec in records]
    if not per:
        return NetworkCycles((), 0, 0, 0, 0, 0, 1.0, 1.0)
    mapping_sum = sum(p.mapping.cycles for p in per)
    gemm_sum = sum(p.gemm for p in per)
    stall_sum = sum(p.stall for p in per)
    total = per[0].mapping.cycles
    for prev, cur in zip(per, per[1:]):
        total += max(cur.mapping.cycles, prev.gemm)
    total += per[-1].gemm + stall_sum
    dense_total = sum(p.dense_baseline for p in per)
    sparse_flops = sum(p.flops for p in per)
    dense_flops = sum(rec.plan.dense_flops for rec in records)
    speedup = dense_total / total if total else float("inf")
    ideal = dense_flops / sparse_flops if sparse_flops else float("inf")
    return NetworkCycles(
        tuple(per), mapping_sum, gemm_sum, stall_sum, total, dense_total, speedup, ideal
    )


def cycles_to_dict(net: NetworkCycles) -> dict:
    """JSON-ready report of a simulated network."""
    return {
        "layers": [
            {
                "layer_id": p.layer_id,
                "mode": p.mode,
                "bands": p.mapping.bands,
                "alignment": p.mapping.alignment,
                "row_merge": p.mapping.row_merge,
                "dilation_check": p.mapping.dilation_check,
                "column_dilation": p.mapping.column_dilation,
                "mapping_cycles": p.mapping.cycles,
                "gemm_cycles": p.gemm,
                "stall_cycles": p.stall,
                "total_cycles": p.total,
                "dense_baseline_cycles": p.dense_baseline,
                "flops": p.flops,
            }
            for p in net.layers
        ],
        "mapping_cycles": net.mapping,
        "gemm_cycles": net.gemm,
        "stall_cycles": net.stall,
        "total_cycles": net.total,
        "dense_total_cycles": net.dense_total,
        "speedup_vs_dense": net.speedup,
        "ideal_flops_ratio": net.ideal_flops_ratio,
    }
