"""Pillar backbone networks: staged sparse convolutions plus an upsampling neck.

A network is a list of stages, each a 2x2 stride-2 downsampling convolution
followed by stride-1 body convolutions, and a neck that carries every stage's
output back to a common grid with chains of 2x2 stride-2 transposed
convolutions and concatenates them channel-wise over the union of active
sets. Stage k of a preset needs k doublings to reach the input grid, so its
neck chain holds k deconvolutions.

Body layers run in one of four modes: dense (full-grid oracle execution),
full sparse (dilating), submanifold (active set preserved), or selective
(submanifold everywhere plus full dilation of the pillars an importance
selection picked). Selection happens per layer on the layer's input tensor.
Downsample and deconv layers are either dense or sparse.

One walk over the plan feeds every layer its input: trunk layers read the
previous trunk output, a neck chain starts at its stage's output.
`validate_network` checks channels and grids along it and `run_network` runs
each layer along it. `run_network` returns the final tensor and one
`LayerRecord` per layer, in plan order: the planned layer plus what running
it found out (input coordinates, output count, flops, tuples per kernel
offset, and for selective layers the dilation flags in input entry order).
Reports, FLOPs totals and the cycle simulator all read these records. Layer
weights are seeded pseudorandom (Philox) unless explicit kernels are
supplied; biases default to zero. Seeded kernels are built once per shape
and seed and kept, read-only, in an LRU cache of `KERNEL_CACHE_SIZE` entries.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence, TypeVar

import numpy as np

from .conv import (
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
from .errors import SpecMismatchError
from .importance import (
    Aggregate,
    ImportanceConfig,
    Measure,
    Selection,
    pillar_importance,
    select_threshold,
    select_topk,
    selection_flags,
)
from .tensor import PillarTensor, _freeze, _proven, concat_channels, from_dense
from .util import require_fields

_T = TypeVar("_T")


class ConvMode(str, Enum):
    DENSE = "dense"
    SPARSE_FULL = "sparse"
    SUBMANIFOLD = "subm"
    SELECTIVE = "selective"


@dataclass(frozen=True)
class SelectionSpec:
    """How a selective layer picks pillars to dilate."""

    kind: str = "topk"  # "topk" | "threshold"
    t: float | None = 2.0
    theta: float | None = None
    importance: ImportanceConfig = field(default_factory=ImportanceConfig)

    def __post_init__(self) -> None:
        if self.kind == "topk":
            if self.t is None:
                raise SpecMismatchError("topk selection needs t")
        elif self.kind == "threshold":
            if self.theta is None:
                raise SpecMismatchError("threshold selection needs theta")
        else:
            raise SpecMismatchError(f"unknown selection kind {self.kind!r}")
        given = [name for name in ("t", "theta") if getattr(self, name) is not None]
        require_fields(self, given, SpecMismatchError, numbers.Real, "a number")

    def select(self, scores) -> Selection:
        if self.kind == "topk":
            return select_topk(scores, self.t)
        return select_threshold(scores, self.theta)


@dataclass(frozen=True)
class LayerSpec:
    mode: ConvMode
    c_in: int
    c_out: int
    k_h: int = 3
    k_w: int = 3
    stride: int = 1
    activation: str = "relu"  # "relu" | "none"
    selection: SelectionSpec | None = None

    def __post_init__(self) -> None:
        require_fields(self, ("c_in", "c_out", "k_h", "k_w", "stride"), SpecMismatchError)
        if self.activation not in ("relu", "none"):
            raise SpecMismatchError(f"unknown activation {self.activation!r}")
        if self.mode is ConvMode.SELECTIVE and self.selection is None:
            object.__setattr__(self, "selection", SelectionSpec())
        if self.mode is ConvMode.SELECTIVE and self.stride != 1:
            raise SpecMismatchError("selective dilation is stride-1 only")


@dataclass(frozen=True)
class StageSpec:
    downsample: LayerSpec
    body: tuple[LayerSpec, ...]


@dataclass(frozen=True)
class NetworkSpec:
    name: str
    height: int
    width: int
    channels: int
    stages: tuple[StageSpec, ...]
    neck: tuple[tuple[LayerSpec, ...], ...]  # one deconv chain per stage

    def __post_init__(self) -> None:
        require_fields(self, ("height", "width", "channels"), SpecMismatchError)


@dataclass(frozen=True)
class PlannedLayer:
    """A layer with its position, grids, and id resolved."""

    layer_id: str
    kind: str  # "downsample" | "body" | "deconv"
    spec: LayerSpec
    in_h: int
    in_w: int
    out_h: int
    out_w: int
    stage: int  # 1-based; 0 for none

    @property
    def dense_positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def dense_taps(self) -> int:
        # taps each dense output position sums: full kernel for convs, one
        # for the 2x2 stride-2 transposed form
        return 1 if self.kind == "deconv" else self.spec.k_h * self.spec.k_w

    @property
    def dense_flops(self) -> int:
        """Flops of running this layer dense, same counting convention."""
        c_in, c_out = self.spec.c_in, self.spec.c_out
        return self.dense_positions * (2 * self.dense_taps * c_in * c_out + c_out)


def plan_layers(spec: NetworkSpec) -> list[PlannedLayer]:
    """Flatten a network into ordered layers with resolved grids."""
    plan: list[PlannedLayer] = []
    h, w = spec.height, spec.width
    stage_grids: list[tuple[int, int]] = []
    for si, stage in enumerate(spec.stages, start=1):
        oh, ow = (h + 1) // 2, (w + 1) // 2
        plan.append(PlannedLayer(f"s{si}.down", "downsample", stage.downsample, h, w, oh, ow, si))
        h, w = oh, ow
        for bi, layer in enumerate(stage.body):
            plan.append(PlannedLayer(f"s{si}.body{bi}", "body", layer, h, w, h, w, si))
        stage_grids.append((h, w))
    for si, chain in enumerate(spec.neck, start=1):
        ch, cw = stage_grids[si - 1]
        for di, layer in enumerate(chain):
            plan.append(PlannedLayer(f"neck{si}.up{di}", "deconv", layer, ch, cw, 2 * ch, 2 * cw, si))
            ch, cw = 2 * ch, 2 * cw
    return plan


def _walk(
    plan: Sequence[PlannedLayer], x: _T, step: Callable[[_T, PlannedLayer, int], _T]
) -> tuple[_T, dict[int, _T]]:
    """Feed every planned layer its input; `step(input, layer, ordinal)` returns its output.

    The first layer reads `x`. Returns the last trunk output and each stage's
    tip, in stage order: the end of its neck chain, or its output without one.
    """
    trunk, tips = x, {}
    for ordinal, p in enumerate(plan):
        if p.kind == "deconv":
            tips[p.stage] = step(tips[p.stage], p, ordinal)
        else:
            trunk = tips[p.stage] = step(trunk, p, ordinal)
    return trunk, tips


def validate_network(spec: NetworkSpec) -> None:
    """Check structural consistency; raises SpecMismatchError."""
    if not spec.stages:
        raise SpecMismatchError("network needs at least one stage")
    if spec.neck and len(spec.neck) != len(spec.stages):
        raise SpecMismatchError(
            f"neck has {len(spec.neck)} chains for {len(spec.stages)} stages"
        )

    def check(x: tuple[int, int, int], p: PlannedLayer, _: int) -> tuple[int, int, int]:
        # x and the result are (channels, height, width) of a layer's input and output
        layer = p.spec
        if p.kind == "body":
            if layer.stride != 1:
                raise SpecMismatchError(f"{p.layer_id} must be stride 1")
        else:
            if (layer.k_h, layer.k_w, layer.stride) != (2, 2, 2):
                raise SpecMismatchError(f"{p.layer_id} must be 2x2 stride-2")
            if layer.mode in (ConvMode.SUBMANIFOLD, ConvMode.SELECTIVE):
                raise SpecMismatchError(f"{p.layer_id} cannot run mode {layer.mode.value}")
        if layer.c_in != x[0]:
            raise SpecMismatchError(f"{p.layer_id} c_in {layer.c_in}, expected {x[0]}")
        return layer.c_out, p.out_h, p.out_w

    _, tips = _walk(plan_layers(spec), (spec.channels, spec.height, spec.width), check)
    if spec.neck:
        # every chain must land on one grid
        grids = {(h, w) for _, h, w in tips.values()}
        if len(grids) > 1:
            raise SpecMismatchError(f"neck chains end on different grids: {sorted(grids)}")
        # exact doubling needs every halving to be even
        div = 1 << len(spec.stages)
        if spec.height % div or spec.width % div:
            raise SpecMismatchError(
                f"grid {spec.height}x{spec.width} must be divisible by {div} to use a neck"
            )


# -- per-layer records ----------------------------------------------------------


@dataclass(frozen=True)
class LayerRecord:
    """One executed layer: its plan plus what running it found out.

    Everything else about the layer (id, kind, mode, grids, channels, kernel
    shape) is read from `plan`. Feature values are not retained. Flags are
    recorded only where a selection ran; `selected` counts them (0 elsewhere).
    """

    plan: PlannedLayer
    in_coords: np.ndarray  # (n, 2) int64, row-major sorted
    active_out: int
    flops: int
    n_per_offset: np.ndarray | None  # tuples per kernel offset; None for dense layers
    flags: np.ndarray | None  # dilation flags in in_coords order; selective layers only

    @property
    def layer_id(self) -> str:
        return self.plan.layer_id

    @property
    def selected(self) -> int:
        return 0 if self.flags is None else int(np.count_nonzero(self.flags))

    @property
    def active_in(self) -> int:
        return self.in_coords.shape[0]

    @property
    def density_out(self) -> float:
        return self.active_out / self.plan.dense_positions


@dataclass(frozen=True)
class NetworkResult:
    output: PillarTensor
    reports: tuple[LayerRecord, ...]
    traces = property(lambda self: self.reports)  # alias still read by perfbench/workloads.py


def total_flops(reports: Sequence[LayerRecord]) -> int:
    return sum(r.flops for r in reports)


def dense_flops_of_spec(spec: NetworkSpec) -> int:
    """Analytic flops of running every layer dense, same counting convention."""
    return sum(p.dense_flops for p in plan_layers(spec))


# -- execution ----------------------------------------------------------------


# Seeded kernels kept across runs: a preset's 22 layers for a few weight seeds.
KERNEL_CACHE_SIZE = 64


@lru_cache(maxsize=KERNEL_CACHE_SIZE)
def _seeded_kernel(k_h: int, k_w: int, c_in: int, c_out: int, stride: int, seed: int) -> Kernel:
    # Kernels are frozen with read-only float32 arrays, so runs can share them.
    return Kernel.seeded(k_h, k_w, c_in, c_out, stride, seed=seed)


def _layer_kernel(p: PlannedLayer, ordinal: int, weights_seed: int) -> Kernel:
    child = (weights_seed * 1_000_003 + ordinal) % (1 << 63)
    s = p.spec
    return _seeded_kernel(s.k_h, s.k_w, s.c_in, s.c_out, s.stride, child)


def _run_layer(t: PillarTensor, p: PlannedLayer, k: Kernel) -> tuple[PillarTensor, LayerRecord]:
    """Run one planned layer on its input with kernel `k` and record what it found out."""
    s = p.spec
    if (k.k_h, k.k_w, k.c_in, k.c_out, k.stride) != (s.k_h, s.k_w, s.c_in, s.c_out, s.stride):
        raise SpecMismatchError(f"kernel for {p.layer_id} does not match its spec")
    rb: Rulebook | None = None
    flags: np.ndarray | None = None
    if s.mode is ConvMode.DENSE:
        grid = t.to_dense()
        if p.kind == "deconv":
            dense = dense_deconv_oracle(grid, k, (p.out_h, p.out_w))
        else:
            dense = dense_conv_oracle(grid, k)
        if s.activation == "relu":
            # after ReLU a cell is active iff a channel is > 0 or NaN, that is
            # iff its max (NaN if any channel is) is not <= 0; so the ReLU
            # runs in place on the gathered cells only, never on the grid;
            # argwhere lists the kept cells once each, in row-major order
            keep = ~(dense.data.max(axis=2) <= 0)
            feats = dense.data[keep]
            np.maximum(feats, 0, out=feats)
            out = _proven(PillarTensor, height=dense.height, width=dense.width,
                          channels=dense.channels, rc=_freeze(np.argwhere(keep)),
                          features=_freeze(feats))
        else:
            out = from_dense(dense)
    else:
        if p.kind == "downsample":
            rb = build_rulebook_downsample2x2(t.rc, k, (p.in_h, p.in_w))
        elif p.kind == "deconv":
            rb = build_rulebook_deconv2x2(t.rc, k, (p.out_h, p.out_w))
        elif s.mode is ConvMode.SUBMANIFOLD:
            rb = build_rulebook_subm(t.rc, k, bounds=(p.in_h, p.in_w))
        elif s.mode is ConvMode.SPARSE_FULL:
            rb = build_rulebook_sparse(t.rc, k, (p.in_h, p.in_w))
        else:  # ConvMode.SELECTIVE
            selection = s.selection.select(pillar_importance(t, s.selection.importance))
            flags = selection_flags(t, selection)
            rb = build_rulebook_selective(t.rc, flags, k, (p.in_h, p.in_w))
        out = execute_rulebook(rb, t, k)
        if s.activation == "relu":
            out = out.with_features(np.maximum(out.features, 0))
    return out, LayerRecord(
        p, t.rc, out.n_active,
        p.dense_flops if rb is None else flops_of_rulebook(rb, k.c_in, k.c_out),
        None if rb is None else rb.tuples_per_offset(k.taps),
        flags,
    )


def run_network(
    t: PillarTensor,
    spec: NetworkSpec,
    weights: Sequence[Kernel] | None = None,
    weights_seed: int = 0,
) -> NetworkResult:
    """Run a scene through a network.

    `weights` may supply one kernel per planned layer (in plan order);
    otherwise kernels are seeded from `weights_seed` and the layer ordinal.
    """
    validate_network(spec)
    if (t.height, t.width, t.channels) != (spec.height, spec.width, spec.channels):
        raise SpecMismatchError(
            f"scene {(t.height, t.width, t.channels)} does not match "
            f"spec input {(spec.height, spec.width, spec.channels)}"
        )
    plan = plan_layers(spec)
    if weights is not None and len(weights) != len(plan):
        raise SpecMismatchError(f"got {len(weights)} kernels for {len(plan)} layers")
    records: list[LayerRecord] = []

    def step(x: PillarTensor, p: PlannedLayer, ordinal: int) -> PillarTensor:
        k = weights[ordinal] if weights is not None else _layer_kernel(p, ordinal, weights_seed)
        out, record = _run_layer(x, p, k)
        records.append(record)
        return out

    trunk, tips = _walk(plan, t, step)
    output = concat_channels(list(tips.values())) if spec.neck else trunk
    return NetworkResult(output, tuple(records))


# -- mode overrides ---------------------------------------------------------------


def _map_layers(
    spec: NetworkSpec,
    body: Callable[[LayerSpec], LayerSpec],
    strided: Callable[[LayerSpec], LayerSpec],
) -> NetworkSpec:
    """Clone a spec with `body` applied to every body layer and `strided` to the rest."""
    stages = tuple(
        StageSpec(strided(s.downsample), tuple(body(b) for b in s.body)) for s in spec.stages
    )
    neck = tuple(tuple(strided(d) for d in chain) for chain in spec.neck)
    return replace(spec, stages=stages, neck=neck)


def with_body_mode(spec: NetworkSpec, mode: ConvMode) -> NetworkSpec:
    """Clone a spec with every body layer forced to `mode`.

    DENSE also forces downsample and deconv layers dense; other modes leave
    them sparse. SELECTIVE keeps a layer's selection (`LayerSpec` supplies the
    default one).
    """
    def body(layer: LayerSpec) -> LayerSpec:
        keep = mode is ConvMode.SELECTIVE
        return replace(layer, mode=mode, selection=layer.selection if keep else None)

    target = ConvMode.DENSE if mode is ConvMode.DENSE else ConvMode.SPARSE_FULL
    return _map_layers(spec, body, lambda layer: replace(layer, mode=target, selection=None))


def override_topk_percent(spec: NetworkSpec, t: float) -> NetworkSpec:
    """Set every selective layer's top-k percent to `t`."""
    def fix(layer: LayerSpec) -> LayerSpec:
        if layer.mode is not ConvMode.SELECTIVE:
            return layer
        sel = replace(layer.selection or SelectionSpec(), kind="topk", t=t, theta=None)
        return replace(layer, selection=sel)

    return _map_layers(spec, fix, fix)


# -- JSON round-trip ------------------------------------------------------------


def _layer_to_json(layer: LayerSpec) -> dict:
    d = {
        "mode": layer.mode.value,
        "kernel": [layer.k_h, layer.k_w],
        "stride": layer.stride,
        "c_in": layer.c_in,
        "c_out": layer.c_out,
        "activation": layer.activation,
    }
    if layer.selection is not None:
        sel = {
            "kind": layer.selection.kind,
            "measure": layer.selection.importance.measure.value,
            "aggregate": layer.selection.importance.aggregate.value,
        }
        if layer.selection.t is not None:
            sel["t"] = layer.selection.t
        if layer.selection.theta is not None:
            sel["theta"] = layer.selection.theta
        d["selection"] = sel
    return d


def _layer_from_json(d: dict) -> LayerSpec:
    if not isinstance(d["kernel"], list) or len(d["kernel"]) != 2:
        raise SpecMismatchError(f"layer kernel must be [k_h, k_w], got {d['kernel']!r}")
    sel = None
    if "selection" in d:
        s = d["selection"]
        sel = SelectionSpec(
            kind=s["kind"],
            t=s.get("t"),
            theta=s.get("theta"),
            importance=ImportanceConfig(
                Measure(s.get("measure", "mean_abs")),
                Aggregate(s.get("aggregate", "identity")),
            ),
        )
    return LayerSpec(
        mode=ConvMode(d["mode"]),
        c_in=d["c_in"],
        c_out=d["c_out"],
        k_h=d["kernel"][0],
        k_w=d["kernel"][1],
        stride=d.get("stride", 1),
        activation=d.get("activation", "relu"),
        selection=sel,
    )


def network_to_json(spec: NetworkSpec) -> str:
    doc = {
        "name": spec.name,
        "input": {"height": spec.height, "width": spec.width, "channels": spec.channels},
        "stages": [
            {
                "downsample": _layer_to_json(s.downsample),
                "body": [_layer_to_json(b) for b in s.body],
            }
            for s in spec.stages
        ],
        "neck": [[_layer_to_json(d) for d in chain] for chain in spec.neck],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def network_from_json(text: str) -> NetworkSpec:
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SpecMismatchError(f"network json must be an object, got {type(doc).__name__}")
        spec = NetworkSpec(
            name=doc.get("name", "network"),
            height=doc["input"]["height"],
            width=doc["input"]["width"],
            channels=doc["input"]["channels"],
            stages=tuple(
                StageSpec(
                    _layer_from_json(s["downsample"]),
                    tuple(_layer_from_json(b) for b in s["body"]),
                )
                for s in doc["stages"]
            ),
            neck=tuple(
                tuple(_layer_from_json(d) for d in chain) for chain in doc.get("neck", [])
            ),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise SpecMismatchError(f"bad network json: {e}") from e
    validate_network(spec)
    return spec


# -- presets --------------------------------------------------------------------


def _body(mode: ConvMode, c: int, n: int, sel: SelectionSpec | None) -> tuple[LayerSpec, ...]:
    return tuple(
        LayerSpec(mode=mode, c_in=c, c_out=c, selection=sel if mode is ConvMode.SELECTIVE else None)
        for _ in range(n)
    )


def _strided(c_in: int, c_out: int) -> LayerSpec:
    """A sparse 2x2 stride-2 layer: a stage's downsample or one step of a neck chain."""
    return LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=c_in, c_out=c_out, k_h=2, k_w=2, stride=2)


# The presets' neck: stage k (64, 128, 256 channels) doubles k times to 128 channels.
_NECK = (
    (_strided(64, 128),),
    (_strided(128, 128), _strided(128, 128)),
    (_strided(256, 128), _strided(128, 128), _strided(128, 128)),
)


def make_pointpillars(
    height: int = 496,
    width: int = 432,
    channels: int = 64,
    t: float = 2.0,
) -> NetworkSpec:
    """Three-stage pillar backbone with selective body layers and a 384-channel neck."""
    sel = SelectionSpec(kind="topk", t=t)
    stages = (
        StageSpec(_strided(channels, 64), _body(ConvMode.SELECTIVE, 64, 3, sel)),
        StageSpec(_strided(64, 128), _body(ConvMode.SELECTIVE, 128, 5, sel)),
        StageSpec(_strided(128, 256), _body(ConvMode.SELECTIVE, 256, 5, sel)),
    )
    return NetworkSpec("pointpillars", height, width, channels, stages, _NECK)


def make_centerpoint_backbone(
    height: int = 512,
    width: int = 512,
    channels: int = 64,
    t: float = 4.0,
) -> NetworkSpec:
    """Same stage layout on a square grid, defaults tuned for denser scenes."""
    spec = make_pointpillars(height, width, channels, t)
    return replace(spec, name="centerpoint-backbone")


def make_pillarnet_neck(
    height: int = 464,
    width: int = 464,
    channels: int = 32,
    t: float = 4.0,
) -> NetworkSpec:
    """Submanifold encoder stages feeding a selective final stage."""
    sel = SelectionSpec(kind="topk", t=t)
    stages = (
        StageSpec(_strided(channels, 64), _body(ConvMode.SUBMANIFOLD, 64, 2, None)),
        StageSpec(_strided(64, 128), _body(ConvMode.SUBMANIFOLD, 128, 2, None)),
        StageSpec(_strided(128, 256), _body(ConvMode.SELECTIVE, 256, 4, sel)),
    )
    return NetworkSpec("pillarnet-neck", height, width, channels, stages, _NECK)


NETWORK_PRESETS: dict[str, Callable[..., NetworkSpec]] = {
    "pointpillars": make_pointpillars,
    "centerpoint-backbone": make_centerpoint_backbone,
    "pillarnet-neck": make_pillarnet_neck,
}


def preset_network(name: str, **kwargs) -> NetworkSpec:
    if name not in NETWORK_PRESETS:
        raise SpecMismatchError(
            f"unknown network preset {name!r}, have {sorted(NETWORK_PRESETS)}"
        )
    return NETWORK_PRESETS[name](**kwargs)
