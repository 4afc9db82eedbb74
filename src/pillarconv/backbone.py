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

`run_network` returns the final tensor and one `LayerRecord` per layer: the
planned layer plus what running it found out (input coordinates, output
count, selected count, flops, tuples per kernel offset, dilation flags).
Reports, FLOPs totals and the cycle simulator all read these records. Layer
weights are seeded pseudorandom (Philox) unless explicit kernels are
supplied; biases default to zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Sequence

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
from .tensor import DenseGrid, PillarTensor, concat_channels, from_dense


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


def validate_network(spec: NetworkSpec) -> None:
    """Check structural consistency; raises SpecMismatchError."""
    if not spec.stages:
        raise SpecMismatchError("network needs at least one stage")
    if spec.neck and len(spec.neck) != len(spec.stages):
        raise SpecMismatchError(
            f"neck has {len(spec.neck)} chains for {len(spec.stages)} stages"
        )
    # per stage: (channels, out_h, out_w) where its trunk, then its neck chain, ends
    c_trunk = spec.channels
    tip: dict[int, tuple[int, int, int]] = {}
    for p in plan_layers(spec):
        layer = p.spec
        if p.kind == "body":
            if layer.stride != 1:
                raise SpecMismatchError(f"{p.layer_id} must be stride 1")
        else:
            if (layer.k_h, layer.k_w, layer.stride) != (2, 2, 2):
                raise SpecMismatchError(f"{p.layer_id} must be 2x2 stride-2")
            if layer.mode in (ConvMode.SUBMANIFOLD, ConvMode.SELECTIVE):
                raise SpecMismatchError(f"{p.layer_id} cannot run mode {layer.mode.value}")
        c = tip[p.stage][0] if p.kind == "deconv" else c_trunk
        if layer.c_in != c:
            raise SpecMismatchError(f"{p.layer_id} c_in {layer.c_in}, expected {c}")
        if p.kind != "deconv":
            c_trunk = layer.c_out
        tip[p.stage] = (layer.c_out, p.out_h, p.out_w)
    if spec.neck:
        # every chain must land on one grid
        grids = {(h, w) for _, h, w in tip.values()}
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
    shape) is read from `plan`. Feature values are not retained.
    """

    plan: PlannedLayer
    in_coords: np.ndarray  # (n, 2) int64, row-major sorted
    active_out: int
    selected: int  # pillars an importance selection picked; 0 outside selective layers
    flops: int
    n_per_offset: np.ndarray | None  # tuples per kernel offset; None for dense layers
    flags: np.ndarray | None  # per-entry dilation flags, stride-1 sparse only

    @property
    def layer_id(self) -> str:
        return self.plan.layer_id

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


def _layer_kernel(p: PlannedLayer, ordinal: int, weights_seed: int) -> Kernel:
    child = (weights_seed * 1_000_003 + ordinal) % (1 << 63)
    return Kernel.seeded(
        p.spec.k_h, p.spec.k_w, p.spec.c_in, p.spec.c_out, p.spec.stride, seed=child
    )


def _run_sparse_layer(
    t: PillarTensor, p: PlannedLayer, k: Kernel
) -> tuple[PillarTensor, Rulebook, Selection | None, np.ndarray | None]:
    """Build the rulebook for one layer and execute it."""
    mode = p.spec.mode
    selection: Selection | None = None
    flags: np.ndarray | None = None
    if p.kind == "downsample":
        rb = build_rulebook_downsample2x2(t.rc, k, (p.in_h, p.in_w))
    elif p.kind == "deconv":
        rb = build_rulebook_deconv2x2(t.rc, k, (p.out_h, p.out_w))
    elif mode is ConvMode.SUBMANIFOLD:
        rb = build_rulebook_subm(t.rc, k, bounds=(p.in_h, p.in_w))
        flags = np.zeros(t.n_active, dtype=bool)
    elif mode is ConvMode.SPARSE_FULL:
        rb = build_rulebook_sparse(t.rc, k, (p.in_h, p.in_w))
        flags = np.ones(t.n_active, dtype=bool)
    elif mode is ConvMode.SELECTIVE:
        sel_spec = p.spec.selection
        scores = pillar_importance(t, sel_spec.importance)
        selection = sel_spec.select(scores)
        rb = build_rulebook_selective(t.rc, selection.rc, k, (p.in_h, p.in_w))
        flags = selection_flags(t, selection)
    else:
        raise SpecMismatchError(f"mode {mode} cannot run as a sparse layer")
    out = execute_rulebook(rb, t, k)
    return out, rb, selection, flags


def _run_dense_layer(t: PillarTensor, p: PlannedLayer, k: Kernel) -> PillarTensor:
    grid = t.to_dense()
    if p.kind == "deconv":
        out = dense_deconv_oracle(grid, k, (p.out_h, p.out_w))
    else:
        out = dense_conv_oracle(grid, k)
    data = out.data
    if p.spec.activation == "relu":
        data = np.maximum(data, 0)
    return from_dense(DenseGrid(data))


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
    stage_out: dict[int, PillarTensor] = {}

    def run_one(cur: PillarTensor, p: PlannedLayer, ordinal: int) -> PillarTensor:
        k = weights[ordinal] if weights is not None else _layer_kernel(p, ordinal, weights_seed)
        if (k.k_h, k.k_w, k.c_in, k.c_out, k.stride) != (
            p.spec.k_h, p.spec.k_w, p.spec.c_in, p.spec.c_out, p.spec.stride
        ):
            raise SpecMismatchError(f"kernel for {p.layer_id} does not match its spec")
        if p.spec.mode is ConvMode.DENSE:
            out = _run_dense_layer(cur, p, k)
            records.append(LayerRecord(p, cur.rc, out.n_active, 0, p.dense_flops, None, None))
            return out
        out, rb, selection, flags = _run_sparse_layer(cur, p, k)
        if p.spec.activation == "relu":
            out = out.with_features(np.maximum(out.features, 0))
        selected = 0 if selection is None else len(selection.rc)
        records.append(LayerRecord(
            p, cur.rc, out.n_active, selected, flops_of_rulebook(rb, k.c_in, k.c_out),
            rb.tuples_per_offset(k.taps), flags,
        ))
        return out

    cur = t
    n_trunk = sum(1 for p in plan if p.kind != "deconv")
    for ordinal, p in enumerate(plan[:n_trunk]):
        cur = run_one(cur, p, ordinal)
        stage_out[p.stage] = cur
    # neck chains branch from their stage outputs; deconvs are a plan suffix
    chain_tip: dict[int, PillarTensor] = {}
    for ordinal, p in enumerate(plan[n_trunk:], start=n_trunk):
        src = chain_tip.get(p.stage, stage_out[p.stage])
        chain_tip[p.stage] = run_one(src, p, ordinal)
    if spec.neck:
        finals = [
            chain_tip.get(si, stage_out[si]) for si in range(1, len(spec.stages) + 1)
        ]
        output = concat_channels(finals)
    else:
        output = cur
    return NetworkResult(output, tuple(records))


# -- mode overrides ---------------------------------------------------------------


def with_body_mode(
    spec: NetworkSpec,
    mode: ConvMode,
    t: float | None = None,
    importance: ImportanceConfig | None = None,
) -> NetworkSpec:
    """Clone a spec with every body layer forced to `mode`.

    DENSE also forces downsample and deconv layers dense; other modes leave
    them sparse. For SELECTIVE, `t` (top-k percent) applies to every layer.
    """
    def conv_layer(layer: LayerSpec) -> LayerSpec:
        if mode is ConvMode.SELECTIVE:
            sel = layer.selection or SelectionSpec()
            if t is not None:
                sel = replace(sel, kind="topk", t=t, theta=None)
            if importance is not None:
                sel = replace(sel, importance=importance)
            return replace(layer, mode=mode, selection=sel)
        return replace(layer, mode=mode, selection=None)

    def strided_layer(layer: LayerSpec) -> LayerSpec:
        target = ConvMode.DENSE if mode is ConvMode.DENSE else ConvMode.SPARSE_FULL
        return replace(layer, mode=target, selection=None)

    stages = tuple(
        StageSpec(
            strided_layer(s.downsample),
            tuple(conv_layer(b) for b in s.body),
        )
        for s in spec.stages
    )
    neck = tuple(tuple(strided_layer(d) for d in chain) for chain in spec.neck)
    return replace(spec, stages=stages, neck=neck)


def override_topk_percent(spec: NetworkSpec, t: float) -> NetworkSpec:
    """Set every selective layer's top-k percent to `t`."""
    def fix(layer: LayerSpec) -> LayerSpec:
        if layer.mode is not ConvMode.SELECTIVE:
            return layer
        sel = replace(layer.selection or SelectionSpec(), kind="topk", t=t, theta=None)
        return replace(layer, selection=sel)

    stages = tuple(
        StageSpec(s.downsample, tuple(fix(b) for b in s.body)) for s in spec.stages
    )
    return replace(spec, stages=stages)


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


def _down(c_in: int, c_out: int) -> LayerSpec:
    return LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=c_in, c_out=c_out, k_h=2, k_w=2, stride=2)


def _up(c_in: int, c_out: int) -> LayerSpec:
    return LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=c_in, c_out=c_out, k_h=2, k_w=2, stride=2)


def make_pointpillars(
    height: int = 496,
    width: int = 432,
    channels: int = 64,
    t: float = 2.0,
    importance: ImportanceConfig | None = None,
) -> NetworkSpec:
    """Three-stage pillar backbone with selective body layers and a 384-channel neck."""
    sel = SelectionSpec(kind="topk", t=t, importance=importance or ImportanceConfig())
    stages = (
        StageSpec(_down(channels, 64), _body(ConvMode.SELECTIVE, 64, 3, sel)),
        StageSpec(_down(64, 128), _body(ConvMode.SELECTIVE, 128, 5, sel)),
        StageSpec(_down(128, 256), _body(ConvMode.SELECTIVE, 256, 5, sel)),
    )
    neck = (
        (_up(64, 128),),
        (_up(128, 128), _up(128, 128)),
        (_up(256, 128), _up(128, 128), _up(128, 128)),
    )
    return NetworkSpec("pointpillars", height, width, channels, stages, neck)


def make_centerpoint_backbone(
    height: int = 512,
    width: int = 512,
    channels: int = 64,
    t: float = 4.0,
    importance: ImportanceConfig | None = None,
) -> NetworkSpec:
    """Same stage layout on a square grid, defaults tuned for denser scenes."""
    spec = make_pointpillars(height, width, channels, t, importance)
    return replace(spec, name="centerpoint-backbone")


def make_pillarnet_neck(
    height: int = 464,
    width: int = 464,
    channels: int = 32,
    t: float = 4.0,
    importance: ImportanceConfig | None = None,
) -> NetworkSpec:
    """Submanifold encoder stages feeding a selective final stage."""
    sel = SelectionSpec(kind="topk", t=t, importance=importance or ImportanceConfig())
    stages = (
        StageSpec(_down(channels, 64), _body(ConvMode.SUBMANIFOLD, 64, 2, None)),
        StageSpec(_down(64, 128), _body(ConvMode.SUBMANIFOLD, 128, 2, None)),
        StageSpec(_down(128, 256), _body(ConvMode.SELECTIVE, 256, 4, sel)),
    )
    neck = (
        (_up(64, 128),),
        (_up(128, 128), _up(128, 128)),
        (_up(256, 128), _up(128, 128), _up(128, 128)),
    )
    return NetworkSpec("pillarnet-neck", height, width, channels, stages, neck)


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
