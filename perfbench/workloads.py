"""The benchmark's workloads, the op each one repeats, and its correctness checks.

One op is what `pillarconv simulate <scene.plt> --network N [--mode M]` does,
minus printing: `load_plt`, then `run_network`, then `simulate_network`.
Every call goes through the module attribute, so the tracer's wrappers see it.

Why these three workloads:

* kitti-selective: the paper's headline path (selective dilation, t = 2) on
  small active sets; the only workload where `importance` runs.
* nuscenes-sparse: every body layer fully sparse, so the active set grows
  ~19x and rulebooks, the neck concat and streaming mapping work on large,
  cache-missing sets. Per-coordinate costs show here first, and so does a
  per-grid cost that only wins on small sets.
* kitti-dense: the all-dense run on the same scenes as kitti-selective, the
  denominator of every host speedup claim; the only workload where the
  dense oracles and dense conversions run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

import pillarconv.accel as accel
import pillarconv.backbone as backbone
import pillarconv.scenes as scenes
import pillarconv.tensor as tensor
from pillarconv.conv import Kernel, dense_conv_oracle

SPOT_TOL = 1e-5
QUICK_GRID = (64, 56)  # the golden-scale grid


@dataclass(frozen=True)
class Workload:
    scene: str  # scene preset
    network: str  # network preset
    mode: str | None  # body mode forced as by `--mode`, None keeps the preset's
    scenes: int  # distinct scenes per run; ops cycle through them
    required: tuple[str, ...]  # layers every traced op must call


_COMMON = ("tensor.plt_read", "tensor.validate", "tensor.concat", "backbone.run", "accel.simulate")
_SPARSE = ("conv.rulebook", "conv.execute", "accel.mapping")

WORKLOADS = {
    "kitti-selective": Workload(
        "kitti-like", "pointpillars", None, 3,
        _COMMON + _SPARSE + ("importance.score", "importance.select"),
    ),
    "nuscenes-sparse": Workload(
        "nuscenes-like", "centerpoint-backbone", "sparse", 1, _COMMON + _SPARSE,
    ),
    "kitti-dense": Workload(
        "kitti-like", "pointpillars", "dense", 2,
        _COMMON + ("conv.dense", "tensor.dense_convert"),
    ),
}


def scene_spec(w: Workload, seed: int, index: int, quick: bool) -> scenes.SceneSpec:
    """Scene `index` of a run; kitti workloads with one seed share scenes."""
    overrides = {}
    if quick:
        overrides = {"height": QUICK_GRID[0], "width": QUICK_GRID[1]}
    return scenes.preset_scene(w.scene, seed=seed * 64 + index, **overrides)


def network_for(w: Workload, scene: tensor.PillarTensor) -> backbone.NetworkSpec:
    spec = backbone.preset_network(
        w.network, height=scene.height, width=scene.width, channels=scene.channels
    )
    if w.mode is not None:
        spec = backbone.with_body_mode(spec, backbone.ConvMode(w.mode))
    return spec


def run_op(w: Workload, plt_path: str):
    """One scene op: load, run, simulate. Returns (NetworkResult, NetworkCycles, spec)."""
    scene = tensor.load_plt(plt_path)
    spec = network_for(w, scene)
    res = backbone.run_network(scene, spec)
    net = accel.simulate_network(res.traces, accel.AcceleratorConfig())
    return res, net, spec


def op_record(res, net, spec) -> dict:
    """Everything an op must reproduce exactly, for this workload and scene."""
    out = res.output
    coords = np.asarray(out.coords, dtype=np.int64).reshape(-1, 2)
    h = hashlib.sha256(coords.tobytes())
    coords_sha = h.hexdigest()
    h.update(np.ascontiguousarray(out.features).tobytes())
    flops = backbone.total_flops(res.reports)
    return {
        "coords_sha256": coords_sha,
        "output_sha256": h.hexdigest(),
        "outputs": out.n_active,
        "flops": flops,
        "dense_flops": backbone.dense_flops_of_spec(spec),
        "selected": sum(r.selected for r in res.reports),
        "sim_cycles": net.total,
        "sim_dense_cycles": net.dense_total,
        "mapping_cycles": net.mapping,
        "gemm_cycles": net.gemm,
        "stall_cycles": net.stall,
    }


def record_mismatch(got: dict, want: dict, compare_features: bool) -> list[str]:
    """Fields of `got` that differ from the reference `want`."""
    keys = [k for k in want if compare_features or k != "output_sha256"]
    return [k for k in keys if got.get(k) != want[k]]


def spot_check(w: Workload, scene: tensor.PillarTensor, seed: int) -> float:
    """Max |diff| of the first body layer against `dense_conv_oracle`.

    Runs the first stage's downsample alone and then with its first body
    layer, in the workload's mode and with kernels seeded here, and compares
    the body layer's output on its output set with the dense oracle applied
    to the downsample's output.
    """
    spec = network_for(w, scene)
    stage = spec.stages[0]
    body = stage.body[0]
    down_only = replace(spec, stages=(backbone.StageSpec(stage.downsample, ()),), neck=())
    with_body = replace(spec, stages=(backbone.StageSpec(stage.downsample, (body,)),), neck=())
    d = stage.downsample
    k_down = Kernel.seeded(d.k_h, d.k_w, d.c_in, d.c_out, d.stride, seed=seed)
    k_body = Kernel.seeded(body.k_h, body.k_w, body.c_in, body.c_out, body.stride, seed=seed + 1)
    x = backbone.run_network(scene, down_only, weights=[k_down]).output
    y = backbone.run_network(scene, with_body, weights=[k_down, k_body]).output
    ref = dense_conv_oracle(x.to_dense(), k_body).data
    if body.activation == "relu":
        ref = np.maximum(ref, 0)
    if y.n_active == 0:
        return 0.0
    rc = np.asarray(y.coords, dtype=np.int64)
    diff = np.abs(ref[rc[:, 0], rc[:, 1]].astype(np.float64) - y.features)
    return float(diff.max())
