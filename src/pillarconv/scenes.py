"""Deterministic synthetic pillar scenes.

Scenes are generated from a spec plus a 64-bit seed through numpy's Philox
counter-based generator, so the same spec and seed produce the same tensor
on every platform. The generator places exactly round(density * h * w)
unique active cells.

Patterns:

* uniform: cells drawn uniformly without replacement;
* clustered: a few Gaussian blobs, the typical look of objects and walls in
  a bird's-eye-view grid;
* ring-arcs: arc segments around the grid center at random radii, a crude
  stand-in for range-scan returns.

Clustered and ring-arcs sample until they collect the target count; if a
pattern saturates (tiny grid, high density) the remainder is filled from a
seeded permutation of the unused cells so the count is always exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DensityOverflowError, SpecMismatchError
from .tensor import _MAX_CELLS, FEATURE_DTYPE, PillarTensor, coords_of_keys

PATTERNS = ("uniform", "clustered", "ring-arcs")
FEATURE_KINDS = ("gaussian", "constant")


@dataclass(frozen=True)
class SceneSpec:
    height: int
    width: int
    channels: int
    density: float
    pattern: str = "uniform"
    clusters: int = 8
    spread: float = 3.0
    arcs: int = 6
    features: str = "gaussian"
    constant_value: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise SpecMismatchError(f"grid {self.height}x{self.width} must have positive dims")
        if self.height * self.width > _MAX_CELLS:
            raise SpecMismatchError(f"grid {self.height}x{self.width} exceeds the int64 key space")
        if not (math.isfinite(self.density) and self.density >= 0):
            raise SpecMismatchError(f"density {self.density} must be finite and >= 0")
        if self.density > 1:
            raise DensityOverflowError(f"density {self.density} asks for more cells than exist")
        if not (math.isfinite(self.spread) and self.spread >= 0):
            raise SpecMismatchError(f"spread {self.spread} must be finite and >= 0")
        if self.pattern not in PATTERNS:
            raise SpecMismatchError(f"unknown pattern {self.pattern!r}, expected {PATTERNS}")
        if self.features not in FEATURE_KINDS:
            raise SpecMismatchError(f"unknown features {self.features!r}")

    @property
    def target_count(self) -> int:
        return int(round(self.density * self.height * self.width))


def _fill_remainder(rng, taken: set[int], n_cells: int, need: int) -> list[int]:
    """Deterministic fallback when a pattern saturates before hitting count."""
    rest = [i for i in np.asarray(rng.permutation(n_cells)).tolist() if i not in taken]
    return rest[:need]


def _cells_uniform(rng, spec: SceneSpec, n: int) -> list[int]:
    return np.asarray(rng.permutation(spec.height * spec.width))[:n].tolist()


def _cells_clustered(rng, spec: SceneSpec, n: int) -> list[int]:
    h, w = spec.height, spec.width
    k = max(1, spec.clusters)
    centers_r = rng.integers(0, h, size=k)
    centers_c = rng.integers(0, w, size=k)
    taken: set[int] = set()
    out: list[int] = []
    attempts = 0
    limit = 200 * max(n, 1)
    while len(out) < n and attempts < limit:
        attempts += 1
        j = int(rng.integers(0, k))
        r = int(centers_r[j] + round(float(rng.normal(0.0, spec.spread))))
        c = int(centers_c[j] + round(float(rng.normal(0.0, spec.spread))))
        if not (0 <= r < h and 0 <= c < w):
            continue
        cell = r * w + c
        if cell not in taken:
            taken.add(cell)
            out.append(cell)
    if len(out) < n:
        out.extend(_fill_remainder(rng, taken, h * w, n - len(out)))
    return out


def _cells_ring_arcs(rng, spec: SceneSpec, n: int) -> list[int]:
    h, w = spec.height, spec.width
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    n_arcs = max(1, spec.arcs)
    radii = rng.uniform(0.12, 0.48, size=n_arcs) * min(h, w)
    starts = rng.uniform(0.0, 2.0 * math.pi, size=n_arcs)
    spans = rng.uniform(0.3 * math.pi, 1.2 * math.pi, size=n_arcs)
    taken: set[int] = set()
    out: list[int] = []
    attempts = 0
    limit = 200 * max(n, 1)
    while len(out) < n and attempts < limit:
        attempts += 1
        j = int(rng.integers(0, n_arcs))
        ang = float(starts[j] + rng.uniform(0.0, 1.0) * spans[j])
        rad = float(radii[j] + rng.normal(0.0, 1.0))
        r = int(round(cy + rad * math.sin(ang)))
        c = int(round(cx + rad * math.cos(ang)))
        if not (0 <= r < h and 0 <= c < w):
            continue
        cell = r * w + c
        if cell not in taken:
            taken.add(cell)
            out.append(cell)
    if len(out) < n:
        out.extend(_fill_remainder(rng, taken, h * w, n - len(out)))
    return out


def generate(spec: SceneSpec) -> PillarTensor:
    """Generate the scene for a spec; same spec -> same tensor, always."""
    n = spec.target_count
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    if spec.pattern == "uniform":
        cells = _cells_uniform(rng, spec, n)
    elif spec.pattern == "clustered":
        cells = _cells_clustered(rng, spec, n)
    else:
        cells = _cells_ring_arcs(rng, spec, n)
    if spec.features == "gaussian":
        feats = rng.standard_normal((n, spec.channels)).astype(FEATURE_DTYPE)
    else:
        feats = np.full((n, spec.channels), spec.constant_value, dtype=FEATURE_DTYPE)
    keys = np.asarray(cells, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    rc = coords_of_keys(keys[order], spec.width)
    return PillarTensor(spec.height, spec.width, spec.channels, rc, feats[order])


SCENE_PRESETS = {
    # roughly a 0.16 m pillar grid over a front-facing outdoor sweep
    "kitti-like": SceneSpec(
        height=496, width=432, channels=64, density=0.03,
        pattern="clustered", clusters=24, spread=2.5,
    ),
    # a coarser square grid around the sensor with denser returns
    "nuscenes-like": SceneSpec(
        height=512, width=512, channels=64, density=0.05,
        pattern="clustered", clusters=32, spread=3.0,
    ),
}


def preset_scene(name: str, seed: int = 0, **overrides) -> SceneSpec:
    if name not in SCENE_PRESETS:
        raise SpecMismatchError(f"unknown scene preset {name!r}, have {sorted(SCENE_PRESETS)}")
    return replace(SCENE_PRESETS[name], seed=seed, **overrides)
