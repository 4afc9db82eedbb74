"""Deterministic synthetic pillar scenes.

Scenes are generated from a spec plus a 64-bit seed through numpy's Philox
counter-based generator, so the same spec and seed produce the same tensor
on every platform. The generator places exactly round(density * h * w)
unique active cells.

One loop places the cells of every pattern. Each attempt draws a candidate
(row, col), and a new in-grid candidate is kept in draw order, until the
target count or 200 attempts per cell. If the pattern saturates first (tiny
grid, high density), the rest is filled from a seeded permutation of the
cells not yet taken, so the count is always exact. Patterns differ only in
their draws:

* uniform: no candidates at all, so every cell comes from the permutation;
* clustered: a few Gaussian blobs, the typical look of objects and walls in
  a bird's-eye-view grid; an attempt draws a blob, then row and column
  offsets;
* ring-arcs: arc segments around the grid center at random radii, a crude
  stand-in for range-scan returns; an attempt draws an arc, an angle and a
  radius jitter.
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


def _candidate_draw(rng, spec: SceneSpec):
    """Make the pattern's set-up draws; return its per-attempt draw of a (row, col).

    Uniform has neither, so all its cells come from the fill.
    """
    h, w = spec.height, spec.width
    if spec.pattern == "clustered":
        k = max(1, spec.clusters)
        centers_r = rng.integers(0, h, size=k).tolist()
        centers_c = rng.integers(0, w, size=k).tolist()

        def draw():
            j = int(rng.integers(0, k))
            # one call of two normals returns and consumes what two scalar calls do
            dr, dc = rng.normal(0.0, spec.spread, 2).tolist()
            return centers_r[j] + round(dr), centers_c[j] + round(dc)

    elif spec.pattern == "ring-arcs":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        n_arcs = max(1, spec.arcs)
        radii = (rng.uniform(0.12, 0.48, size=n_arcs) * min(h, w)).tolist()
        starts = rng.uniform(0.0, 2.0 * math.pi, size=n_arcs).tolist()
        spans = rng.uniform(0.3 * math.pi, 1.2 * math.pi, size=n_arcs).tolist()

        def draw():
            j = int(rng.integers(0, n_arcs))
            ang = starts[j] + rng.uniform(0.0, 1.0) * spans[j]
            rad = radii[j] + rng.normal(0.0, 1.0)
            return round(cy + rad * math.sin(ang)), round(cx + rad * math.cos(ang))

    else:
        return None
    return draw


def _cells(rng, spec: SceneSpec, n: int) -> list[int]:
    """n distinct cell keys: new in-grid candidates in draw order for at most
    200 n attempts, then the rest from a seeded permutation of the cells not taken."""
    h, w = spec.height, spec.width
    draw = _candidate_draw(rng, spec)
    taken: dict[int, None] = {}  # insertion-ordered: the cells in draw order
    for _ in range(200 * n if draw else 0):
        r, c = draw()
        if 0 <= r < h and 0 <= c < w:
            taken.setdefault(r * w + c)
            if len(taken) == n:
                break
    out = list(taken)
    if len(out) < n:
        perm = rng.permutation(h * w)
        out += perm[~np.isin(perm, out)][: n - len(out)].tolist()
    return out


def generate(spec: SceneSpec) -> PillarTensor:
    """Generate the scene for a spec; same spec -> same tensor, always."""
    n = spec.target_count
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    cells = _cells(rng, spec, n)
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
