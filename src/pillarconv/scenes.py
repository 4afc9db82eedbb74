"""Deterministic synthetic pillar scenes.

Scenes are generated from a spec plus a seed through numpy's Philox
counter-based generator, so the same spec and seed produce the same tensor
on every platform. The generator places exactly round(density * h * w)
unique active cells.

One sampler places the cells of every pattern. Each attempt draws a
candidate (row, col), and a new in-grid candidate is kept in draw order,
until the target count or 200 attempts per cell. If the pattern saturates
first (tiny grid, high density), the rest is filled from a seeded
permutation of the cells not yet taken, so the count is always exact.
Patterns differ only in their draws:

* uniform: no candidates at all, so every cell comes from the permutation;
* clustered: a few Gaussian blobs, the typical look of objects and walls in
  a bird's-eye-view grid; an attempt draws a blob (``integers(0, clusters)``),
  then row and column offsets (two ``normal(0, spread)``);
* ring-arcs: arc segments around the grid center at random radii, a crude
  stand-in for range-scan returns; an attempt draws an arc
  (``integers(0, arcs)``), an angle (``uniform(0, 1)``) and a radius jitter
  (``normal(0, 1)``).

The attempts are not made by calling the Generator once per draw: they are
replayed from the raw uint64 output of its Philox bit generator, which is
byte-exact because every draw is a fixed function of that output.

* ``integers(0, k)`` is Lemire's bounded integer (Lemire 2019) on one uint32:
  ``m = v * k``, result ``m >> 32``, rejected and drawn again while the low
  half of ``m`` is below ``(2**32 - k) % k``. No draw happens when k = 1. The
  uint32s are the low then the high half of one uint64; the high half is
  buffered (``has_uint32``/``uinteger``) and serves the next uint32 request
  even after uint64 draws in between.
* ``normal`` is numpy's 256-layer ziggurat (Marsaglia & Tsang 2000) on one
  uint64, with the tables of ``ziggurat``: the fast path returns
  ``rabs * wi[idx]`` when ``rabs < ki[idx]``; the wedge and the tail take
  further uint64s and may start over.
* ``uniform(0, 1)`` is ``(u64 >> 11) * 2**-53``.

So with k > 1 two attempts normally take five uint64s: one for both integer
halves, then the value draws of each attempt; with k = 1 an attempt is its
two value draws. The replay decodes ``_CHUNK`` raw draws per pass:

* the normal at every position at once: the fast path and the wedge test
  vectorised (the wedge's ``exp`` by libm, as numpy's C takes it), a rejected
  wedge as the normal two draws on, and the tail one draw at a time
  (``_normal_at``);
* from that, where the pair of attempts starting at each position ends. The
  irregular pairs, those with a Lemire rejection, are replayed attempt by
  attempt on the same raw draws, as is an attempt that starts on a buffered
  half;
* the walk through that map from the current position, by pointer doubling;
* the candidates, placed with the same float64 operations scalar calls make
  (``np.rint`` rounds half to even like ``round``; ``math.sin``/``math.cos``
  per angle for arcs). New in-grid cells are kept in draw order against a
  boolean grid, up to the n-th new cell or the attempt limit.

The Philox state is then set to the exact consumed position, buffered half
included, so the fill and the feature draw see what they would after scalar
calls. Every value is the same IEEE operation on the same bits as in numpy's
C, so the replay is exact, not close. ``tests/test_scenes.py`` keeps the
scalar loop as the oracle and checks the replay against numpy's own streams
draw for draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DensityOverflowError, SpecMismatchError
from .tensor import FEATURE_DTYPE, PillarTensor, _freeze, _proven, _require_grid, coords_of_keys
from .util import _require_size, require_fields
from .ziggurat import FI, KI, WI

PATTERNS = ("uniform", "clustered", "ring-arcs")
FEATURE_KINDS = ("gaussian", "constant")

_CHUNK = 1 << 14  # raw draws decoded per pass; bounds the replay's working memory
_LOW = 0xFFFFFFFF
_TO_UNIT = 1.0 / 9007199254740992.0  # 2**-53
_TAIL_R = 3.6541528853610087963519472518  # where the ziggurat's tail starts
_TAIL_INV_R = 0.27366123732975827203338247596
_WI = np.array(WI)
_KI = np.array(KI, dtype=np.uint64)
_FI = np.array(FI)


def check_seed(seed: int) -> None:
    """Philox keys are 128-bit: a seed outside [0, 2**128) cannot start a stream."""
    if not 0 <= seed < 2**128:
        raise SpecMismatchError(f"seed {seed} must be in [0, 2**128)")


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
        _require_grid(self.height, self.width, SpecMismatchError)
        for name in ("channels", "clusters", "arcs"):
            _require_size(name, getattr(self, name), SpecMismatchError)
        _require_size("seed", self.seed, SpecMismatchError, 0)
        require_fields(self, ("density", "spread", "constant_value"), SpecMismatchError)
        if not (math.isfinite(self.density) and self.density >= 0):
            raise SpecMismatchError(f"density {self.density} must be finite and >= 0")
        if self.density > 1:
            raise DensityOverflowError(f"density {self.density} asks for more cells than exist")
        if not (math.isfinite(self.spread) and self.spread >= 0):
            raise SpecMismatchError(f"spread {self.spread} must be finite and >= 0")
        # one uint32 Lemire draw picks a cluster or an arc
        for name in ("clusters", "arcs"):
            if getattr(self, name) >= 2**32:
                raise SpecMismatchError(f"{name} {getattr(self, name)} must be < 2**32")
        if self.pattern not in PATTERNS:
            raise SpecMismatchError(f"unknown pattern {self.pattern!r}, expected {PATTERNS}")
        if self.features not in FEATURE_KINDS:
            raise SpecMismatchError(f"unknown features {self.features!r}")
        # compared, not cast: a cast of a value beyond float32 warns and gives inf
        if not abs(self.constant_value) <= float(np.finfo(FEATURE_DTYPE).max):
            raise SpecMismatchError(
                f"constant_value {self.constant_value} must be finite and within float32 range"
            )
        check_seed(self.seed)

    @property
    def target_count(self) -> int:
        return int(round(self.density * self.height * self.width))


def _pattern(rng, spec: SceneSpec):
    """Make the pattern's set-up draws; return its attempt as (k, value draws, place).

    An attempt is ``integers(0, k)`` (no draw when k = 1), then one draw per
    entry of the value draws ("normal" or "unit"); ``place(j, *values)`` maps
    arrays of them to float (row, col) candidates. Uniform makes no attempts.
    """
    h, w = spec.height, spec.width
    if spec.pattern == "clustered":
        centers_r = rng.integers(0, h, size=spec.clusters).astype(np.float64)
        centers_c = rng.integers(0, w, size=spec.clusters).astype(np.float64)

        def place(j, dr, dc):  # normal(0, spread) is 0.0 + spread * z
            return centers_r[j] + np.rint(spec.spread * dr), centers_c[j] + np.rint(spec.spread * dc)

        return spec.clusters, ("normal", "normal"), place
    if spec.pattern == "ring-arcs":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        radii = rng.uniform(0.12, 0.48, size=spec.arcs) * min(h, w)
        starts = rng.uniform(0.0, 2.0 * math.pi, size=spec.arcs)
        spans = rng.uniform(0.3 * math.pi, 1.2 * math.pi, size=spec.arcs)

        def place(j, u, z):
            ang = (starts[j] + u * spans[j]).tolist()
            rad = radii[j] + z
            # libm per angle, as scalar calls take it; numpy's sin may differ in an ulp
            sin = np.fromiter(map(math.sin, ang), np.float64, len(ang))
            cos = np.fromiter(map(math.cos, ang), np.float64, len(ang))
            return np.rint(cy + rad * sin), np.rint(cx + rad * cos)

        return spec.arcs, ("unit", "normal"), place
    return None


def _normal_at(raw, q: int):
    """numpy's ``random_standard_normal`` on raw[q:]: (value, next q), or None if raw ends first."""
    while q < len(raw):
        r = int(raw[q]) >> 8
        idx = int(raw[q]) & 0xFF
        q += 1
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = -(rabs * WI[idx]) if r & 1 else rabs * WI[idx]
        if rabs < KI[idx]:
            return x, q
        if idx == 0:  # the tail
            while q + 1 < len(raw):
                xx = -_TAIL_INV_R * math.log1p(-(int(raw[q]) >> 11) * _TO_UNIT)
                yy = -math.log1p(-(int(raw[q + 1]) >> 11) * _TO_UNIT)
                q += 2
                if yy + yy > xx * xx:
                    return (-(_TAIL_R + xx) if (rabs >> 8) & 1 else _TAIL_R + xx), q
            return None
        if q == len(raw):
            return None
        q += 1  # the wedge
        if (FI[idx - 1] - FI[idx]) * ((int(raw[q - 1]) >> 11) * _TO_UNIT) + FI[idx] < math.exp(-0.5 * x * x):
            return x, q
    return None


def _normals(raw: np.ndarray):
    """Each raw position's standard normal and the position after it.

    Both are padded to len(raw) + 2 entries; a normal whose draws run past the
    end of raw ends at len(raw) + 1.
    """
    n = raw.size
    idx = (raw & 0xFF).astype(np.intp)
    rabs = (raw >> 9) & 0x000FFFFFFFFFFFFF
    z = np.zeros(n + 2)
    z[:n] = rabs * _WI[idx]
    np.negative(z[:n], out=z[:n], where=(raw & 0x100) != 0)
    nxt = np.minimum(np.arange(1, n + 3), n + 1)
    slow = np.flatnonzero(rabs >= _KI[idx])
    # the wedge: one more draw u keeps x if (fi[idx-1] - fi[idx]) u + fi[idx] < exp(-x*x/2)
    wedge = slow[(idx[slow] != 0) & (slow + 1 < n)]
    i, x = idx[wedge], z[wedge]
    bound = [math.exp(v) for v in (-0.5 * x * x).tolist()]  # libm's exp, as numpy's C takes it
    redo = np.zeros(n + 2, dtype=np.int8)  # 1: decode one by one (tail, end of raw), 2: rejected
    redo[slow] = 1
    redo[wedge] = np.where((_FI[i - 1] - _FI[i]) * ((raw[wedge + 1] >> 11) * _TO_UNIT) + _FI[i] < bound, 0, 2)
    nxt[wedge[redo[wedge] == 0]] += 1
    # last to first, so that a rejected wedge takes the normal two draws on
    for q in np.flatnonzero(redo)[::-1].tolist():
        z[q], nxt[q] = (z[q + 2], nxt[q + 2]) if redo[q] == 2 else (_normal_at(raw, q) or (0.0, n + 1))
    return z, nxt


def _orbit(step: np.ndarray, p: int, n: int) -> np.ndarray:
    """p, step[p], step[step[p]], ... while at most n.

    Steps only move forward and n + 1 is a fixed point, so doubling the jump
    finds the orbit in log2(len) gathers.
    """
    orbit, jump = np.array([p]), step
    while orbit[-1] <= n:
        orbit = np.concatenate((orbit, jump[orbit]))
        jump = jump[jump]
    return orbit[: np.searchsorted(orbit, n, side="right")]


def _decode_pass(raw: np.ndarray, half: int, u: int, k: int, kinds: tuple, budget: int):
    """Decode the first attempts (at most budget) whose draws all lie in raw.

    Decoding starts at raw[0] with the buffered uint32 ``(half, u)``; an
    attempt is ``integers(0, k)`` (none if k = 1) and one draw per entry of
    kinds. Returns (j, values, ends): j and one array of values per kind, one
    entry per attempt, and ends[i] = (position, has_uint32, uinteger) after
    attempt i.
    """
    n = raw.size
    z, nxt = _normals(raw)
    unit = np.append((raw >> 11) * _TO_UNIT, [0.0, 0.0]) if "unit" in kinds else None
    succ = {"normal": nxt, "unit": np.minimum(np.arange(1, n + 3), n + 1)}
    paired = k > 1  # two attempts take the uint32 halves of one raw draw
    thr = (2**32 - k) % k

    def chain(start):  # the positions of each value draw, and the position after the last
        pos = [start]
        for kind in kinds:
            pos.append(succ[kind][pos[-1]])
        return pos[:-1], pos[-1]

    def replay(p, h, u):
        """Attempts from (p, h, u) one by one until one ends with no buffered half.

        Returns their (j, positions, end state) and the position after them,
        n + 1 if the next attempt does not fit.
        """
        records = []
        while True:
            while True:  # Lemire's rejection loop on buffered uint32 halves
                if h:
                    v, h = u, 0
                elif p < n:
                    v, u, h, p = int(raw[p]) & _LOW, int(raw[p]) >> 32, 1, p + 1
                else:
                    return records, n + 1
                if (v * k) & _LOW >= thr:
                    break
            pos, p = chain(p)
            p = int(p)
            if p > n:
                return records, n + 1
            records.append(((v * k) >> 32, [int(x) for x in pos], (p, h, u)))
            if not h:
                return records, p

    # step[p]: where the attempt (pair, if paired) from position p ends, n + 1 if it does not fit
    pos_a, end_a = chain(np.minimum(np.arange(n + 1) + paired, n + 1))
    step, irregular = end_a, {}
    if paired:
        m_lo, m_hi = (raw & _LOW) * np.uint64(k), (raw >> 32) * np.uint64(k)
        pos_b, step = chain(end_a)
        for p in np.flatnonzero(((m_lo & _LOW) < thr) | ((m_hi & _LOW) < thr)).tolist():
            irregular[p] = replay(p, 0, 0)  # a pair with a Lemire rejection
            step[p] = irregular[p][1]
    first, p = replay(0, half, u) if paired and half else ([], 0)  # starts on a buffered half
    orbit = _orbit(np.append(step, n + 1), p, n)[:-1]

    odd = np.zeros(n + 1, dtype=bool)
    odd[list(irregular)] = True
    size = np.full(n + 1, 1 + paired)
    for p, (records, _) in irregular.items():
        size[p] = len(records)
    start = len(first) + np.cumsum(size[orbit]) - size[orbit]
    orbit, start = orbit[start < budget], start[start < budget]
    total = len(first) + int(size[orbit].sum())
    j = np.zeros(total, dtype=np.int64)
    at = np.empty((len(kinds), total), dtype=np.intp)
    ends = np.empty((total, 3), dtype=np.int64)
    s, t = orbit[~odd[orbit]], start[~odd[orbit]]
    if paired:
        hi = raw[s] >> 32
        j[t], j[t + 1] = m_lo[s] >> 32, m_hi[s] >> 32
        for i in range(len(kinds)):
            at[i, t], at[i, t + 1] = pos_a[i][s], pos_b[i][s]
        ends[t] = np.column_stack((end_a[s], np.ones_like(s), hi))
        ends[t + 1] = np.column_stack((step[s], np.zeros_like(s), hi))
    else:
        for i in range(len(kinds)):
            at[i, t] = pos_a[i][s]
        ends[t] = (0, half, u)
        ends[t, 0] = end_a[s]
    records = list(enumerate(first))
    for p, t0 in zip(orbit[odd[orbit]].tolist(), start[odd[orbit]].tolist()):
        records += enumerate(irregular[p][0], t0)
    for i, (js, pos, end) in records:
        j[i], at[:, i], ends[i] = js, pos, end
    values = [(z if kind == "normal" else unit)[at[i, :budget]] for i, kind in enumerate(kinds)]
    return j[:budget], values, ends[:budget]


class _Replay:
    """A pattern's attempts, decoded from a Philox bit generator's raw draws a pass at a time.

    ``attempts(budget)`` decodes the attempts whose draws lie in the next
    ``_CHUNK`` raw draws without consuming them; ``advance(i)`` then leaves the
    bit generator exactly after the first i, buffered uint32 included.
    """

    def __init__(self, bit_generator, k: int, kinds: tuple):
        self.bg, self.k, self.kinds = bit_generator, k, kinds
        state = bit_generator.state
        self.half = (state["has_uint32"], state["uinteger"])
        self.size = _CHUNK

    def attempts(self, budget: int):
        self.snap = self.bg.state
        raw = self.bg.random_raw(self.size)
        j, values, self.ends = _decode_pass(raw, *self.half, self.k, self.kinds, budget)
        self.size = _CHUNK if len(j) else 2 * self.size  # a pass that fit no attempt reads further
        return j, values

    def advance(self, i: int) -> None:
        p, *self.half = (int(x) for x in self.ends[i - 1]) if i else (0, *self.half)
        self.bg.state = self.snap
        self.bg.random_raw(p, output=False)
        state = self.bg.state
        state["has_uint32"], state["uinteger"] = self.half
        self.bg.state = state


def _cells(rng, spec: SceneSpec, n: int) -> np.ndarray:
    """n distinct cell keys: new in-grid candidates in draw order for at most
    200 n attempts, then the rest from a seeded permutation of the cells not taken."""
    h, w = spec.height, spec.width
    taken = np.zeros(h * w, dtype=bool)
    parts = [np.empty(0, dtype=np.int64)]
    found = 0
    pattern = _pattern(rng, spec)
    if pattern is not None and n:
        k, kinds, place = pattern
        replay = _Replay(rng.bit_generator, k, kinds)
        budget = 200 * n
        while found < n and budget:
            j, values = replay.attempts(budget)
            r, c = place(j, *values)
            inside = np.flatnonzero((r >= 0) & (r < h) & (c >= 0) & (c < w))
            keys = r[inside].astype(np.int64) * w + c[inside].astype(np.int64)
            new = np.flatnonzero(~taken[keys])
            new = new[np.sort(np.unique(keys[new], return_index=True)[1])]  # first in this pass
            inside, keys = inside[new], keys[new]
            used = len(j)
            if found + len(keys) >= n:
                keys = keys[: n - found]
                used = inside[n - found - 1] + 1
            taken[keys] = True
            parts.append(keys)
            found += len(keys)
            budget -= used
            replay.advance(used)
    cells = np.concatenate(parts)
    if found < n:
        perm = rng.permutation(h * w)
        cells = np.concatenate((cells, perm[~taken[perm]][: n - found]))
    return cells


def generate(spec: SceneSpec) -> PillarTensor:
    """Generate the scene for a spec; same spec -> same tensor, always."""
    n = spec.target_count
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    keys = _cells(rng, spec, n)
    if spec.features == "gaussian":
        feats = rng.standard_normal((n, spec.channels)).astype(FEATURE_DTYPE)
    else:
        feats = np.full((n, spec.channels), spec.constant_value, dtype=FEATURE_DTYPE)
    # the sampler's keys are distinct cells of the checked grid, so sorted they
    # are a valid active set
    order = np.argsort(keys, kind="stable")
    rc = coords_of_keys(keys[order], spec.width)
    return _proven(PillarTensor, height=spec.height, width=spec.width, channels=spec.channels,
                   rc=_freeze(rc), features=_freeze(feats[order]))


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
