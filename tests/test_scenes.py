"""Synthetic scene generation: exact counts, determinism, spatial patterns,
and the raw-draw replay against numpy's own streams and the scalar sampler."""

import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from pillarconv import scenes
from pillarconv.errors import DensityOverflowError, SpecMismatchError
from pillarconv.scenes import SCENE_PRESETS, SceneSpec, generate, preset_scene
from pillarconv.ziggurat import KI


def scalar_cells(rng, spec, n):
    """The sampler as one Generator call per draw: the oracle ``scenes._cells`` replays.

    New in-grid candidates are kept in draw order for at most 200 n attempts,
    then the rest comes from a seeded permutation of the cells not taken.
    """
    h, w = spec.height, spec.width
    if spec.pattern == "clustered":
        centers_r = rng.integers(0, h, size=spec.clusters).tolist()
        centers_c = rng.integers(0, w, size=spec.clusters).tolist()

        def draw():
            j = int(rng.integers(0, spec.clusters))
            dr, dc = rng.normal(0.0, spec.spread, 2).tolist()
            return centers_r[j] + round(dr), centers_c[j] + round(dc)

    elif spec.pattern == "ring-arcs":
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        radii = (rng.uniform(0.12, 0.48, size=spec.arcs) * min(h, w)).tolist()
        starts = rng.uniform(0.0, 2.0 * math.pi, size=spec.arcs).tolist()
        spans = rng.uniform(0.3 * math.pi, 1.2 * math.pi, size=spec.arcs).tolist()

        def draw():
            j = int(rng.integers(0, spec.arcs))
            ang = starts[j] + rng.uniform(0.0, 1.0) * spans[j]
            rad = radii[j] + rng.normal(0.0, 1.0)
            return round(cy + rad * math.sin(ang)), round(cx + rad * math.cos(ang))

    else:
        draw = None
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
    return np.asarray(out, dtype=np.int64)


class TestCounts:
    @pytest.mark.parametrize("pattern", ["uniform", "clustered", "ring-arcs"])
    @pytest.mark.parametrize("density", [0.01, 0.08, 0.5])
    def test_exact_target_count(self, pattern, density):
        spec = SceneSpec(height=40, width=30, channels=2, density=density,
                         pattern=pattern, seed=3)
        t = generate(spec)
        assert t.n_active == round(density * 40 * 30)
        assert t.n_active == spec.target_count

    def test_full_density_covers_every_cell(self):
        for pattern in ("uniform", "clustered", "ring-arcs"):
            t = generate(SceneSpec(height=10, width=8, channels=1, density=1.0,
                                   pattern=pattern, seed=1))
            assert t.n_active == 80

    def test_density_above_one_rejected(self):
        with pytest.raises(DensityOverflowError):
            generate(SceneSpec(height=4, width=4, channels=1, density=1.3, seed=0))

    def test_tiny_density_rounds_to_zero(self):
        t = generate(SceneSpec(height=4, width=4, channels=1, density=0.01, seed=0))
        assert t.n_active == 0


class TestDeterminism:
    def test_same_seed_same_scene(self):
        spec = SceneSpec(height=24, width=24, channels=8, density=0.1,
                         pattern="clustered", seed=77)
        a, b = generate(spec), generate(spec)
        assert a.coords == b.coords
        assert np.array_equal(a.features, b.features)

    def test_different_seed_different_scene(self):
        base = dict(height=24, width=24, channels=8, density=0.1, pattern="clustered")
        a = generate(SceneSpec(seed=1, **base))
        b = generate(SceneSpec(seed=2, **base))
        assert a.coords != b.coords

    def test_feature_values_differ_per_cell(self):
        t = generate(SceneSpec(height=16, width=16, channels=4, density=0.2, seed=5))
        assert len({tuple(v) for v in t.features.tolist()}) == t.n_active


class TestFeatures:
    def test_gaussian_is_default(self):
        t = generate(SceneSpec(height=16, width=16, channels=4, density=0.3, seed=2))
        assert t.features.dtype == np.float32
        assert float(np.std(t.features)) > 0.5

    def test_constant_features(self):
        t = generate(SceneSpec(height=8, width=8, channels=3, density=0.25,
                               features="constant", constant_value=2.5, seed=2))
        assert np.all(t.features == 2.5)

    def test_unknown_feature_kind_rejected(self):
        with pytest.raises(SpecMismatchError):
            SceneSpec(height=4, width=4, channels=1, density=0.1, features="perlin")

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SpecMismatchError):
            SceneSpec(height=4, width=4, channels=1, density=0.1, pattern="spiral")


class TestPatterns:
    @staticmethod
    def mean_nn_distance(coords):
        pts = np.asarray(coords, dtype=np.float64)
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        np.fill_diagonal(d, np.inf)
        return float(d.min(axis=1).mean())

    def test_clustered_packs_tighter_than_uniform(self):
        base = dict(height=64, width=64, channels=1, density=0.03, seed=11)
        uni = generate(SceneSpec(pattern="uniform", **base))
        clu = generate(SceneSpec(pattern="clustered", **base))
        assert self.mean_nn_distance(clu.coords) < self.mean_nn_distance(uni.coords)

    def test_ring_arcs_avoid_the_center(self):
        t = generate(SceneSpec(height=64, width=64, channels=1, density=0.02,
                               pattern="ring-arcs", seed=4))
        pts = np.asarray(t.coords, dtype=np.float64) - 31.5
        radii = np.sqrt((pts ** 2).sum(axis=1))
        assert float(np.quantile(radii, 0.1)) > 3.0

    def test_cluster_saturation_falls_back_to_fill(self):
        # clusters cannot hold 60% of the grid; the generator must still
        # deliver the exact count without spinning
        t = generate(SceneSpec(height=32, width=32, channels=1, density=0.6,
                               pattern="clustered", clusters=2, spread=1.0, seed=6))
        assert t.n_active == round(0.6 * 32 * 32)


class TestPinnedBytes:
    """sha256 of rc and feature bytes: the draw order of every pattern, fill step included.

    The spread-0 cluster, the 16x16 clustered and the 12x12 and 8x6 ring-arcs
    specs saturate and reach the fill; uniform takes every cell from it.
    """

    CASES = [
        (dict(height=7, width=5, density=0.4, pattern="uniform", seed=0),
         "9dc1014898009e1f"),
        (dict(height=16, width=12, density=1.0, pattern="uniform", features="constant",
              constant_value=2.5, seed=2), "89fe76ca40971536"),
        (dict(height=9, width=9, density=0.0, pattern="uniform", seed=1), "e3b0c44298fc1c14"),
        (dict(height=24, width=20, density=0.1, pattern="clustered", seed=3),
         "048b7de336259bd5"),
        # one cluster with spread 0 places one cell, then the fill takes the rest
        (dict(height=12, width=10, density=0.5, pattern="clustered", clusters=1, spread=0.0,
              seed=4), "c1cd7cad99fc483b"),
        (dict(height=16, width=16, density=0.7, pattern="clustered", clusters=2, spread=1.0,
              seed=5), "334ba6603f634bcd"),
        (dict(height=1, width=1, density=1.0, pattern="clustered", seed=0), "7f9c305f747feaed"),
        (dict(height=10, width=8, density=0.0, pattern="clustered", seed=9), "e3b0c44298fc1c14"),
        (dict(height=32, width=32, density=0.05, pattern="ring-arcs", seed=4),
         "cfeece772ceee2c7"),
        (dict(height=12, width=12, density=0.9, pattern="ring-arcs", features="constant",
              constant_value=-1.0, seed=6), "c544de9451337206"),
        (dict(height=8, width=6, density=1.0, pattern="ring-arcs", arcs=1, seed=7),
         "fde56cda11054033"),
    ]

    @pytest.mark.parametrize("fields,digest", CASES)
    def test_scene_bytes(self, fields, digest):
        t = generate(SceneSpec(channels=3, **fields))
        h = hashlib.sha256(t.rc.astype(np.int64).tobytes() + t.features.tobytes())
        assert h.hexdigest()[:16] == digest


class TestPresets:
    def test_known_presets(self):
        assert set(SCENE_PRESETS) == {"kitti-like", "nuscenes-like"}

    def test_kitti_like_shape(self):
        spec = preset_scene("kitti-like", seed=3)
        assert (spec.height, spec.width, spec.channels) == (496, 432, 64)
        assert spec.pattern == "clustered"
        assert spec.density == pytest.approx(0.03)

    def test_nuscenes_like_shape(self):
        spec = preset_scene("nuscenes-like", seed=3)
        assert (spec.height, spec.width) == (512, 512)
        assert spec.density == pytest.approx(0.05)

    def test_overrides(self):
        spec = preset_scene("kitti-like", seed=9, height=64, width=56, density=0.08)
        assert (spec.height, spec.width) == (64, 56)
        assert spec.seed == 9

    def test_unknown_preset_rejected(self):
        with pytest.raises(SpecMismatchError):
            preset_scene("waymo-like")


class TestSpecLimits:
    @pytest.mark.parametrize("fields", [
        dict(channels=0), dict(channels=-1),
        dict(seed=-1), dict(seed=2**128),
        dict(clusters=0), dict(clusters=-1), dict(clusters=2**32),
        dict(arcs=0), dict(arcs=2**32),
        # every field has its type: integer sizes, counts and seed, real values
        dict(height=8.0), dict(width=True), dict(channels=2.0), dict(clusters=1.5),
        dict(arcs="6"), dict(seed=1.5), dict(seed=None), dict(density="0.5"),
        dict(spread=True), dict(constant_value=None),
        # a constant feature must be a finite float32
        dict(constant_value=float("nan")), dict(constant_value=float("inf")),
        dict(constant_value=1e39), dict(constant_value=-1e39),
    ])
    def test_rejected_before_any_draw(self, fields):
        base = dict(height=8, width=8, channels=2, density=0.5, pattern="clustered")
        with pytest.raises(SpecMismatchError):
            SceneSpec(**{**base, **fields})

    def test_range_ends_accepted(self):
        SceneSpec(height=8, width=8, channels=1, density=0.5, clusters=2**32 - 1, arcs=2**32 - 1)
        t = generate(SceneSpec(height=8, width=8, channels=1, density=0.5, pattern="clustered",
                               seed=2**128 - 1))
        assert t.n_active == 32


def run_sampler(cells, spec, primed):
    """Cells, then the draws that follow them; ``primed`` leaves a uint32 half buffered first."""
    rng = np.random.Generator(np.random.Philox(key=spec.seed))
    if primed:
        rng.integers(0, 5)
    keys = np.asarray(cells(rng, spec, spec.target_count)).tolist()
    half = rng.bit_generator.state["has_uint32"], rng.bit_generator.state["uinteger"]
    return keys, half, rng.integers(0, 7, 5).tolist(), rng.standard_normal(3).tobytes()


def scene_bytes(spec):
    t = generate(spec)
    return t.rc.astype(np.int64).tobytes() + t.features.tobytes()


class TestReplayMatchesScalarLoop:
    """The replay against the scalar oracle: cells, the Philox state after them, scene bytes.

    Marked specs reach the limit of 200 n attempts inside a pass and then the
    fill; the 1x40 clustered spec leaves a uint32 half buffered after its
    set-up draws (its rows draw nothing).
    """

    CASES = [
        dict(height=7, width=5, density=0.4, pattern="uniform"),
        dict(height=16, width=12, density=1.0, pattern="uniform"),
        dict(height=24, width=20, density=0.1, pattern="clustered"),
        dict(height=64, width=56, density=0.08, pattern="clustered", clusters=24, spread=2.5),
        dict(height=12, width=10, density=0.5, pattern="clustered", clusters=1, spread=0.0),  # limit
        dict(height=16, width=16, density=0.7, pattern="clustered", clusters=2, spread=1.0),  # limit
        dict(height=5, width=7, density=1.0, pattern="clustered", clusters=5, spread=0.0),  # limit
        dict(height=1, width=1, density=1.0, pattern="clustered"),
        dict(height=10, width=8, density=0.0, pattern="clustered"),
        dict(height=1, width=40, density=0.5, pattern="clustered", clusters=3, spread=2.0),
        dict(height=20, width=20, density=1.0, pattern="clustered", clusters=3, spread=4.0),  # limit
        dict(height=32, width=32, density=0.05, pattern="ring-arcs"),
        dict(height=12, width=12, density=1.0, pattern="ring-arcs"),  # limit
        dict(height=8, width=6, density=1.0, pattern="ring-arcs", arcs=1),  # limit
        dict(height=24, width=20, density=0.3, pattern="ring-arcs", arcs=12, seed=5),
    ]

    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("fields", CASES)
    def test_cells_and_state(self, fields, primed):
        spec = SceneSpec(channels=3, **fields)
        want = run_sampler(scalar_cells, spec, primed)
        for chunk in (scenes._CHUNK, 64):  # 64 raw draws: many passes, the limit mid-pass
            with mock.patch.object(scenes, "_CHUNK", chunk):
                assert run_sampler(scenes._cells, spec, primed) == want, chunk

    @pytest.mark.parametrize("fields", CASES)
    def test_scene_bytes(self, fields):
        spec = SceneSpec(channels=3, **fields)
        with mock.patch.object(scenes, "_cells", scalar_cells):
            want = scene_bytes(spec)
        assert scene_bytes(spec) == want

    @pytest.mark.parametrize("primed", [False, True])
    @pytest.mark.parametrize("pattern", ["clustered", "ring-arcs"])
    def test_passes_too_short_for_an_attempt(self, pattern, primed):
        # a pair of attempts takes at least five draws: most 3-draw passes fit none
        spec = SceneSpec(height=10, width=10, channels=2, density=0.08, pattern=pattern, seed=8)
        want = run_sampler(scalar_cells, spec, primed)
        with mock.patch.object(scenes, "_CHUNK", 3):
            assert run_sampler(scenes._cells, spec, primed) == want


def replayed(seed, k, kinds, count, primed=False):
    """count attempts decoded by ``scenes._Replay``, and its Generator left after them."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if primed:
        rng.integers(0, 5)
    replay = scenes._Replay(rng.bit_generator, k, kinds)
    js, values = [], []
    while count:
        j, v = replay.attempts(count)
        replay.advance(len(j))
        count -= len(j)
        js.append(j)
        values.append(v)
    return np.concatenate(js), [np.concatenate(col) for col in zip(*values)], rng


def assert_same_continuation(rng, ref):
    assert rng.bit_generator.state["has_uint32"] == ref.bit_generator.state["has_uint32"]
    assert rng.integers(0, 7, 5).tolist() == ref.integers(0, 7, 5).tolist()
    assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


class TestStreams:
    """The replay decodes numpy's own streams draw for draw, over 10**6 draws and more.

    A numpy whose Philox, Lemire or ziggurat stream changes fails here by name
    instead of silently changing every scene.
    """

    N = 1 << 20

    def test_standard_normal_with_wedge_and_tail(self):
        _, (z,), rng = replayed(1, 1, ("normal",), self.N)
        ref = np.random.Generator(np.random.Philox(key=1))
        assert z.tobytes() == ref.standard_normal(self.N).tobytes()
        assert_same_continuation(rng, ref)
        raw = np.random.Philox(key=1).random_raw(self.N)
        idx, rabs = raw & 0xFF, (raw >> 9) & (2**52 - 1)
        slow = rabs >= np.array(KI, dtype=np.uint64)[idx]
        assert np.count_nonzero(slow & (idx != 0)) > 5000  # wedge
        assert np.count_nonzero(slow & (idx == 0)) > 50  # tail
        assert np.count_nonzero(np.abs(z) > scenes._TAIL_R) > 50

    @pytest.mark.parametrize("k", [2, 3, 24, 1000, 2**32 - 1])
    def test_integers(self, k):
        j, _, rng = replayed(2, k, (), self.N)
        ref = np.random.Generator(np.random.Philox(key=2))
        assert np.array_equal(j, ref.integers(0, k, size=self.N))
        assert_same_continuation(rng, ref)

    def test_integers_with_frequent_rejections(self):
        k = 3 * 2**30  # Lemire rejects a uint32 when (v * k) mod 2**32 < 2**30: a quarter
        j, _, rng = replayed(3, k, (), self.N // 4)
        ref = np.random.Generator(np.random.Philox(key=3))
        assert np.array_equal(j, ref.integers(0, k, size=self.N // 4))
        assert_same_continuation(rng, ref)
        halves = np.random.Philox(key=3).random_raw(self.N // 8).view(np.uint32)
        rejected = (halves.astype(np.uint64) * k) % 2**32 < (2**32 - k) % k
        assert 0.2 < rejected.mean() < 0.3

    def test_uniform(self):
        _, (u,), rng = replayed(4, 1, ("unit",), self.N)
        ref = np.random.Generator(np.random.Philox(key=4))
        assert u.tobytes() == ref.uniform(0.0, 1.0, self.N).tobytes()
        assert_same_continuation(rng, ref)

    @pytest.mark.parametrize("k", [5, 3 * 2**30])
    @pytest.mark.parametrize("primed", [False, True])
    def test_uint32_halves_mixed_with_uint64_draws(self, k, primed):
        count = 1 << 16
        j, (z, u), rng = replayed(5, k, ("normal", "unit"), count, primed)
        ref = np.random.Generator(np.random.Philox(key=5))
        if primed:
            ref.integers(0, 5)
        want = [(int(ref.integers(0, k)), ref.standard_normal(), ref.uniform(0.0, 1.0))
                for _ in range(count)]
        assert list(zip(j.tolist(), z.tolist(), u.tolist())) == want
        assert_same_continuation(rng, ref)


class TestMemory:
    """The replay's passes stay within 2 MB of the traced peak of generate.

    The baseline is generate with the cells handed over ready-made: the feature
    draw and the sort that every sampler, the scalar loop included, is followed by.
    """

    @staticmethod
    def traced_peak(spec) -> int:
        tracemalloc.start()
        try:
            generate(spec)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", ["kitti-like", "nuscenes-like"])
    def test_peak_within_2mb_of_the_feature_draw(self, name):
        spec = preset_scene(name, seed=0)
        keys = scenes._cells(np.random.Generator(np.random.Philox(key=0)), spec, spec.target_count)
        with mock.patch.object(scenes, "_cells", lambda rng, spec, n: keys.copy()):
            baseline = self.traced_peak(spec)
        assert self.traced_peak(spec) <= baseline + 2 * 2**20
