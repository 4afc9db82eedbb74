"""Synthetic scene generation: exact counts, determinism, spatial patterns."""

import hashlib

import numpy as np
import pytest

from pillarconv.errors import DensityOverflowError, SpecMismatchError
from pillarconv.scenes import SCENE_PRESETS, SceneSpec, generate, preset_scene


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
