"""Staged networks: planning, validation, execution, mode overrides."""

import inspect
import json
import re

import numpy as np
import pytest

from pillarconv import backbone, conv, importance
from pillarconv.backbone import (
    ConvMode,
    LayerSpec,
    NetworkSpec,
    SelectionSpec,
    StageSpec,
    dense_flops_of_spec,
    make_centerpoint_backbone,
    make_pillarnet_neck,
    make_pointpillars,
    network_from_json,
    network_to_json,
    override_topk_percent,
    plan_layers,
    preset_network,
    run_network,
    total_flops,
    validate_network,
    with_body_mode,
)
from pillarconv.conv import Kernel
from pillarconv.errors import SpecMismatchError
from pillarconv.scenes import SceneSpec, generate
from pillarconv.tensor import DenseGrid, from_dense, from_entries, selection_mask


def small_spec(t=2.0):
    return override_topk_percent(make_pointpillars(height=32, width=24, channels=8), t)


def small_scene(seed=0, density=0.15):
    return generate(SceneSpec(height=32, width=24, channels=8, density=density,
                              pattern="clustered", clusters=4, spread=2.0, seed=seed))


class TestPlanning:
    def test_pointpillars_layer_plan(self):
        plan = plan_layers(make_pointpillars())
        assert len(plan) == 22
        ids = [p.layer_id for p in plan]
        assert ids[:4] == ["s1.down", "s1.body0", "s1.body1", "s1.body2"]
        assert ids[4] == "s2.down"
        assert ids[-1] == "neck3.up2"
        down1 = plan[0]
        assert (down1.in_h, down1.in_w, down1.out_h, down1.out_w) == (496, 432, 248, 216)
        last = plan[-1]
        assert (last.out_h, last.out_w) == (496, 432)

    def test_grid_halves_per_stage(self):
        plan = plan_layers(make_pointpillars())
        grids = {p.layer_id: (p.out_h, p.out_w) for p in plan}
        assert grids["s1.body0"] == (248, 216)
        assert grids["s2.body0"] == (124, 108)
        assert grids["s3.body0"] == (62, 54)

    def test_dense_taps(self):
        plan = plan_layers(make_pointpillars())
        by_kind = {p.kind: p for p in plan}
        assert by_kind["downsample"].dense_taps == 4
        assert by_kind["body"].dense_taps == 9
        assert by_kind["deconv"].dense_taps == 1


class TestValidation:
    def test_presets_validate(self):
        for name in ("pointpillars", "centerpoint-backbone", "pillarnet-neck"):
            validate_network(preset_network(name))

    def test_channel_mismatch_rejected(self):
        spec = small_spec()
        bad_body = LayerSpec(mode=ConvMode.SUBMANIFOLD, c_in=99, c_out=64)
        stages = (StageSpec(spec.stages[0].downsample, (bad_body,)),) + spec.stages[1:]
        with pytest.raises(SpecMismatchError):
            validate_network(NetworkSpec("bad", 32, 24, 8, stages, spec.neck))

    def test_indivisible_grid_with_neck_rejected(self):
        with pytest.raises(SpecMismatchError):
            validate_network(make_pointpillars(height=30, width=24, channels=8))

    def test_selective_downsample_rejected(self):
        spec = small_spec()
        bad_down = LayerSpec(mode=ConvMode.SUBMANIFOLD, c_in=8, c_out=64,
                             k_h=2, k_w=2, stride=2)
        stages = (StageSpec(bad_down, spec.stages[0].body),) + spec.stages[1:]
        with pytest.raises(SpecMismatchError):
            validate_network(NetworkSpec("bad", 32, 24, 8, stages, spec.neck))

    def test_neck_chain_count_must_match_stages(self):
        spec = small_spec()
        with pytest.raises(SpecMismatchError):
            validate_network(NetworkSpec("bad", 32, 24, 8, spec.stages, spec.neck[:2]))

    def test_selective_needs_stride1(self):
        with pytest.raises(SpecMismatchError):
            LayerSpec(mode=ConvMode.SELECTIVE, c_in=4, c_out=4, k_h=2, k_w=2, stride=2)

    def test_selection_spec_requires_parameter(self):
        with pytest.raises(SpecMismatchError):
            SelectionSpec(kind="topk", t=None)
        with pytest.raises(SpecMismatchError):
            SelectionSpec(kind="threshold", theta=None)
        with pytest.raises(SpecMismatchError):
            SelectionSpec(kind="quantile", t=1.0)

    @pytest.mark.parametrize("sel", [{"kind": "topk", "t": "abc"},
                                     {"kind": "topk", "t": True},
                                     {"kind": "threshold", "theta": [0.5]},
                                     {"kind": "threshold", "theta": False}])
    def test_non_numeric_selection_parameter_rejected(self, sel):
        doc = json.loads(network_to_json(small_spec()))
        doc["stages"][0]["body"][0]["selection"] = sel
        with pytest.raises(SpecMismatchError, match="must be a number"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["c_in", "c_out", "k_h", "k_w", "stride"])
    @pytest.mark.parametrize("value", [3.0, True, "3", None])
    def test_layer_sizes_must_be_integers(self, field, value):
        sizes = dict(c_in=4, c_out=4, k_h=3, k_w=3, stride=1)
        sizes[field] = value
        with pytest.raises(SpecMismatchError, match=f"{field} must be an integer"):
            LayerSpec(mode=ConvMode.SPARSE_FULL, **sizes)

    @pytest.mark.parametrize("field", ["height", "width", "channels"])
    @pytest.mark.parametrize("value", [32.0, False, "32", None])
    def test_network_sizes_must_be_integers(self, field, value):
        spec = small_spec()
        sizes = dict(height=32, width=24, channels=8)
        sizes[field] = value
        with pytest.raises(SpecMismatchError, match=f"{field} must be an integer"):
            NetworkSpec("bad", stages=spec.stages, neck=spec.neck, **sizes)

    def test_numpy_integer_sizes_accepted(self):
        layer = LayerSpec(mode=ConvMode.SUBMANIFOLD, c_in=np.int64(4), c_out=np.int32(4),
                          k_h=np.int64(3), k_w=np.int64(3), stride=np.int64(1))
        assert layer.c_in == 4
        spec = small_spec()
        net = NetworkSpec("np", np.int64(32), np.int64(24), np.int32(8), spec.stages, spec.neck)
        assert net.height == 32

    @pytest.mark.parametrize("path, value", [
        (("input", "height"), 32.0),
        (("input", "channels"), True),
        (("stages", 0, "downsample", "c_in"), 8.0),
        (("stages", 1, "downsample", "c_out"), "128"),
        (("stages", 0, "body", 0, "stride"), True),
        (("stages", 0, "body", 0, "kernel"), [3.0, 3.0]),
    ], ids=["height-float", "channels-bool", "c_in-float", "c_out-string", "stride-bool",
            "kernel-floats"])
    def test_json_non_integer_size_rejected(self, path, value):
        doc = json.loads(network_to_json(small_spec()))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(SpecMismatchError, match="must be an integer"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize("kernel", [[3], [3, 3, 3], [], 3, "33", {"h": 3, "w": 3}], ids=repr)
    def test_json_kernel_needs_two_entries(self, kernel):
        doc = json.loads(network_to_json(small_spec()))
        doc["stages"][0]["body"][0]["kernel"] = kernel
        with pytest.raises(SpecMismatchError, match="kernel must be"):
            network_from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[1]", "3", '"net"', "null"])
    def test_json_document_must_be_an_object(self, text):
        with pytest.raises(SpecMismatchError, match="must be an object"):
            network_from_json(text)

    @staticmethod
    def one_stage(down, body=()):
        return NetworkSpec("bad", 8, 8, 4, (StageSpec(down, body),), ())

    @pytest.mark.parametrize("build, message", [
        (lambda: LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=4, c_out=4, activation="gelu"),
         "unknown activation 'gelu'"),
        (lambda: validate_network(NetworkSpec("bad", 8, 8, 4, (), ())),
         "network needs at least one stage"),
        (lambda: validate_network(TestValidation.one_stage(
            LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=4, c_out=4, k_h=2, k_w=2, stride=2),
            (LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=4, c_out=4, stride=2),))),
         "s1.body0 must be stride 1"),
        (lambda: validate_network(TestValidation.one_stage(
            LayerSpec(mode=ConvMode.SPARSE_FULL, c_in=4, c_out=4))),
         "s1.down must be 2x2 stride-2"),
        # 7x7 halves to 4, 2 and 1; every neck chain doubles back to 8x8
        (lambda: validate_network(make_pointpillars(7, 7, 8)),
         "grid 7x7 must be divisible by 8 to use a neck"),
        (lambda: preset_network("bogus"), "unknown network preset 'bogus'"),
    ], ids=["activation", "no-stages", "body-stride", "strided-shape", "indivisible-grid",
            "preset"])
    def test_error_paths(self, build, message):
        with pytest.raises(SpecMismatchError, match=re.escape(message)):
            build()


class TestJsonRoundTrip:
    @pytest.mark.parametrize("name", ["pointpillars", "centerpoint-backbone",
                                      "pillarnet-neck"])
    def test_preset_round_trips(self, name):
        spec = preset_network(name)
        assert network_from_json(network_to_json(spec)) == spec

    def test_threshold_selection_round_trips(self):
        spec = small_spec()
        sel = SelectionSpec(kind="threshold", t=None, theta=0.25)
        body = tuple(
            LayerSpec(mode=ConvMode.SELECTIVE, c_in=64, c_out=64, selection=sel)
            for _ in range(2)
        )
        stages = (StageSpec(spec.stages[0].downsample, body),) + spec.stages[1:]
        spec2 = NetworkSpec("thresholded", 32, 24, 8, stages, spec.neck)
        assert network_from_json(network_to_json(spec2)) == spec2

    def test_garbage_rejected(self):
        with pytest.raises(SpecMismatchError):
            network_from_json('{"name": "x"}')


class TestRunNetwork:
    def test_output_lands_on_input_grid_with_concat_channels(self):
        res = run_network(small_scene(), small_spec())
        assert (res.output.height, res.output.width) == (32, 24)
        assert res.output.channels == 128 * 3
        assert len(res.reports) == 22
        assert len(res.traces) == 22

    def test_report_chain_is_consistent(self):
        res = run_network(small_scene(), small_spec())
        trunk = [r for r in res.reports if not r.layer_id.startswith("neck")]
        for prev, cur in zip(trunk, trunk[1:]):
            assert cur.active_in == prev.active_out
        for r in res.reports:
            assert 0 <= r.selected <= r.active_in
            assert r.density_out == pytest.approx(r.active_out / (r.plan.out_h * r.plan.out_w))
            assert r.flops > 0

    def test_weights_seed_controls_output(self):
        t = small_scene()
        a = run_network(t, small_spec(), weights_seed=1)
        b = run_network(t, small_spec(), weights_seed=1)
        c = run_network(t, small_spec(), weights_seed=2)
        assert np.array_equal(a.output.features, b.output.features)
        assert not np.array_equal(a.output.features, c.output.features)

    def test_scene_must_match_spec_dims(self):
        with pytest.raises(SpecMismatchError):
            run_network(small_scene(), make_pointpillars())

    def test_explicit_kernels_must_cover_the_plan(self):
        with pytest.raises(SpecMismatchError):
            run_network(small_scene(), small_spec(), weights=[])

    def test_explicit_kernels_are_checked_before_any_layer_runs(self, monkeypatch):
        spec = small_spec()
        plan = plan_layers(spec)
        weights = [backbone._layer_kernel(p, i, 0) for i, p in enumerate(plan)]
        weights[-1] = Kernel.seeded(2, 2, 128, 64, 2)  # neck3.up2 writes 128 channels
        calls = []

        def counted(f):
            def call(*args, **kwargs):
                calls.append(f.__name__)
                return f(*args, **kwargs)
            return call

        for name in ("execute_rulebook", "dense_conv_oracle", "dense_deconv_oracle"):
            monkeypatch.setattr(backbone, name, counted(getattr(backbone, name)))
        with pytest.raises(SpecMismatchError, match="kernel for neck3.up2 does not match"):
            run_network(small_scene(), spec, weights=weights)
        assert calls == []
        weights[-1] = backbone._layer_kernel(plan[-1], len(plan) - 1, 0)
        run_network(small_scene(), spec, weights=weights)  # the counters are live
        assert calls.count("execute_rulebook") == len(plan)

    def test_traces_expose_simulator_counts(self):
        res = run_network(small_scene(), small_spec())
        assert res.traces is res.reports
        by_id = {r.layer_id: r for r in res.reports}
        body = by_id["s1.body0"]
        assert body.flags is not None
        assert body.flags.shape == (body.active_in,)
        assert body.n_per_offset.sum() > 0
        assert body.selected == np.count_nonzero(body.flags)
        down = by_id["s1.down"]
        assert down.flags is None
        assert [r.plan for r in res.reports] == plan_layers(small_spec())

    @pytest.mark.parametrize("mode", list(ConvMode))
    def test_flags_are_recorded_where_a_selection_ran(self, mode):
        res = run_network(small_scene(), with_body_mode(small_spec(t=30.0), mode))
        for r in res.reports:
            if r.plan.spec.mode is ConvMode.SELECTIVE:
                assert r.flags.dtype == bool and r.flags.shape == (r.active_in,)
                assert r.selected == np.count_nonzero(r.flags) > 0
            else:
                assert r.flags is None and r.selected == 0

    def test_each_selective_layer_builds_its_mask_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return selection_mask(*args)

        monkeypatch.setattr(conv, "selection_mask", counting)
        monkeypatch.setattr(importance, "selection_mask", counting)
        res = run_network(small_scene(), small_spec())
        selective = [r for r in res.reports if r.plan.spec.mode is ConvMode.SELECTIVE]
        assert selective and len(calls) == len(selective)

    def test_empty_scene_flows_through(self):
        t = generate(SceneSpec(height=32, width=24, channels=8, density=0.0, seed=0))
        res = run_network(t, small_spec())
        assert res.output.n_active == 0


class TestKernelCache:
    def test_second_run_is_byte_identical(self):
        t = small_scene()
        a = run_network(t, small_spec(), weights_seed=5)
        b = run_network(t, small_spec(), weights_seed=5)
        assert a.output.features.tobytes() == b.output.features.tobytes()
        assert np.array_equal(a.output.rc, b.output.rc)

    def test_cached_kernel_equals_a_fresh_seeded_one(self):
        plan = plan_layers(small_spec())
        for ordinal, p in enumerate(plan):
            cached = backbone._layer_kernel(p, ordinal, 9)
            assert backbone._layer_kernel(p, ordinal, 9) is cached
            child = (9 * 1_000_003 + ordinal) % (1 << 63)
            s = p.spec
            fresh = Kernel.seeded(s.k_h, s.k_w, s.c_in, s.c_out, s.stride, seed=child)
            assert cached.weights.dtype == np.float32
            assert cached.weights.tobytes() == fresh.weights.tobytes()
            assert cached.bias.tobytes() == fresh.bias.tobytes()
            assert not cached.weights.flags.writeable and not cached.bias.flags.writeable

    def test_weights_seed_selects_other_kernels(self):
        p = plan_layers(small_spec())[1]
        a = backbone._layer_kernel(p, 1, 3)
        b = backbone._layer_kernel(p, 1, 4)
        assert a.weights.tobytes() != b.weights.tobytes()

    def test_cache_size_is_the_module_constant(self):
        assert backbone._seeded_kernel.cache_info().maxsize == backbone.KERNEL_CACHE_SIZE
        # one preset's kernels fit with room for another seed's
        assert backbone.KERNEL_CACHE_SIZE >= 2 * len(plan_layers(small_spec()))


class TestModeEquivalences:
    def test_t0_equals_submanifold_bitwise(self):
        t = small_scene(seed=3)
        sd0 = run_network(t, override_topk_percent(small_spec(), 0.0))
        subm = run_network(t, with_body_mode(small_spec(), ConvMode.SUBMANIFOLD))
        assert sd0.output.coords == subm.output.coords
        assert np.array_equal(sd0.output.features, subm.output.features)

    def test_t100_equals_sparse_bitwise(self):
        t = small_scene(seed=3)
        sd100 = run_network(t, override_topk_percent(small_spec(), 100.0))
        sparse = run_network(t, with_body_mode(small_spec(), ConvMode.SPARSE_FULL))
        assert sd100.output.coords == sparse.output.coords
        assert np.array_equal(sd100.output.features, sparse.output.features)

    def test_sparse_network_matches_dense_network(self):
        # with zero bias the dense mirror is zero off the dilated set, so the
        # full-sparse run must reproduce it exactly on its own support
        t = small_scene(seed=4)
        sparse = run_network(t, with_body_mode(small_spec(), ConvMode.SPARSE_FULL))
        dense = run_network(t, with_body_mode(small_spec(), ConvMode.DENSE))
        a = sparse.output.to_dense().data
        b = dense.output.to_dense().data
        np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-4)

    def test_dense_run_matches_analytic_flop_count(self):
        t = small_scene(seed=5)
        spec = with_body_mode(small_spec(), ConvMode.DENSE)
        res = run_network(t, spec)
        assert total_flops(res.reports) == dense_flops_of_spec(small_spec())


class TestOverridesAndComparison:
    def test_override_topk_percent_touches_only_selective(self):
        spec = override_topk_percent(small_spec(t=2.0), 7.0)
        for stage in spec.stages:
            assert stage.downsample.selection is None
            for b in stage.body:
                assert b.selection.t == 7.0

    def test_with_body_mode_dense_forces_everything_dense(self):
        spec = with_body_mode(small_spec(), ConvMode.DENSE)
        plan = plan_layers(spec)
        assert all(p.spec.mode is ConvMode.DENSE for p in plan)

    @pytest.mark.parametrize("mode", list(ConvMode))
    def test_modes_given_by_value_are_conv_modes(self, mode):
        layer = LayerSpec(mode=mode.value, c_in=4, c_out=4)
        assert layer.mode is mode and layer == LayerSpec(mode=mode, c_in=4, c_out=4)
        spec = with_body_mode(small_spec(), mode.value)
        assert spec == with_body_mode(small_spec(), mode)
        res = run_network(small_scene(), spec)
        assert [r.plan.spec.mode for r in res.reports].count(mode) >= 13

    def test_unknown_mode_rejected(self):
        with pytest.raises(SpecMismatchError, match="unknown mode 'bogus'"):
            LayerSpec(mode="bogus", c_in=4, c_out=4)
        with pytest.raises(SpecMismatchError, match="unknown mode 'bogus'"):
            with_body_mode(small_spec(), "bogus")

    def test_with_body_mode_subm_keeps_strided_sparse(self):
        spec = with_body_mode(small_spec(), ConvMode.SUBMANIFOLD)
        for p in plan_layers(spec):
            if p.kind == "body":
                assert p.spec.mode is ConvMode.SUBMANIFOLD
            else:
                assert p.spec.mode is ConvMode.SPARSE_FULL

    def test_compare_modes_orders_flops(self):
        t, spec = small_scene(seed=6), small_spec()
        variants = [
            with_body_mode(spec, ConvMode.SUBMANIFOLD),
            override_topk_percent(with_body_mode(spec, ConvMode.SELECTIVE), 2.0),
            override_topk_percent(with_body_mode(spec, ConvMode.SELECTIVE), 20.0),
            with_body_mode(spec, ConvMode.SPARSE_FULL),
        ]
        totals = [total_flops(run_network(t, v).reports) for v in variants]
        totals.append(dense_flops_of_spec(spec))
        assert totals == sorted(totals)


class TestPresetShapes:
    @pytest.mark.parametrize("name, t", [("pointpillars", 2.0), ("centerpoint-backbone", 4.0),
                                         ("pillarnet-neck", 4.0)])
    def test_t_is_set_only_by_the_override(self, name, t):
        make = backbone.NETWORK_PRESETS[name]
        assert list(inspect.signature(make).parameters) == ["height", "width", "channels"]
        spec = make()
        selective = [p.spec for p in plan_layers(spec) if p.spec.mode is ConvMode.SELECTIVE]
        assert selective and all(layer.selection.t == t for layer in selective)
        assert override_topk_percent(spec, t) == spec

    def test_pointpillars_channels(self):
        spec = make_pointpillars()
        assert spec.stages[0].downsample.c_out == 64
        assert spec.stages[1].downsample.c_out == 128
        assert spec.stages[2].downsample.c_out == 256
        assert [len(s.body) for s in spec.stages] == [3, 5, 5]
        assert [len(chain) for chain in spec.neck] == [1, 2, 3]
        assert all(chain[-1].c_out == 128 for chain in spec.neck)

    def test_centerpoint_defaults(self):
        spec = make_centerpoint_backbone()
        assert (spec.height, spec.width) == (512, 512)
        sel = spec.stages[0].body[0].selection
        assert sel.t == 4.0

    def test_pillarnet_neck_modes(self):
        spec = make_pillarnet_neck()
        assert all(b.mode is ConvMode.SUBMANIFOLD for b in spec.stages[0].body)
        assert all(b.mode is ConvMode.SUBMANIFOLD for b in spec.stages[1].body)
        assert all(b.mode is ConvMode.SELECTIVE for b in spec.stages[2].body)


class TestActivation:
    @staticmethod
    def one_stage(mode, activation):
        strided = ConvMode.DENSE if mode is ConvMode.DENSE else ConvMode.SPARSE_FULL
        down = LayerSpec(mode=strided, c_in=8, c_out=16, k_h=2, k_w=2, stride=2)
        body = LayerSpec(mode=mode, c_in=16, c_out=16, activation=activation)
        return NetworkSpec("act", 32, 24, 8, (StageSpec(down, (body,)),), ())

    @pytest.mark.parametrize("mode", [ConvMode.SPARSE_FULL, ConvMode.DENSE])
    def test_none_keeps_negative_features_and_relu_does_not(self, mode):
        t = small_scene()
        none = run_network(t, self.one_stage(mode, "none")).output
        relu = run_network(t, self.one_stage(mode, "relu")).output
        assert (none.features < 0).any()
        assert (relu.features >= 0).all()
        if mode is ConvMode.SPARSE_FULL:
            assert np.array_equal(relu.rc, none.rc)
            assert np.array_equal(relu.features, np.maximum(none.features, 0))

    def test_dense_relu_equals_from_dense_of_the_clamped_grid(self):
        # one dense 2x2 stride-2 layer reading each block's top-left cell
        # scaled by 1/4 (its other taps weigh zero): a NaN cell, a cell whose
        # outputs are all negative, one that underflows to -0.0 beside +0.0,
        # and one that holds -0.0 beside a positive value
        down = LayerSpec(mode=ConvMode.DENSE, c_in=2, c_out=2, k_h=2, k_w=2, stride=2)
        spec = NetworkSpec("relu", 4, 6, 2, (StageSpec(down, ()),), ())
        weights = np.zeros((4, 2, 2), dtype=np.float32)
        weights[0] = 0.25 * np.eye(2)
        k = Kernel(2, 2, 2, 2, 2, weights, np.array([0.0, -0.0], dtype=np.float32))
        cells = {(0, 0): [np.nan, -1.0], (0, 2): [-1.0, -2.0], (0, 4): [-1e-45, 4.0],
                 (1, 1): [1.0, -3.0], (2, 0): [-1e-45, -0.0], (2, 2): [2.0, 0.0],
                 (3, 5): [np.nan, np.nan]}
        t = from_entries(4, 6, 2, cells.items())
        res = run_network(t, spec, weights=[k])
        clamped = np.maximum(conv.dense_conv_oracle(t.to_dense(), k).data, 0)
        want = from_dense(DenseGrid(clamped))
        assert want.rc.tolist() == [[0, 0], [0, 2], [1, 1], [1, 2]]
        assert np.array_equal(res.output.rc, want.rc)
        assert res.output.features.tobytes() == want.features.tobytes()
        rec = res.reports[0]
        assert np.array_equal(rec.in_coords, t.rc) and rec.flags is None
        assert (rec.active_out, rec.flops, rec.n_per_offset) == (4, rec.plan.dense_flops, None)

    def test_none_round_trips_through_json(self):
        spec = self.one_stage(ConvMode.SUBMANIFOLD, "none")
        back = network_from_json(network_to_json(spec))
        assert back == spec
        assert back.stages[0].body[0].activation == "none"
