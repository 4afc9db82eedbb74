"""Accelerator cycle model: mapping stats, GEMM tiling, stalls, network totals."""

import json

import numpy as np
import pytest

from pillarconv.accel import (
    AcceleratorConfig,
    ZERO_MAPPING,
    MappingStats,
    cycles_to_dict,
    dense_baseline_cycles,
    gemm_cycles_sparse,
    generate_rules_pipelined,
    mapping_stats_strided,
    simulate_layer,
    simulate_network,
    stall_cycles,
)
from pillarconv.backbone import (
    NETWORK_PRESETS,
    ConvMode,
    make_pointpillars,
    network_from_json,
    network_to_json,
    preset_network,
    run_network,
    with_body_mode,
)
from pillarconv.conv import (
    Kernel,
    build_rulebook_selective,
    build_rulebook_sparse,
    build_rulebook_subm,
)
from pillarconv.errors import BadKernelShapeError, ShapeMismatchError, SpecMismatchError
from pillarconv.scenes import SceneSpec, generate

CFG = AcceleratorConfig()


def k3() -> Kernel:
    return Kernel(3, 3, 1, 1, 1, np.zeros((9, 1, 1), np.float32), np.zeros(1, np.float32))


class TestConfig:
    def test_sram_values(self):
        assert CFG.sram_values == 167424

    def test_default_array(self):
        assert (CFG.array_rows, CFG.array_cols) == (64, 64)

    @pytest.mark.parametrize("field,value", [
        ("array_rows", 0), ("array_cols", -4), ("sram_kbytes", -1), ("lat_align", 0),
        ("lat_merge", 0), ("lat_dilate", -1), ("lat_expand", 0),
    ])
    def test_sizes_below_their_minimum_rejected(self, field, value):
        with pytest.raises(SpecMismatchError, match=field):
            AcceleratorConfig(**{field: value})

    @pytest.mark.parametrize("field", [
        "array_rows", "array_cols", "sram_kbytes", "lat_align", "lat_merge", "lat_dilate",
        "lat_expand",
    ])
    @pytest.mark.parametrize("value", [2.5, 2.0, True])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(SpecMismatchError, match=f"{field} must be an integer"):
            AcceleratorConfig(**{field: value})

    def test_numpy_integer_sizes_accepted(self):
        cfg = AcceleratorConfig(array_rows=np.int64(8), sram_kbytes=np.int32(2))
        assert (cfg.array_rows, cfg.sram_values) == (8, 512)

    def test_no_sram_is_a_size(self):
        assert AcceleratorConfig(sram_kbytes=0).sram_values == 0


class TestDenseBaseline:
    def test_single_tile_1x1(self):
        # 4096 positions fill 64 row tiles of a 64-wide pass, plus fill
        assert dense_baseline_cycles(4096, 1, 64, 64, CFG) == 4224

    def test_first_stage_shape(self):
        assert dense_baseline_cycles(214272, 9, 64, 64, CFG) == 1928576

    def test_partial_tiles_round_up(self):
        assert dense_baseline_cycles(65, 1, 2, 64, CFG) == 2 * 1 * 2 + 128
        assert dense_baseline_cycles(64, 1, 2, 65, CFG) == 1 * 2 * 2 + 128


class TestGemm:
    def test_one_full_tile(self):
        assert gemm_cycles_sparse([64], 64, 64, CFG) == 64

    def test_ragged_tile_rounds_up(self):
        assert gemm_cycles_sparse([65], 64, 64, CFG) == 128
        assert gemm_cycles_sparse([1], 64, 64, CFG) == 64

    def test_offsets_sum_and_zeros_skip(self):
        assert gemm_cycles_sparse([64, 65, 0], 64, 64, CFG) == 192
        assert gemm_cycles_sparse([0] * 9, 64, 64, CFG) == 0

    def test_column_tiling(self):
        assert gemm_cycles_sparse([10], 32, 130, CFG) == 1 * 3 * 32

    def test_equals_a_per_offset_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.integers(0, 5000, size=int(rng.integers(0, 10)))
            cfg = AcceleratorConfig(array_rows=int(rng.integers(1, 130)),
                                    array_cols=int(rng.integers(1, 130)))
            c_in, c_out = (int(x) for x in rng.integers(1, 300, size=2))
            want = sum(-(-int(n) // cfg.array_rows) * -(-c_out // cfg.array_cols) * c_in
                       for n in counts if n)
            got = gemm_cycles_sparse(counts, c_in, c_out, cfg)
            assert got == want and type(got) is int


class TestStall:
    # working set = n_in*c_in + n_out*c_out + taps*c_in*c_out + c_out values
    def test_at_capacity_no_stall(self):
        assert stall_cycles(167422, 0, 1, 1, 1, CFG) == 0

    def test_one_value_over_costs_one_line(self):
        assert stall_cycles(167423, 0, 1, 1, 1, CFG) == 1

    def test_line_boundaries(self):
        assert stall_cycles(167422 + 64, 0, 1, 1, 1, CFG) == 1
        assert stall_cycles(167422 + 65, 0, 1, 1, 1, CFG) == 2

    def test_realistic_layer_at_capacity(self):
        assert stall_cycles(1000, 1039, 9, 64, 64, CFG) == 0
        assert stall_cycles(1000, 1040, 9, 64, 64, CFG) == 1


class TestMappingHandCases:
    def test_single_center_no_dilation(self):
        rb, stats = generate_rules_pipelined(5, 5, [(2, 2)], [False], k3())
        assert stats == MappingStats(3, 3, 3, 3, 3, 3)
        assert rb.output_coords == ((2, 2),)
        assert rb.n_tuples == 1

    def test_single_center_dilated(self):
        rb, stats = generate_rules_pipelined(5, 5, [(2, 2)], [True], k3())
        assert stats == MappingStats(3, 3, 3, 3, 3, 3)
        assert rb.n_outputs == 9
        assert rb.n_tuples == 9
        assert np.array_equal(np.sort(rb.w_idx), np.arange(9))

    def test_corner_clips_bands(self):
        _, stats = generate_rules_pipelined(5, 5, [(0, 0)], [True], k3())
        assert stats.bands == 2

    def test_downsample_block_merges(self):
        stats = mapping_stats_strided([(2, 4), (2, 5), (3, 4)], "downsample")
        assert stats == MappingStats(1, 3, 1, 0, 0, 3)

    def test_deconv_feeds_two_bands(self):
        stats = mapping_stats_strided([(1, 2)], "deconv")
        assert stats == MappingStats(2, 2, 2, 0, 2, 2)

    def test_empty_inputs(self):
        rb, stats = generate_rules_pipelined(5, 5, [], [], k3())
        assert stats == ZERO_MAPPING
        assert rb.n_tuples == 0
        assert mapping_stats_strided([], "downsample") == ZERO_MAPPING

    def test_alignment_latency_scales_cycles(self):
        slow = AcceleratorConfig(lat_align=5)
        stats = mapping_stats_strided([(2, 4), (2, 5), (3, 4)], "downsample", slow)
        assert stats.cycles == 15

    def test_unknown_strided_kind(self):
        with pytest.raises(ShapeMismatchError):
            mapping_stats_strided([(0, 0)], "sideways")


class TestPipelinedMatchesBuilders:
    def test_rejects_wrong_kernel(self):
        bad = Kernel(5, 5, 1, 1, 1, np.zeros((25, 1, 1), np.float32), np.zeros(1, np.float32))
        with pytest.raises(BadKernelShapeError):
            generate_rules_pipelined(8, 8, [(1, 1)], [True], bad)

    def test_rejects_mismatched_flags(self):
        with pytest.raises(ShapeMismatchError):
            generate_rules_pipelined(5, 5, [(2, 2)], [True, False], k3())

    def test_random_flag_mixes(self):
        k = k3()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            n = int(rng.integers(1, min(13, h * w)))
            cells = rng.choice(h * w, size=n, replace=False)
            active = sorted((int(i) // w, int(i) % w) for i in cells)
            flags = rng.random(n) < 0.4
            selected = [a for a, f in zip(active, flags) if f]
            got, stats = generate_rules_pipelined(h, w, active, flags, k)
            want = build_rulebook_selective(active, selected, k, (h, w))
            assert got.same_tuples(want)
            # every point feeds the clipped bands around its own row
            expect_align = sum(
                1 for r, _ in active for d in (-1, 0, 1) if 0 <= r + d < h
            )
            assert stats.alignment == expect_align
            assert stats.bands == len({r + d for r, _ in active for d in (-1, 0, 1)
                                       if 0 <= r + d < h})

    def test_all_false_is_submanifold(self):
        k = k3()
        rng = np.random.default_rng(7)
        cells = rng.choice(49, size=10, replace=False)
        active = sorted((int(i) // 7, int(i) % 7) for i in cells)
        got, _ = generate_rules_pipelined(7, 7, active, [False] * 10, k)
        assert got.same_tuples(build_rulebook_subm(active, k, (7, 7)))

    def test_all_true_is_sparse(self):
        k = k3()
        rng = np.random.default_rng(8)
        cells = rng.choice(49, size=10, replace=False)
        active = sorted((int(i) // 7, int(i) % 7) for i in cells)
        got, _ = generate_rules_pipelined(7, 7, active, [True] * 10, k)
        assert got.same_tuples(build_rulebook_sparse(active, k, (7, 7)))


def small_result(mode=None, seed=0):
    spec = make_pointpillars(height=32, width=24, channels=8)
    if mode is not None:
        spec = with_body_mode(spec, mode)
    scene = generate(SceneSpec(height=32, width=24, channels=8, density=0.15,
                               pattern="clustered", clusters=4, spread=2.0, seed=seed))
    return run_network(scene, spec), spec


class TestSimulateLayer:
    def test_dense_layer_is_its_baseline(self):
        res, _ = small_result(mode=ConvMode.DENSE)
        for tr in res.reports:
            lc = simulate_layer(tr)
            assert lc.mapping == ZERO_MAPPING
            assert lc.stall == 0
            assert lc.total == lc.dense_baseline

    def test_sparse_layer_components_recompute(self):
        res, _ = small_result()
        by_id = {tr.layer_id: tr for tr in res.reports}
        tr = by_id["s1.body0"]
        spec = tr.plan.spec
        lc = simulate_layer(tr)
        assert lc.gemm == gemm_cycles_sparse(tr.n_per_offset, spec.c_in, spec.c_out, CFG)
        assert lc.stall == stall_cycles(tr.in_coords.shape[0], tr.active_out,
                                        spec.k_h * spec.k_w, spec.c_in, spec.c_out, CFG)
        assert lc.total == lc.mapping.cycles + lc.gemm + lc.stall

    def test_strided_layers_use_strided_stats(self):
        res, _ = small_result()
        by_id = {tr.layer_id: tr for tr in res.reports}
        down = simulate_layer(by_id["s1.down"])
        up = simulate_layer(by_id["neck1.up0"])
        assert down.mapping.dilation_check == 0
        assert down.mapping.column_dilation == 0
        assert up.mapping.column_dilation == up.mapping.row_merge

    def test_1x1_layers_stream_each_row_once(self):
        # a 1x1 layer's band is one input row: every entry is aligned and
        # merged once, and nothing dilates
        doc = json.loads(network_to_json(make_pointpillars(height=32, width=24, channels=8)))
        for stage in doc["stages"]:
            for layer in stage["body"]:
                layer["kernel"] = [1, 1]
        scene = generate(SceneSpec(height=32, width=24, channels=8, density=0.15,
                                   pattern="clustered", clusters=4, spread=2.0, seed=2))
        res = run_network(scene, network_from_json(json.dumps(doc)))
        # the dilation latencies must not reach a 1x1 band
        for cfg in (AcceleratorConfig(lat_align=2, lat_merge=3),
                    AcceleratorConfig(lat_align=2, lat_merge=3, lat_dilate=5, lat_expand=7)):
            net = simulate_network(res.reports, cfg)
            body = [(r, lc) for r, lc in zip(res.reports, net.layers) if r.plan.kind == "body"]
            assert len(body) == 13 and all(r.plan.spec.k_h == 1 for r, _ in body)
            for rec, lc in body:
                _, per_row = np.unique(rec.in_coords[:, 0], return_counts=True)
                n = int(per_row.sum())
                cycles = int(np.maximum(2 * per_row, 3 * per_row).sum())
                assert lc.mapping == MappingStats(per_row.size, n, n, 0, 0, cycles)
            assert sum(lc.mapping.alignment for _, lc in body) > 0

    def test_unpriced_kernel_names_the_layer(self):
        doc = json.loads(network_to_json(make_pointpillars(height=32, width=24, channels=8)))
        for stage in doc["stages"]:
            for layer in stage["body"]:
                layer["kernel"] = [5, 5]
        scene = generate(SceneSpec(height=32, width=24, channels=8, density=0.15, seed=2))
        res = run_network(scene, network_from_json(json.dumps(doc)))
        by_id = {r.layer_id: r for r in res.reports}
        simulate_layer(by_id["s1.down"])
        with pytest.raises(BadKernelShapeError, match=r"^s1\.body0: the cycle model prices "
                                                      r"1x1 and 3x3 stride-1 layers, got 5x5$"):
            simulate_layer(by_id["s1.body0"])


class TestSimulateNetwork:
    def test_overlap_formula(self):
        res, _ = small_result()
        net = simulate_network(res.reports)
        per = net.layers
        want = per[0].mapping.cycles
        for prev, cur in zip(per, per[1:]):
            want += max(cur.mapping.cycles, prev.gemm)
        want += per[-1].gemm + sum(p.stall for p in per)
        assert net.total == want
        assert net.mapping == sum(p.mapping.cycles for p in per)
        assert net.gemm == sum(p.gemm for p in per)
        assert net.stall == sum(p.stall for p in per)
        assert net.dense_total == sum(p.dense_baseline for p in per)

    @pytest.mark.parametrize("mode", [ConvMode.SELECTIVE, ConvMode.SPARSE_FULL])
    @pytest.mark.parametrize("name", sorted(NETWORK_PRESETS))
    def test_unit_latencies_price_mapping_at_its_alignment(self, name, mode):
        # every latency is 1 by default and a band never merges to more columns
        # than it streams contributions, so each band costs its contributions
        spec = with_body_mode(preset_network(name, height=32, width=32, channels=8), mode)
        scene = generate(SceneSpec(height=32, width=32, channels=8, density=0.15,
                                   pattern="clustered", clusters=4, spread=2.0, seed=1))
        net = simulate_network(run_network(scene, spec).reports)
        assert net.layers and all(lc.mapping.cycles == lc.mapping.alignment > 0
                                  for lc in net.layers)

    def test_all_dense_network_has_unit_speedup(self):
        res, _ = small_result(mode=ConvMode.DENSE)
        net = simulate_network(res.reports)
        assert net.speedup == 1.0
        assert net.ideal_flops_ratio == 1.0

    def test_empty_trace_list(self):
        net = simulate_network([])
        assert net.total == 0
        assert net.speedup == 1.0

    def test_report_dict_shape(self):
        res, _ = small_result()
        d = cycles_to_dict(simulate_network(res.reports))
        assert len(d["layers"]) == 22
        keys = {"layers", "mapping_cycles", "gemm_cycles", "stall_cycles",
                "total_cycles", "dense_total_cycles", "speedup_vs_dense",
                "ideal_flops_ratio"}
        assert set(d) == keys
        row = d["layers"][0]
        assert row["total_cycles"] == row["mapping_cycles"] + row["gemm_cycles"] + row["stall_cycles"]
