"""End-to-end CLI checks driven through main(argv)."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pillarconv
import pillarconv.backbone
import pillarconv.cli
from pillarconv.cli import main
from pillarconv.importance import pillar_importance
from pillarconv.tensor import load_plt

GOLDENS = Path(__file__).parent / "goldens"


def gen_scene(tmp_path, name="scene.plt", seed=3, density="0.15", extra=()):
    path = tmp_path / name
    rc = main(["gen", "--height", "24", "--width", "24", "--channels", "8",
               "--density", density, "--seed", str(seed), "--out", str(path),
               *extra])
    assert rc == 0
    return path


def put_nan_feature(path):
    """Overwrite the first feature value of a .plt scene with nan."""
    lines = path.read_text().splitlines()
    row = lines[1].split()
    lines[1] = " ".join(row[:2] + ["nan"] + row[3:])
    path.write_text("\n".join(lines) + "\n")


class TestGen:
    def test_deterministic_per_seed(self, tmp_path):
        a = gen_scene(tmp_path, "a.plt", seed=3)
        b = gen_scene(tmp_path, "b.plt", seed=3)
        c = gen_scene(tmp_path, "c.plt", seed=4)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_summary_line(self, tmp_path, capsys):
        gen_scene(tmp_path, seed=3)
        out = capsys.readouterr().out
        assert "24x24x8" in out
        assert "seed=3" in out

    def test_preset_with_overrides(self, tmp_path, capsys):
        path = tmp_path / "k.plt"
        rc = main(["gen", "--preset", "kitti-like", "--height", "32",
                   "--width", "32", "--channels", "4", "--out", str(path)])
        assert rc == 0
        t = load_plt(str(path))
        assert (t.height, t.width, t.channels) == (32, 32, 4)
        assert "pattern=clustered" in capsys.readouterr().out

    def test_manifest_digests_match(self, tmp_path):
        path = tmp_path / "s.plt"
        man = tmp_path / "s.json"
        rc = main(["gen", "--height", "24", "--width", "24", "--channels", "8",
                   "--density", "0.15", "--seed", "3", "--out", str(path),
                   "--manifest", str(man)])
        assert rc == 0
        doc = json.loads(man.read_text())
        assert doc["command"][:2] == ["pillarconv", "gen"]
        assert doc["seed"] == 3
        assert doc["inputs"] == {}
        want = hashlib.sha256(path.read_bytes()).hexdigest()
        assert doc["outputs"][str(path)] == want
        assert "timestamp" in doc and "tool_version" in doc

    def test_env_seed_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PILLARCONV_SEED", "9")
        path = tmp_path / "env.plt"
        rc = main(["gen", "--height", "24", "--width", "24", "--channels", "8",
                   "--density", "0.15", "--out", str(path)])
        assert rc == 0
        assert "seed=9" in capsys.readouterr().out


class TestRun:
    def test_table_and_totals(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        rc = main(["run", str(scene), "--t", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "s1.down" in out and "neck3.up2" in out
        assert "total flops" in out and "ratio" in out

    def test_json_report_shape(self, tmp_path):
        scene = gen_scene(tmp_path)
        rep = tmp_path / "run.json"
        rc = main(["run", str(scene), "--t", "2", "--report", str(rep)])
        assert rc == 0
        doc = json.loads(rep.read_text())
        assert doc["network"] == "pointpillars"
        assert len(doc["layers"]) == 22
        assert doc["total_flops"] < doc["dense_flops"]
        assert 0.0 < float(doc["flops_vs_dense"]) < 1.0
        row = doc["layers"][0]
        assert row["layer_id"] == "s1.down"
        assert {"kind", "mode", "active_in", "active_out", "selected",
                "density_out", "flops"} <= set(row)

    def test_dense_mode_ratio_is_one(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        rep = tmp_path / "dense.json"
        rc = main(["run", str(scene), "--mode", "dense", "--report", str(rep)])
        assert rc == 0
        assert "ratio 1.0000" in capsys.readouterr().out
        doc = json.loads(rep.read_text())
        assert float(doc["flops_vs_dense"]) == 1.0

    def test_output_tensor_file(self, tmp_path):
        scene = gen_scene(tmp_path)
        out = tmp_path / "out.plt"
        rc = main(["run", str(scene), "--t", "2", "--out", str(out)])
        assert rc == 0
        t = load_plt(str(out))
        assert t.channels == 384
        assert (t.height, t.width) == (24, 24)

    def test_csv_report(self, tmp_path):
        scene = gen_scene(tmp_path)
        rep = tmp_path / "run.csv"
        assert main(["run", str(scene), "--t", "2", "--report", str(rep)]) == 0
        lines = rep.read_text().splitlines()
        assert lines[0].startswith("# flops = ")
        assert lines[1].startswith("# network=pointpillars total_flops=")
        rows = list(csv.DictReader(lines[2:]))
        assert len(rows) == 22
        assert rows[0]["layer_id"] == "s1.down"

    def test_network_json_file(self, tmp_path):
        from pillarconv.backbone import make_pointpillars, network_to_json

        scene = gen_scene(tmp_path)
        net = tmp_path / "net.json"
        net.write_text(network_to_json(
            make_pointpillars(height=24, width=24, channels=8, t=5.0)))
        rc = main(["run", str(scene), "--network-json", str(net)])
        assert rc == 0


class TestVerify:
    def test_random_cases_pass(self, tmp_path, capsys):
        rc = main(["verify", "--cases", "3", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count(": ok") + out.count("skipped") == 3
        assert "3/3 cases" in out or "cases within" in out

    def test_scene_file_case(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        rc = main(["verify", str(scene), "--seed", "2"])
        assert rc == 0
        assert ": ok" in capsys.readouterr().out

    def test_impossible_tolerance_fails(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        rc = main(["verify", str(scene), "--tol", "-1"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nan_feature_fails(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        put_nan_feature(scene)
        rc = main(["verify", str(scene), "--seed", "2"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "max|diff|=nan" in out
        assert ": ok" not in out

    def test_empty_scene_is_not_counted_as_passing(self, tmp_path, capsys):
        scene = tmp_path / "empty.plt"
        scene.write_text("PLT v1 6 6 2 0\n")
        rc = main(["verify", str(scene)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "skipped (empty)" in out
        assert "0/0 compared cases" in out and str(scene) in out.splitlines()[-1]


class TestSweep:
    def test_flops_rise_with_t(self, tmp_path):
        scene = gen_scene(tmp_path)
        rep = tmp_path / "sweep.csv"
        rc = main(["sweep", str(scene), "--t", "0", "2", "100",
                   "--report", str(rep)])
        assert rc == 0
        lines = rep.read_text().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        flops = [int(r["total_flops"]) for r in rows]
        assert [float(r["t"]) for r in rows] == [0.0, 2.0, 100.0]
        assert flops == sorted(flops)
        assert flops[0] < flops[-1]

    def test_parallel_jobs_match_serial(self, tmp_path):
        scene = gen_scene(tmp_path)
        a = tmp_path / "serial.csv"
        b = tmp_path / "pool.csv"
        assert main(["sweep", str(scene), "--t", "0", "2", "--report", str(a)]) == 0
        assert main(["sweep", str(scene), "--t", "0", "2", "--jobs", "2",
                     "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("cores, want", [(8, 3), (2, 2)])
    def test_jobs_are_capped_by_the_t_values_and_the_cores(self, tmp_path, monkeypatch,
                                                           cores, want):
        import multiprocessing

        sizes = []

        class InlinePool:  # records its size and starts no process
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, f, items):
                return [f(x) for x in items]

        scene = gen_scene(tmp_path)
        monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert main(["sweep", str(scene), "--t", "0", "2", "100", "--jobs", "1000"]) == 0
        assert sizes == [want]


class TestSimulate:
    def test_report_shape(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        rep = tmp_path / "cycles.json"
        rc = main(["simulate", str(scene), "--t", "2", "--report", str(rep)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "ideal flops ratio" in out
        doc = json.loads(rep.read_text())
        assert doc["config"]["array_rows"] == 64
        assert doc["config"]["sram_kbytes"] == 654
        assert len(doc["layers"]) == 22
        assert doc["total_cycles"] > 0
        assert isinstance(doc["speedup_vs_dense"], str)
        assert float(doc["ideal_flops_ratio"]) > 1.0

    def test_deterministic_report(self, tmp_path):
        scene = gen_scene(tmp_path)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["simulate", str(scene), "--t", "2", "--report", str(a)]) == 0
        assert main(["simulate", str(scene), "--t", "2", "--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_array_shape_changes_cycles(self, tmp_path):
        scene = gen_scene(tmp_path)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["simulate", str(scene), "--t", "2", "--report", str(a)]) == 0
        assert main(["simulate", str(scene), "--t", "2", "--array-rows", "16",
                     "--report", str(b)]) == 0
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["gemm_cycles"] != db["gemm_cycles"]


class TestCalibrate:
    def test_pooled_threshold_report(self, tmp_path, capsys):
        s1 = gen_scene(tmp_path, "s1.plt", seed=3)
        s2 = gen_scene(tmp_path, "s2.plt", seed=4)
        out = tmp_path / "cal.json"
        rc = main(["calibrate", str(s1), str(s2), "--t", "5",
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "theta =" in stdout
        doc = json.loads(out.read_text())
        n1 = load_plt(str(s1)).n_active
        n2 = load_plt(str(s2)).n_active
        assert doc["pool_size"] == n1 + n2
        assert doc["t_percent"] == 5.0
        assert float(doc["theta"]) > 0.0
        assert doc["scenes"] == [str(s1), str(s2)]

    def test_scores_each_scene_once(self, tmp_path, capsys, monkeypatch):
        scenes = [str(gen_scene(tmp_path, f"s{i}.plt", seed=i)) for i in (3, 4)]
        calls = []

        def counting(t, cfg):
            calls.append(t.n_active)
            return pillar_importance(t, cfg)

        monkeypatch.setattr(pillarconv.cli, "pillar_importance", counting)
        assert main(["calibrate", *scenes, "--t", "5"]) == 0
        assert calls == [load_plt(s).n_active for s in scenes]
        assert capsys.readouterr().out.count("threshold selects") == 2

    def test_nan_score_is_an_error(self, tmp_path, capsys):
        scene = gen_scene(tmp_path)
        put_nan_feature(scene)
        rc = main(["calibrate", str(scene), "--t", "100"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "not finite" in captured.err
        assert "theta =" not in captured.out


class TestErrorsAndUsage:
    def test_missing_scene_file(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.plt")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["gen", "--bogus"])
        assert e.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["--version"])
        assert e.value.code == 0
        assert "pillarconv" in capsys.readouterr().out

    @pytest.mark.parametrize("header,body", [
        ("PLT v1 4 4 1 1", "0 0 abc"),       # non-numeric value
        ("PLT v1 4 4 1 -1", ""),             # negative entry count
        ("PLT v1 4 4 -2 1", "0 0"),          # negative channel count
        ("PLT v1 4 4 100000000000000000000 1", ""),   # channel count beyond int64
        ("PLT v1 4 99999999999999999999 1 1", ""),    # width beyond int64
        ("PLT v1 4 -99999999999999999999 1 1", "0 0 1.0"),  # width below int64
    ])
    def test_malformed_plt_values_report_errors(self, tmp_path, capsys, header, body):
        path = tmp_path / "bad.plt"
        path.write_text(header + "\n" + body + "\n")
        rc = main(["run", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_grid_beyond_the_key_space_reports_error(self, tmp_path, capsys):
        # 2**62 x 2**62 cells: row * width + col would wrap int64 and misorder the entries
        path = tmp_path / "huge.plt"
        path.write_text("PLT v1 4611686018427387904 4611686018427387904 1 2\n1 0 1.0\n3 0 2.0\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error:") and "Traceback" not in err
        assert "key space" in err

    def test_gen_beyond_the_key_space_reports_error(self, tmp_path, capsys):
        out = tmp_path / "s.plt"
        rc = main(["gen", "--height", "4611686018427387904", "--width", "4", "--density", "0",
                   "--channels", "8", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error:") and "Traceback" not in err
        assert "key space" in err and not out.exists()

    def test_out_of_memory_reports_error(self, tmp_path, capsys, monkeypatch):
        # a 3e9-channel scene asks Kernel.seeded for terabytes; fail that request
        # here instead of making it, since hosts differ in how they overcommit
        def no_memory(k_h, k_w, c_in, c_out, stride, seed):
            assert c_in == 3_000_000_000
            raise MemoryError(f"Unable to allocate a ({k_h * k_w}, {c_in}, {c_out}) array")

        monkeypatch.setattr(pillarconv.backbone, "_seeded_kernel", no_memory)
        path = tmp_path / "wide.plt"
        path.write_text("PLT v1 8 8 3000000000 0\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error: out of memory:") and "Traceback" not in err

    @pytest.mark.parametrize("args", [
        ["--density", "-0.5"],
        ["--density", "nan"],
        ["--density", "1.5"],
        ["--pattern", "clustered", "--spread", "-1"],
        ["--height", "-4"],
        ["--width", "0"],
        # the sampler cannot take these; they fail before any draw
        ["--seed", "-1"],
        ["--seed", str(2**128)],
        ["--channels", "-1"],
        ["--channels", "0"],
        ["--pattern", "clustered", "--clusters", "0"],
        ["--pattern", "clustered", "--clusters", "-3"],
        ["--pattern", "ring-arcs", "--arcs", str(2**32)],
        # constant features must be finite float32 values
        ["--features", "constant", "--constant-value", "nan"],
        ["--features", "constant", "--constant-value", "inf"],
        ["--features", "constant", "--constant-value", "1e39"],
    ])
    def test_bad_gen_spec_reports_error(self, tmp_path, capsys, args):
        base = {"--height": "24", "--width": "24", "--density": "0.15"}
        base.update(zip(args[::2], args[1::2]))
        rc = main(["gen", "--channels", "8", "--out", str(tmp_path / "s.plt"),
                   *[tok for kv in base.items() for tok in kv]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "s.plt").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_verify_seed_outside_the_key_range_reports_error(self, tmp_path, capsys, seed):
        assert main(["verify", "--seed", seed, "--cases", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "seed" in captured.err and captured.out == ""

    def test_bad_seed_variable_reports_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PILLARCONV_SEED", "abc")
        assert main(["verify", "--cases", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "PILLARCONV_SEED" in captured.err and captured.out == ""

    def test_nan_threshold_reports_error(self, tmp_path, capsys):
        from pillarconv.backbone import make_pointpillars, network_to_json

        scene = gen_scene(tmp_path)
        doc = json.loads(network_to_json(make_pointpillars(height=24, width=24, channels=8)))
        for stage in doc["stages"]:
            for layer in stage["body"]:
                layer["selection"] = {"kind": "threshold", "theta": float("nan")}
        net, rep = tmp_path / "net.json", tmp_path / "report.json"
        net.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", str(scene), "--network-json", str(net), "--report", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not rep.exists()

    @pytest.mark.parametrize("sel", [{"kind": "topk", "t": "abc"},
                                     {"kind": "threshold", "theta": "0.5"}])
    def test_non_numeric_selection_parameter_reports_error(self, tmp_path, capsys, sel):
        from pillarconv.backbone import make_pointpillars, network_to_json

        scene = gen_scene(tmp_path)
        doc = json.loads(network_to_json(make_pointpillars(height=24, width=24, channels=8)))
        doc["stages"][0]["body"][0]["selection"] = sel
        net, rep = tmp_path / "net.json", tmp_path / "report.json"
        net.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["run", str(scene), "--network-json", str(net), "--report", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not rep.exists()

    def test_indivisible_grid_reports_error(self, tmp_path, capsys):
        path = tmp_path / "odd.plt"
        rc = main(["gen", "--height", "30", "--width", "24", "--channels", "8",
                   "--density", "0.15", "--out", str(path)])
        assert rc == 0
        rc = main(["run", str(path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    @pytest.mark.parametrize("t", ["nan", "inf", "-1"])
    def test_bad_topk_percent_reports_error(self, tmp_path, capsys, command, t):
        scene = gen_scene(tmp_path)
        capsys.readouterr()
        assert main([command, str(scene), "--t", t]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_huge_topk_percent_selects_everything(self, tmp_path):
        # t * n overflows to inf for t near the float max; the count is n from t = 100 on
        scene = gen_scene(tmp_path)
        huge, full = tmp_path / "huge.json", tmp_path / "full.json"
        assert main(["run", str(scene), "--t", "1e308", "--report", str(huge)]) == 0
        assert main(["run", str(scene), "--t", "100", "--report", str(full)]) == 0
        assert huge.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("args", [
        ["--array-rows", "0"],
        ["--array-cols", "-4"],
        ["--sram-kb", "-1"],
    ])
    def test_bad_accelerator_size_reports_error(self, tmp_path, capsys, args):
        scene = gen_scene(tmp_path)
        capsys.readouterr()
        rep = tmp_path / "cycles.json"
        assert main(["simulate", str(scene), "--t", "2", *args, "--report", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not rep.exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("edit, field", [
        (lambda doc: doc["stages"][0]["downsample"].update(c_in=8.0), "c_in"),
        (lambda doc: doc["stages"][1]["downsample"].update(c_out="128"), "c_out"),
        (lambda doc: doc["stages"][0]["body"][0].update(kernel=[3.0, 3.0]), "k_h"),
        (lambda doc: doc["stages"][0]["body"][0].update(kernel=[3]), "kernel"),
        (lambda doc: doc["stages"][0]["body"][0].update(stride=True), "stride"),
        (lambda doc: doc["input"].update(height=24.0), "height"),
        (lambda doc: [1], "object"),
    ], ids=["c_in-float", "c_out-string", "kernel-floats", "kernel-one-entry", "stride-bool",
            "height-float", "document-list"])
    def test_non_integer_network_size_reports_error(self, tmp_path, capsys, command, edit,
                                                    field):
        from pillarconv.backbone import make_pointpillars, network_to_json

        scene = gen_scene(tmp_path)
        doc = json.loads(network_to_json(make_pointpillars(height=24, width=24, channels=8)))
        doc = edit(doc) or doc
        net, rep = tmp_path / "net.json", tmp_path / "report.json"
        net.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(scene), "--network-json", str(net), "--report", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error:") and "Traceback" not in err
        assert field in err
        assert not rep.exists()

    def test_simulate_names_the_unpriced_kernel(self, tmp_path, capsys):
        from pillarconv.backbone import make_pointpillars, network_to_json

        scene = gen_scene(tmp_path)
        doc = json.loads(network_to_json(make_pointpillars(height=24, width=24, channels=8)))
        for stage in doc["stages"]:
            for layer in stage["body"]:
                layer["kernel"] = [5, 5]
        net, rep = tmp_path / "net.json", tmp_path / "cycles.json"
        net.write_text(json.dumps(doc))
        assert main(["run", str(scene), "--network-json", str(net)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(scene), "--network-json", str(net), "--report", str(rep)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[0].startswith("error:") and "Traceback" not in err
        assert "s1.body0" in err and "5x5" in err and "pipelined" not in err
        assert not rep.exists()

    @pytest.mark.parametrize("c_out", ["-1", "0"])
    def test_bad_kernel_channels_report_error(self, tmp_path, capsys, c_out):
        scene = gen_scene(tmp_path)
        capsys.readouterr()
        assert main(["verify", str(scene), "--c-out", c_out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        assert "channels must be >= 1" in captured.err and captured.out == ""


class TestBlasThreads:
    @pytest.mark.parametrize("mode", ["dense", "selective"])
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path, mode):
        # fresh processes: OpenBLAS reads its thread count when it loads
        src = str(Path(pillarconv.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}.plt"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            proc = subprocess.run(
                [sys.executable, "-m", "pillarconv.cli", "run",
                 str(GOLDENS / "pointpillars_scene.plt"), "--network", "pointpillars",
                 "--weights-seed", "0", "--mode", mode, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
