"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
from spans import TRACED, TraceError, Tracer, op_profile  # noqa: E402
from workloads import WORKLOADS, record_mismatch  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_quick_mode_checks_and_reports_every_metric():
    p = _bench("--quick", "--seed", "0")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 5 * len(WORKLOADS)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for m in bench["end_to_end"] + bench["per_layer"]:
            got = result["metrics"][f"{w['name']}/{m['name']}"]
            assert got["unit"] == m["unit"]
    assert "no recorded reference" not in p.stdout  # seed 0 is recorded at 64x56


def test_metric_lists_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["name"] for m in bench["per_layer"]] == list(run.LAYER_UNITS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_missing_traced_name_fails():
    gone = TRACED + (("pillarconv.backbone", "build_rulebook_gone", "conv.rulebook", None),)
    with pytest.raises(TraceError, match="build_rulebook_gone"):
        Tracer(gone)


def test_silent_required_layer_fails():
    op = run.Op(scene=0, seconds=1.0, traced=True)
    layers = {layer: {"self": 0.1, "total": 0.1, "calls": 1} for layer in run.LAYERS}
    del layers["conv.rulebook"]
    op.profile = {"wall": 1.0, "layers": layers}
    with pytest.raises(TraceError, match="conv.rulebook"):
        run.layer_metrics(WORKLOADS["kitti-selective"], [op], [op], [1.0], [10], [0.1], [])


def test_unaccounted_time_fails():
    op = run.Op(scene=0, seconds=1.0, traced=True)
    layers = {layer: {"self": 0.01, "total": 0.01, "calls": 1} for layer in run.LAYERS}
    op.profile = {"wall": 1.0, "layers": layers}
    with pytest.raises(TraceError, match="cover"):
        run.layer_metrics(WORKLOADS["kitti-selective"], [op], [op], [1.0], [10], [0.1], [])


def test_self_time_excludes_children():
    t = Tracer(())
    root = len(t.spans)
    with t.span("op"):
        with t.span("backbone.run"):
            with t.span("conv.execute") as s:
                s.counts = {"flops": 10}
            with t.span("conv.execute") as s:
                s.counts = {"flops": 5}
    prof = op_profile(t, root)
    spans = t.spans
    run_span, ex1, ex2 = spans[1], spans[2], spans[3]
    ex = prof["layers"]["conv.execute"]
    assert ex["calls"] == 2 and ex["flops"] == 15
    assert ex["self"] == pytest.approx((ex1.end - ex1.start) + (ex2.end - ex2.start))
    bb = prof["layers"]["backbone.run"]
    assert bb["total"] == pytest.approx(run_span.end - run_span.start)
    assert bb["self"] == pytest.approx(bb["total"] - ex["self"])


def test_installed_wrappers_are_removed():
    import pillarconv.backbone as backbone
    import pillarconv.tensor as tensor

    before = (backbone.execute_rulebook, tensor.PillarTensor.to_dense)
    with Tracer().installed():
        assert backbone.execute_rulebook is not before[0]
    assert (backbone.execute_rulebook, tensor.PillarTensor.to_dense) == before


def test_mismatch_is_reported_per_field():
    want = {"output_sha256": "a", "coords_sha256": "c", "sim_cycles": 7, "flops": 3}
    got = dict(want, output_sha256="b", sim_cycles=8)
    assert record_mismatch(got, want, True) == ["output_sha256", "sim_cycles"]
    assert record_mismatch(got, want, False) == ["sim_cycles"]
    op = run.Op(scene=0, seconds=1.0, traced=False)
    run.check_op(op, got, want, True, {})
    assert op.problems and "recorded reference" in op.problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    p = _bench("--workload", "kitti-selective", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
