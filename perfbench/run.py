"""pillarconv benchmark: per-scene host time of load + run + simulate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kitti-selective --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --quick                 # every workload, 64x56, one op each
    python3 perfbench/run.py --record --workload kitti-dense --seed 3

A run is one process and a closed loop with a single caller: it makes its
scenes from the seed with `pillarconv.scenes` and writes them as .plt, runs
one untimed warm-up op on a 64x56 scene of the workload (it pays
pillarconv's first-call costs without a full-scale op), then
repeats the workload's op back to back, cycling over the scenes, until the
timed ops add up to `--seconds`. Every op is checked (see `check_op` and
`spot_check`); the run exits 1 if any op failed. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it start with `#` and record the machine and software state.

`--trace 0` reports the end-to-end metrics. Times are priced at a fixed
host speed: a calibration job (hostspeed.py) runs before set-up, between
ops and after the last op, and each time t is reported as
t * (CALIB_REF_S / c) ** SPEED_EXPONENT, c the mean calibration time around
it. The raw wall times are on the `#` lines.

* setup_s: import time + the median over the run's scenes of one scene's
  set-up (generate + write .plt) + the warm-up. With one scene per run this
  is the time from process start to the end of the warm-up, less the
  calibration job, whose first pass also pays BLAS start-up.
* scene_s: median seconds per op. scene_s_tail: the slowest op of the
  run; the `#` line states the op count. A run holds 2 to 20 ops, too few
  for any percentile with ten ops beyond it to lie above the median.
* scenes_per_s: ops per second of op time. peak_rss_mb: the process's maximum
  resident set size.
* success_rate: 1 - failed / attempted ops (the error rate's complement).
* sim_cycles, sim_speedup_vs_dense, flops_vs_dense: the modelled design's
  results, averaged over the run's scenes. They are exact; a change that
  only speeds up the host leaves them identical.

`--trace 1` alternates untraced and traced ops and reports per-layer self
time (raw wall seconds) and counts per op (medians over the traced ops), the
tracing overhead (traced minus untraced median op time), the share of op
wall time the layers account for, and the median calibration time, by which
layer times of two runs can be put on one host speed. It fails, reporting
nothing, when a traced name is gone, a layer the workload must exercise
records no call, or the layers account for less than ACCOUNTED_MIN of the op.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
ACCOUNTED_MIN = 0.98

# must be set before numpy loads OpenBLAS
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)


def _import_program():
    """Import pillarconv from this checkout's src/, never from elsewhere."""
    if not (SRC / "pillarconv" / "__init__.py").is_file():
        sys.exit(f"error: no pillarconv sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pillarconv

    if SRC.resolve() not in Path(pillarconv.__file__).resolve().parents:
        sys.exit(f"error: imported pillarconv from {pillarconv.__file__}, not {SRC}")


_import_program()

import numpy as np  # noqa: E402

import pillarconv.scenes as scenes  # noqa: E402
import pillarconv.tensor as tensor  # noqa: E402
from hostspeed import CALIB_REF_S, Calibration, normalise  # noqa: E402
from spans import LAYERS, TraceError, Tracer, op_profile  # noqa: E402
from workloads import (  # noqa: E402
    SPOT_TOL,
    WORKLOADS,
    Workload,
    op_record,
    record_mismatch,
    run_op,
    scene_spec,
    spot_check,
)

IMPORT_S = time.perf_counter() - T_START

E2E_UNITS = {
    "setup_s": "s",
    "scene_s": "s",
    "scene_s_tail": "s",
    "scenes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "sim_cycles": "cycles",
    "sim_speedup_vs_dense": "x",
    "flops_vs_dense": "ratio",
}

# per-layer metric -> unit; values come from `layer_metrics`
LAYER_UNITS = {
    "conv.execute_s": "s",
    "conv.execute_gflops": "GFLOP/s",
    "conv.rulebook_s": "s",
    "conv.tuples": "count",
    "conv.outputs": "count",
    "conv.tuple_yield": "ratio",
    "conv.dense_s": "s",
    "conv.dense_gflops": "GFLOP/s",
    "tensor.plt_read_s": "s",
    "tensor.concat_s": "s",
    "tensor.concat_rows": "count",
    "tensor.validate_s": "s",
    "tensor.dense_convert_s": "s",
    "importance.score_s": "s",
    "importance.select_s": "s",
    "importance.selected": "count",
    "accel.simulate_s": "s",
    "accel.mapping_s": "s",
    "accel.alignment_ops": "count",
    "accel.host_ns_per_event": "ns",
    "accel.mapping_cycles": "cycles",
    "accel.gemm_cycles": "cycles",
    "accel.stall_cycles": "cycles",
    "backbone.run_s": "s",
    "backbone.self_s": "s",
    "backbone.layers": "count",
    "scenes.generate_s": "s",
    "scenes.pillars": "count",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "host.calib_s": "s",
}


# -- machine and software state ------------------------------------------------


def _blas_runtime() -> dict:
    """OpenBLAS core and thread count from the library numpy loaded, if found."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("lib*openblas*"))
    out = {"blas_core": "unknown", "blas_threads_runtime": None}
    if not libs:
        return out
    lib = ctypes.CDLL(str(libs[0]))
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return {"blas_core": core().decode(), "blas_threads_runtime": threads()}
    return out


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": BLAS_THREADS,
        **_blas_runtime(),
        "platform": platform.platform(),
        "commit": _git_commit(),
    }


def fingerprint(env: dict) -> dict:
    """What the float bytes of an output depend on besides the code."""
    return {k: env[k] for k in ("numpy", "blas", "blas_core")}


# -- references -------------------------------------------------------------------


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text())


def scale_of(quick: bool) -> str:
    return "quick" if quick else "full"


# -- one run -----------------------------------------------------------------------


WARMUP = -1  # Op.scene of the warm-up op


@dataclass
class Op:
    scene: int  # index into the run's scenes, or WARMUP
    seconds: float
    traced: bool
    norm: float = 0.0  # seconds at the reference host speed, timed ops only
    problems: list[str] = field(default_factory=list)
    profile: dict | None = None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list[str]


def check_op(op: Op, rec: dict, want: dict | None, features_comparable: bool, seen: dict) -> None:
    """Compare an op's exact outputs with the recorded reference and the run's first op."""
    if want is not None:
        bad = record_mismatch(rec, want, features_comparable)
        if bad:
            op.problems.append(f"differs from the recorded reference in {bad}")
    first = seen.setdefault(op.scene, rec)
    bad = record_mismatch(rec, first, True)
    if bad:
        op.problems.append(f"differs from this run's first op on the scene in {bad}")


def _counts_signature(profile: dict) -> dict:
    return {
        layer: {k: v for k, v in row.items() if k not in ("self", "total")}
        for layer, row in profile["layers"].items()
    }


def _make_scene(spec, path: Path) -> tuple[float, float, int]:
    """Generate and write one scene; returns (set-up s, generate s, pillars)."""
    t0 = time.perf_counter()
    sc = scenes.generate(spec)
    generate_s = time.perf_counter() - t0
    tensor.save_plt(sc, str(path))
    return time.perf_counter() - t0, generate_s, sc.n_active


def run(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> Result:
    w: Workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    env = environment()
    refs = load_references()
    wanted = refs.get(scale_of(quick), {}).get(name, {}).get(str(seed))
    warm_wanted = refs.get(scale_of(True), {}).get(name, {}).get(str(seed))
    features_comparable = refs.get("env") == fingerprint(env)
    notes = [f"# env {json.dumps(env, sort_keys=True)}"]
    if wanted is None:
        notes.append(f"# no recorded reference for {name} seed {seed}; "
                     "ops are checked against the run's first op and the dense oracle")
    elif not features_comparable:
        notes.append("# references were recorded on another numpy/BLAS; "
                     "feature bytes are compared within the run only")

    run_dir = WORK / f"{name}-s{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    seen: dict[int, dict] = {}
    calib = Calibration()
    paths = {WARMUP: run_dir / "warmup.plt"}

    def one_op(scene: int, traced: bool) -> Op:
        op = Op(scene, 0.0, traced)
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.installed():
                    root = len(tracer.spans)
                    with tracer.span("op"):
                        t0 = time.perf_counter()
                        res, net, spec = run_op(w, str(paths[scene]))
                        op.seconds = time.perf_counter() - t0
                op.profile = op_profile(tracer, root)
            else:
                res, net, spec = run_op(w, str(paths[scene]))
                op.seconds = time.perf_counter() - t0
            refs_for = warm_wanted if scene == WARMUP else wanted
            want = refs_for[max(scene, 0)] if refs_for is not None else None
            check_op(op, op_record(res, net, spec), want, features_comparable, seen)
        except Exception:  # an op that raises is a failed op; keep measuring
            op.seconds = op.seconds or time.perf_counter() - t0
            op.problems.append("raised:\n" + traceback.format_exc())
        ops.append(op)
        return op

    try:
        # -- set-up: the run's scenes as .plt, then a warm-up op on a 64x56
        # scene, which pays pillarconv's first-call costs
        setup_calib = calib.run()
        made = []
        for i in range(w.scenes):
            paths[i] = run_dir / f"scene{i}.plt"
            made.append(_make_scene(scene_spec(w, seed, i, quick), paths[i]))
        scene_setup, generate_s, pillars = (list(col) for col in zip(*made))
        w0 = time.perf_counter()
        _make_scene(scene_spec(w, seed, 0, quick=True), paths[WARMUP])
        one_op(WARMUP, False)
        warmup_s = time.perf_counter() - w0
        setup_total = time.perf_counter() - T_START

        # -- timed closed loop: one op at a time, back to back, with the
        # calibration job between ops to price each op at the reference speed
        calibs = [calib.run()]
        setup_calib = (setup_calib + calibs[0]) / 2
        timed = 0.0
        i = 0
        while i == 0 or timed < seconds or (trace and i < 2):
            op = one_op(i % w.scenes, trace and i % 2 == 1)
            calibs.append(calib.run())
            op.norm = normalise(op.seconds, (calibs[-2] + calibs[-1]) / 2)
            timed += op.seconds
            i += 1

        # -- checks outside timing
        spot = []
        for j in range(w.scenes):
            spec = scene_spec(w, seed, j, quick)
            spot.append(spot_check(w, tensor.load_plt(str(paths[j])), spec.seed))
        for op in ops:
            if op.scene != WARMUP and not spot[op.scene] <= SPOT_TOL:
                op.problems.append(f"first body layer differs from dense_conv_oracle "
                                   f"by {spot[op.scene]:.3g} > {SPOT_TOL}")
        signatures: dict[int, dict] = {}
        for op in ops:
            if op.profile is not None:
                sig = signatures.setdefault(op.scene, _counts_signature(op.profile))
                if sig != _counts_signature(op.profile):
                    op.problems.append("per-layer counts differ between traced ops of one scene")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    for op in failed:
        kind = "warm-up op" if op.scene == WARMUP else f"op on scene {op.scene}"
        print(f"FAILED {name} seed {seed} {kind}: " + "; ".join(op.problems), file=sys.stderr)
    timed_ops = [op for op in ops if op.scene != WARMUP]
    untraced = [op for op in timed_ops if not op.traced]
    records = [seen[j] for j in range(w.scenes) if j in seen]
    notes.append(f"# setup: import {IMPORT_S:.3f} s, scene set-up "
                 f"{[round(s, 3) for s in scene_setup]} s, warm-up {warmup_s:.3f} s, "
                 f"process start to end of warm-up {setup_total:.3f} s")
    notes.append(f"# calibration job s: median {statistics.median(calibs):.4f}, around set-up "
                 f"{setup_calib:.4f}, reference {CALIB_REF_S}")
    notes.append(f"# spot check max|diff| per scene {[float(f'{d:.3g}') for d in spot]}")
    if not records:  # no op gave a result to report
        return Result(False, len(ops), len(failed), {}, notes)

    if not trace:
        setup_raw = IMPORT_S + statistics.median(scene_setup) + warmup_s
        metrics = e2e_metrics(untraced, normalise(setup_raw, setup_calib), records,
                              len(ops), len(failed), notes)
        units = E2E_UNITS
    else:
        traced = [op for op in timed_ops if op.traced]
        metrics = layer_metrics(w, traced, untraced, generate_s, pillars, calibs, notes)
        tracer.dump(WORK / f"spans-{name}-s{seed}.jsonl")
        units = LAYER_UNITS
    out = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return Result(not failed, len(ops), len(failed), out, notes)


def e2e_metrics(ops: list[Op], setup_s: float, records, attempted, failed, notes) -> dict:
    times = [op.norm for op in ops]
    n = len(times)
    raw = [op.seconds for op in ops]
    notes.append(f"# scene_s = median, scene_s_tail = max (p100) of {n} timed ops; "
                 f"op seconds at reference speed {[round(t, 4) for t in times]}")
    notes.append(f"# raw wall op seconds {[round(t, 4) for t in raw]}, "
                 f"median {statistics.median(raw):.4f}")
    mean = statistics.fmean
    return {
        "setup_s": setup_s,
        "scene_s": statistics.median(times),
        "scene_s_tail": max(times),
        "scenes_per_s": n / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - failed / attempted,
        "sim_cycles": mean(r["sim_cycles"] for r in records),
        "sim_speedup_vs_dense": mean(r["sim_dense_cycles"] / r["sim_cycles"] for r in records),
        "flops_vs_dense": mean(r["flops"] / r["dense_flops"] for r in records),
    }


def layer_metrics(w: Workload, traced: list[Op], untraced: list[Op], generate_s: list[float],
                  pillars: list[int], calibs: list[float], notes: list[str]) -> dict:
    profiles = [op.profile for op in traced if op.profile is not None]
    if not profiles:
        raise TraceError("no traced op completed")
    for p in profiles:
        silent = [layer for layer in w.required if p["layers"].get(layer, {}).get("calls", 0) == 0]
        if silent:
            raise TraceError(f"layers {silent} recorded no call in a traced op")
        share = sum(row["self"] for row in p["layers"].values()) / p["wall"]
        if share < ACCOUNTED_MIN:
            raise TraceError(f"layer self times cover {share:.3f} of the op, "
                             f"below {ACCOUNTED_MIN}")

    def per_op(fn) -> float:
        return statistics.median(fn(p["layers"]) for p in profiles)

    def field_of(layer: str, key: str):
        return lambda layers: layers.get(layer, {}).get(key, 0)

    def ratio(layer: str, num: str, den: str, scale: float = 1.0):
        def f(layers):
            row = layers.get(layer, {})
            return scale * row[num] / row[den] if row.get(den) else 0.0
        return f

    # every layer's self time, except backbone.run, which also reports its total
    m = {f"{layer}_s": per_op(field_of(layer, "self")) for layer in LAYERS}
    m.update({
        "conv.execute_gflops": per_op(ratio("conv.execute", "flops", "self", 1e-9)),
        "conv.tuples": per_op(field_of("conv.rulebook", "tuples")),
        "conv.outputs": per_op(field_of("conv.rulebook", "outputs")),
        "conv.tuple_yield": per_op(ratio("conv.rulebook", "tuples", "probes")),
        "conv.dense_gflops": per_op(ratio("conv.dense", "flops", "self", 1e-9)),
        "tensor.concat_rows": per_op(field_of("tensor.concat", "rows")),
        "importance.selected": per_op(field_of("importance.select", "selected")),
        "accel.alignment_ops": per_op(field_of("accel.mapping", "alignment")),
        "accel.host_ns_per_event": per_op(ratio("accel.mapping", "self", "alignment", 1e9)),
        "accel.mapping_cycles": per_op(field_of("accel.simulate", "mapping_cycles")),
        "accel.gemm_cycles": per_op(field_of("accel.simulate", "gemm_cycles")),
        "accel.stall_cycles": per_op(field_of("accel.simulate", "stall_cycles")),
        "backbone.run_s": per_op(field_of("backbone.run", "total")),
        "backbone.self_s": per_op(field_of("backbone.run", "self")),
        "backbone.layers": per_op(field_of("backbone.run", "layers")),
        "scenes.generate_s": statistics.median(generate_s),
        "scenes.pillars": statistics.fmean(pillars),
        "trace.overhead_s": statistics.median(op.norm for op in traced)
        - statistics.median(op.norm for op in untraced),
        "trace.accounted_share": statistics.median(
            sum(row["self"] for row in p["layers"].values()) / p["wall"] for p in profiles
        ),
        "host.calib_s": statistics.median(calibs),
    })
    wall = statistics.median(p["wall"] for p in profiles)
    notes.append(f"# {len(profiles)} traced ops, {len(untraced)} untraced; "
                 f"median traced op {wall:.4f} s; per-layer self time per op:")
    for layer in LAYERS:
        s = per_op(field_of(layer, "self"))
        notes.append(f"#   {layer:<22}{s:>10.4f} s {100 * s / wall:6.1f}%")
    return m


# -- entry points ------------------------------------------------------------------


def record(names: list[str], seed: int, scales: tuple[bool, ...]) -> int:
    """Run one op per scene and store its exact outputs as the reference.

    `scales` holds `quick` values: the warm-up op of a full-scale run is
    checked against the 64x56 reference, so full scale records both.
    """
    refs = load_references()
    env = environment()
    if refs.get("env", fingerprint(env)) != fingerprint(env):
        sys.exit(f"error: {REFERENCES.name} was recorded on {refs['env']}; "
                 f"this machine is {fingerprint(env)}")
    refs["env"] = fingerprint(env)
    for name, quick in ((n, q) for n in names for q in scales):
        w = WORKLOADS[name]
        WORK.mkdir(exist_ok=True)
        path = WORK / f"record-{os.getpid()}.plt"
        recs = []
        try:
            for i in range(w.scenes):
                spec = scene_spec(w, seed, i, quick)
                sc = scenes.generate(spec)
                diff = spot_check(w, sc, spec.seed)
                if not diff <= SPOT_TOL:
                    sys.exit(f"error: {name} seed {seed} scene {i} spot check {diff:.3g}")
                tensor.save_plt(sc, str(path))
                recs.append(op_record(*run_op(w, str(path))))
        finally:
            path.unlink(missing_ok=True)
        refs.setdefault(scale_of(quick), {}).setdefault(name, {})[str(seed)] = recs
        print(f"recorded {scale_of(quick)} {name} seed {seed}")
    tmp = REFERENCES.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    tmp.replace(REFERENCES)
    return 0


def quick(seed: int) -> Result:
    """One op of every workload at 64x56, untraced and traced, with every check."""
    metrics, notes, attempted, failed, correct = {}, [], 0, 0, True
    for name in WORKLOADS:
        for trace in (False, True):
            r = run(name, seed, 0.0, trace, quick=True)
            correct = correct and r.correct
            attempted += r.attempted
            failed += r.failed
            notes += r.notes[1:] if notes else r.notes
            metrics.update({f"{name}/{k}": v for k, v in r.metrics.items()})
    return Result(correct, attempted, failed, metrics, notes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one op of every workload on the 64x56 golden grid")
    p.add_argument("--record", action="store_true",
                   help="store the exact outputs for --workload (all with --quick) and --seed")
    args = p.parse_args(argv)
    if args.record:
        names = list(WORKLOADS) if args.quick or not args.workload else [args.workload]
        return record(names, args.seed, (True,) if args.quick else (True, False))
    if not args.quick and args.workload is None:
        p.error("--workload is required")
    try:
        if args.quick:
            result = quick(args.seed)
        else:
            result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except TraceError as e:
        print(f"error: traced run cannot attribute time: {e}", file=sys.stderr)
        return 3
    for line in result.notes:
        print(line)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
