"""Command-line front end.

Subcommands:

  gen        generate a synthetic scene and write it as a .plt file
  run        run a scene through a backbone, print and save per-layer reports
  verify     check the sparse modes against the dense oracle, exit 1 on drift
             or when every case was skipped as empty
  sweep      total flops across a range of dilation percentages
  simulate   accelerator cycle model for a scene and network
  calibrate  turn a top-k percentage into an importance threshold

Every command is deterministic given its arguments; the default seed comes
from PILLARCONV_SEED when set. gen, run, sweep and simulate accept
--manifest to record as JSON the exact command, the seed, and the sha256 of
every file the command read (the scene, and the --network-json file when
given) and wrote.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .accel import AcceleratorConfig, cycles_to_dict, simulate_network
from .backbone import (
    ConvMode,
    NetworkSpec,
    dense_flops_of_spec,
    network_from_json,
    override_topk_percent,
    preset_network,
    run_network,
    total_flops,
    with_body_mode,
    NETWORK_PRESETS,
)
from .conv import (
    Kernel,
    build_rulebook_selective,
    build_rulebook_sparse,
    build_rulebook_subm,
    dense_conv_oracle,
    execute_rulebook,
)
from .errors import NonFiniteValueError, PillarConvError, SpecMismatchError
from .importance import (
    Aggregate,
    ImportanceConfig,
    Measure,
    calibrate_threshold,
    pillar_importance,
    select_threshold,
    select_topk,
    topk_count,
)
from .scenes import SCENE_PRESETS, SceneSpec, check_seed, generate, preset_scene
from .tensor import PillarTensor, load_plt, save_plt
from .util import fmt_float, sha256_file

FLOPS_NOTE = "flops = 2*tuples*c_in*c_out + outputs*c_out (bias included)"
CYCLE_NOTE = (
    "total = mapping[0] + sum(max(mapping[i], gemm[i-1])) + gemm[-1] + stalls; "
    "dense baseline runs every position, one pass per layer"
)


def _default_seed() -> int:
    value = os.environ.get("PILLARCONV_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise SpecMismatchError(f"PILLARCONV_SEED must be an integer, got {value!r}") from None


def _write_manifest(args, seed: int, outputs: list[str | None]) -> None:
    """With --manifest, record the command, the seed, and the sha256 of the files it
    read (every argument naming an input file) and of the `outputs` it wrote."""
    if not args.manifest:
        return
    inputs = [getattr(args, name, None) for name in ("scene", "network_json")]
    _write_json(args.manifest, {
        "command": ["pillarconv", *args._argv],
        "tool_version": __version__,
        "seed": seed,
        "inputs": {p: sha256_file(p) for p in inputs if p},
        "outputs": {p: sha256_file(p) for p in outputs if p},
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    })


def _load_network(args, t_override: float | None = None) -> tuple[PillarTensor, NetworkSpec]:
    """The scene and the network to run on it: --network-json, or the --network preset
    sized to the scene, with --mode and then `t_override` applied."""
    scene = load_plt(args.scene)
    if args.network_json:
        spec = network_from_json(Path(args.network_json).read_text())
    else:
        spec = preset_network(args.network, height=scene.height, width=scene.width,
                              channels=scene.channels)
    if getattr(args, "mode", None):
        spec = with_body_mode(spec, args.mode)
    if t_override is not None:
        spec = override_topk_percent(spec, t_override)
    return scene, spec


@np.errstate(over="ignore", invalid="ignore")  # the check reports an overflow, not numpy
def _run_finite(scene: PillarTensor, spec: NetworkSpec, weights_seed: int):
    """`run_network`, raising NonFiniteValueError if the output holds NaN or inf.

    Finite inputs can still overflow float32 inside the network."""
    res = run_network(scene, spec, weights_seed=weights_seed)
    finite = np.isfinite(res.output.features)
    if not finite.all():
        i, j = divmod(int(finite.argmin()), res.output.channels)
        raise NonFiniteValueError(
            f"network output at {tuple(res.output.rc[i].tolist())} channel {j} is not finite: "
            f"{res.output.features[i, j]}"
        )
    return res


def _report_rows(records) -> list[dict]:
    return [
        {
            "layer_id": r.layer_id,
            "kind": r.plan.kind,
            "mode": r.plan.spec.mode.value,
            "out_h": r.plan.out_h,
            "out_w": r.plan.out_w,
            "c_in": r.plan.spec.c_in,
            "c_out": r.plan.spec.c_out,
            "active_in": r.active_in,
            "active_out": r.active_out,
            "density_out": fmt_float(r.density_out),
            "selected": r.selected,
            "flops": r.flops,
        }
        for r in records
    ]


def _write_csv(path: str, comments: list[str], rows: list[dict]) -> None:
    """Write each comment as a `# ` line, then `rows` under a header of their keys."""
    with open(path, "w", newline="") as f:
        f.writelines(f"# {c}\n" for c in comments)
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_json(path: str, doc: dict) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_report(path: str, reports, spec: NetworkSpec) -> None:
    rows = _report_rows(reports)
    ftotal = total_flops(reports)
    dense = dense_flops_of_spec(spec)
    if path.endswith(".json"):
        _write_json(path, {
            "flops_convention": FLOPS_NOTE,
            "network": spec.name,
            "layers": rows,
            "total_flops": ftotal,
            "dense_flops": dense,
            "flops_vs_dense": fmt_float(ftotal / dense),
        })
    else:
        totals = f"network={spec.name} total_flops={ftotal} dense_flops={dense}"
        _write_csv(path, [FLOPS_NOTE, totals], rows)


# -- gen ------------------------------------------------------------------------


def cmd_gen(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("height", "width", "channels", "density", "pattern",
                    "clusters", "spread", "arcs", "features", "constant_value")
        if getattr(args, key) is not None
    }
    if args.preset:
        spec = preset_scene(args.preset, seed=args.seed, **overrides)
    else:
        defaults = dict(height=64, width=64, channels=16, density=0.1)
        defaults.update(overrides)
        spec = SceneSpec(seed=args.seed, **defaults)
    t = generate(spec)
    save_plt(t, args.out)
    print(
        f"wrote {args.out}: {t.height}x{t.width}x{t.channels}, "
        f"{t.n_active} active ({fmt_float(t.density())}), "
        f"pattern={spec.pattern} seed={spec.seed}"
    )
    _write_manifest(args, args.seed, [args.out])
    return 0


# -- run ------------------------------------------------------------------------


def cmd_run(args) -> int:
    scene, spec = _load_network(args, t_override=args.t)
    res = _run_finite(scene, spec, args.weights_seed)
    ftotal = total_flops(res.reports)
    dense = dense_flops_of_spec(spec)
    print(f"# {FLOPS_NOTE}")
    print(f"{'layer':<14}{'kind':<12}{'mode':<11}{'grid':<12}{'act_in':>8}"
          f"{'act_out':>8}{'sel':>7}{'flops':>14}")
    for r in res.reports:
        p = r.plan
        print(f"{p.layer_id:<14}{p.kind:<12}{p.spec.mode.value:<11}"
              f"{f'{p.out_h}x{p.out_w}':<12}{r.active_in:>8}{r.active_out:>8}"
              f"{r.selected:>7}{r.flops:>14}")
    print(f"total flops {ftotal}  dense flops {dense}  ratio {ftotal / dense:.4f}")
    if args.out:
        save_plt(res.output, args.out)
        print(f"wrote {args.out}: {res.output.n_active} active, {res.output.channels} channels")
    if args.report:
        _write_report(args.report, res.reports, spec)
        print(f"wrote {args.report}")
    _write_manifest(args, args.weights_seed, [args.out, args.report])
    return 0


# -- verify ----------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails the compare, not numpy
def _verify_case(t: PillarTensor, k: Kernel, t_percent: float, tol: float) -> tuple[bool, str]:
    bounds = (t.height, t.width)
    dense = dense_conv_oracle(t.to_dense(), k)
    scores = pillar_importance(t, ImportanceConfig())
    sel = select_topk(scores, t_percent)
    books = {
        "subm": build_rulebook_subm(t.rc, k, bounds=bounds),
        "sparse": build_rulebook_sparse(t.rc, k, bounds),
        "selective": build_rulebook_selective(t.rc, sel.rc, k, bounds),
    }
    worst = 0.0
    for name, rb in books.items():
        out = execute_rulebook(rb, t, k)
        want = dense.data[out.rc[:, 0], out.rc[:, 1]]
        err = float(np.max(np.abs(out.features - want), initial=0.0))
        # NaN anywhere in the output or the oracle makes err NaN, which fails here
        if not err <= tol:
            return False, f"{name} max|diff|={fmt_float(err)}"
        worst = max(worst, err)
    return True, f"max|diff|={fmt_float(worst)}"


def cmd_verify(args) -> int:
    check_seed(args.seed)
    cases: list[tuple[str, PillarTensor, Kernel]] = []
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    if args.scene:
        t = load_plt(args.scene)
        k = Kernel.seeded(3, 3, t.channels, args.c_out, 1, seed=args.seed, bias_scale=0.1)
        cases.append((args.scene, t, k))
    else:
        for i in range(args.cases):
            h = int(rng.integers(6, 33))
            w = int(rng.integers(6, 33))
            c = int(rng.choice([1, 4, 16]))
            density = float(rng.uniform(0.05, 0.5))
            spec = SceneSpec(height=h, width=w, channels=c, density=density,
                             seed=int(rng.integers(0, 2**31)))
            t = generate(spec)
            kk = int(rng.choice([1, 3]))
            k = Kernel.seeded(kk, kk, c, int(rng.choice([1, 4, 16])), 1,
                              seed=int(rng.integers(0, 2**31)), bias_scale=0.1)
            cases.append((f"case{i:03d} {h}x{w}x{c} d={density:.2f} k={kk}", t, k))
    failures = 0
    skipped = []
    for label, t, k in cases:
        if t.n_active == 0:
            print(f"{label}: skipped (empty)")
            skipped.append(label)
            continue
        ok, detail = _verify_case(t, k, args.t, args.tol)
        print(f"{label}: {'ok' if ok else 'FAIL'} {detail}")
        failures += 0 if ok else 1
    compared = len(cases) - len(skipped)
    skips = f"; skipped (empty): {', '.join(skipped)}" if skipped else ""
    print(f"{compared - failures}/{compared} compared cases within {fmt_float(args.tol)}{skips}")
    return 1 if failures or not compared else 0  # comparing nothing checks nothing


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    scene, spec = _load_network(args)
    dense = dense_flops_of_spec(spec)
    rows = []  # every t runs before the table prints, so a failing one prints nothing
    for tv in args.t:
        res = _run_finite(scene, override_topk_percent(spec, tv), args.weights_seed)
        ftotal = total_flops(res.reports)
        rows.append({"t": tv, "total_flops": ftotal, "flops_vs_dense": fmt_float(ftotal / dense),
                     "active_out": res.output.n_active})
        del res  # the next t runs without this output held
    print(f"# {FLOPS_NOTE}")
    print(f"{'t%':>7}{'total_flops':>16}{'vs_dense':>12}{'act_out':>10}")
    for r in rows:
        print(f"{r['t']:>7g}{r['total_flops']:>16}{r['total_flops'] / dense:>12.4f}"
              f"{r['active_out']:>10}")
    if args.report:
        _write_csv(args.report, [FLOPS_NOTE], rows)
        print(f"wrote {args.report}")
    _write_manifest(args, args.weights_seed, [args.report])
    return 0


# -- simulate ----------------------------------------------------------------------


def cmd_simulate(args) -> int:
    scene, spec = _load_network(args, t_override=args.t)
    cfg = AcceleratorConfig(array_rows=args.array_rows, array_cols=args.array_cols,
                            sram_kbytes=args.sram_kb)
    res = _run_finite(scene, spec, args.weights_seed)
    net = simulate_network(res.reports, cfg)
    print(f"# {CYCLE_NOTE}")
    print(f"{'layer':<14}{'mode':<11}{'mapping':>10}{'gemm':>12}{'stall':>9}"
          f"{'total':>12}{'dense':>12}")
    for p in net.layers:
        print(f"{p.layer_id:<14}{p.mode:<11}{p.mapping.cycles:>10}{p.gemm:>12}"
              f"{p.stall:>9}{p.total:>12}{p.dense_baseline:>12}")
    print(f"network: mapping {net.mapping}  gemm {net.gemm}  stall {net.stall}")
    print(f"total {net.total} cycles  dense {net.dense_total} cycles  "
          f"speedup {net.speedup:.4f}  ideal flops ratio {net.ideal_flops_ratio:.4f}")
    if args.report:
        doc = {"cycle_model": CYCLE_NOTE, "config": asdict(cfg), **cycles_to_dict(net)}
        doc["speedup_vs_dense"] = fmt_float(doc["speedup_vs_dense"])
        doc["ideal_flops_ratio"] = fmt_float(doc["ideal_flops_ratio"])
        _write_json(args.report, doc)
        print(f"wrote {args.report}")
    _write_manifest(args, args.weights_seed, [args.report])
    return 0


# -- calibrate ----------------------------------------------------------------------


def cmd_calibrate(args) -> int:
    cfg = ImportanceConfig(Measure(args.measure), Aggregate(args.aggregate))
    scored = []
    for path in args.scenes:
        t = load_plt(path)
        scored.append((path, t, pillar_importance(t, cfg)))
    score_sets = [scores.score for _, _, scores in scored]
    theta = calibrate_threshold(score_sets, args.t)
    print(f"theta = {fmt_float(theta)} for t = {args.t:g}% "
          f"({args.measure}/{args.aggregate}, pool of {sum(map(len, score_sets))})")
    for path, t, scores in scored:
        by_theta = len(select_threshold(scores, theta).rc)
        by_topk = topk_count(t.n_active, args.t)
        print(f"  {path}: threshold selects {by_theta}, top-k would select {by_topk}")
    if args.out:
        _write_json(args.out, {
            "t_percent": args.t,
            "theta": fmt_float(theta),
            "measure": args.measure,
            "aggregate": args.aggregate,
            "pool_size": sum(map(len, score_sets)),
            "scenes": list(args.scenes),
        })
        print(f"wrote {args.out}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pillarconv",
        description="Sparse pillar convolutions with selective dilation.",
    )
    parser.add_argument("--version", action="version", version=f"pillarconv {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scene")
    p.add_argument("--preset", choices=sorted(SCENE_PRESETS))
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--height", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--channels", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--pattern", choices=["uniform", "clustered", "ring-arcs"])
    p.add_argument("--clusters", type=int)
    p.add_argument("--spread", type=float)
    p.add_argument("--arcs", type=int)
    p.add_argument("--features", choices=["gaussian", "constant"])
    p.add_argument("--constant-value", type=float, dest="constant_value")
    p.add_argument("--out", default="scene.plt")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_gen)

    def add_network_args(p, with_mode=True, with_t=True):
        p.add_argument("--network", choices=sorted(NETWORK_PRESETS), default="pointpillars")
        p.add_argument("--network-json", help="network spec JSON file (overrides --network)")
        p.add_argument("--weights-seed", type=int, default=_default_seed())
        if with_t:
            p.add_argument("--t", type=float, default=None,
                           help="override every selective layer's top-k percent")
        if with_mode:
            p.add_argument("--mode", choices=[m.value for m in ConvMode],
                           help="force every body layer to this mode")

    p = sub.add_parser("run", help="run a scene through a network")
    p.add_argument("scene")
    add_network_args(p)
    p.add_argument("--out", help="write the output tensor as .plt")
    p.add_argument("--report", help="write per-layer report (.csv or .json)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="compare sparse modes to the dense oracle")
    p.add_argument("scene", nargs="?")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--cases", type=int, default=20)
    p.add_argument("--c-out", type=int, default=8)
    p.add_argument("--t", type=float, default=10.0)
    p.add_argument("--tol", type=float, default=1e-5)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="total flops across dilation percentages")
    p.add_argument("scene")
    add_network_args(p, with_mode=False, with_t=False)
    p.add_argument("--t", type=float, nargs="+", default=[0, 1, 2, 5, 10, 100])
    p.add_argument("--report", help="write sweep table (.csv)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="accelerator cycle model")
    p.add_argument("scene")
    add_network_args(p)
    p.add_argument("--array-rows", type=int, default=64)
    p.add_argument("--array-cols", type=int, default=64)
    p.add_argument("--sram-kb", type=int, default=654)
    p.add_argument("--report", help="write cycle report (.json)")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="importance threshold for a top-k percent")
    p.add_argument("scenes", nargs="+")
    p.add_argument("--t", type=float, default=2.0)
    p.add_argument("--measure", choices=[m.value for m in Measure], default="mean_abs")
    p.add_argument("--aggregate", choices=[a.value for a in Aggregate], default="identity")
    p.add_argument("--out", help="write calibration result (.json)")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        args._argv = argv
        return args.func(args)
    except (PillarConvError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
