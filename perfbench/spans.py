"""Span tracing of pillarconv's layers, recorded from outside the package.

`Tracer.installed()` replaces each traced function, on the module attribute
its caller looks up, by a wrapper that records a span (name, start, end,
parent) and a few counts taken from the call's arguments and result. The
originals are restored on exit. `backbone` imports its callees by name, so
the wrappers go on `pillarconv.backbone.<name>`, not on the defining module.

A layer's self time is the duration of its spans minus the part covered by
their child spans. `op_profile` folds the spans of one op into per-layer
self times and counts.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


class TraceError(RuntimeError):
    """The traced run cannot attribute time: a name is gone or a layer is silent."""


def _kernel_arg(args):
    return next(a for a in args if hasattr(a, "taps"))


def _rulebook(args, kwargs, rb) -> dict:
    return {
        "tuples": rb.n_tuples,
        "outputs": rb.n_outputs,
        "probes": len(args[0]) * _kernel_arg(args).taps,
    }


def _execute(args, kwargs, out) -> dict:
    rb, _, k = args
    return {"flops": 2 * rb.n_tuples * k.c_in * k.c_out + rb.n_outputs * k.c_out}


def _dense_conv(args, kwargs, out) -> dict:
    k = args[1]
    positions = out.height * out.width
    return {"flops": positions * (2 * k.taps * k.c_in * k.c_out + k.c_out)}


def _dense_deconv(args, kwargs, out) -> dict:
    # each output position of the 2x2 stride-2 transposed form sums one tap
    k = args[1]
    positions = out.height * out.width
    return {"flops": positions * (2 * k.c_in * k.c_out + k.c_out)}


def _select(args, kwargs, sel) -> dict:
    return {"selected": len(sel.selected)}


def _concat(args, kwargs, out) -> dict:
    return {"rows": out.n_active}


def _pipelined(args, kwargs, result) -> dict:
    return {"alignment": result[1].alignment}


def _strided(args, kwargs, stats) -> dict:
    return {"alignment": stats.alignment}


def _simulate(args, kwargs, net) -> dict:
    return {
        "mapping_cycles": net.mapping,
        "gemm_cycles": net.gemm,
        "stall_cycles": net.stall,
    }


def _run(args, kwargs, res) -> dict:
    return {"layers": len(res.reports)}


# (module, attribute path, layer, counts taken from (args, kwargs, result))
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("pillarconv.tensor", "load_plt", "tensor.plt_read", None),
    ("pillarconv.tensor", "validate_coords", "tensor.validate", None),
    ("pillarconv.tensor", "PillarTensor.to_dense", "tensor.dense_convert", None),
    ("pillarconv.backbone", "from_dense", "tensor.dense_convert", None),
    ("pillarconv.backbone", "concat_channels", "tensor.concat", _concat),
    ("pillarconv.backbone", "pillar_importance", "importance.score", None),
    ("pillarconv.backbone", "select_topk", "importance.select", _select),
    ("pillarconv.backbone", "select_threshold", "importance.select", _select),
    ("pillarconv.backbone", "selection_flags", "importance.select", None),
    ("pillarconv.backbone", "build_rulebook_subm", "conv.rulebook", _rulebook),
    ("pillarconv.backbone", "build_rulebook_sparse", "conv.rulebook", _rulebook),
    ("pillarconv.backbone", "build_rulebook_selective", "conv.rulebook", _rulebook),
    ("pillarconv.backbone", "build_rulebook_downsample2x2", "conv.rulebook", _rulebook),
    ("pillarconv.backbone", "build_rulebook_deconv2x2", "conv.rulebook", _rulebook),
    ("pillarconv.backbone", "execute_rulebook", "conv.execute", _execute),
    ("pillarconv.backbone", "dense_conv_oracle", "conv.dense", _dense_conv),
    ("pillarconv.backbone", "dense_deconv_oracle", "conv.dense", _dense_deconv),
    ("pillarconv.backbone", "run_network", "backbone.run", _run),
    ("pillarconv.accel", "simulate_network", "accel.simulate", _simulate),
    ("pillarconv.accel", "generate_rules_pipelined", "accel.mapping", _pipelined),
    ("pillarconv.accel", "mapping_stats_strided", "accel.mapping", _strided),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in TRACED))


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _resolve(module: str, path: str):
    """Return (owner, attribute name); TraceError if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError as e:
        raise TraceError(f"traced module {module} cannot be imported: {e}") from e
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceError(f"traced name {module}.{path} no longer exists")
    if not callable(getattr(owner, attr, None)):
        raise TraceError(f"traced name {module}.{path} no longer exists")
    return owner, attr


class Tracer:
    """Records spans in memory while installed; single-threaded callers only."""

    def __init__(self, traced=TRACED) -> None:
        self.targets = [(_resolve(m, p), layer, fn) for m, p, layer, fn in traced]
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Open a span; it nests under whichever span is open."""
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, layer: str, counter):
        def traced(*args, **kwargs):
            with self.span(layer) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                s.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced name for its wrapper until the block exits."""
        saved = []
        try:
            for (owner, attr), layer, counter in self.targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, layer, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def subtree(self, root: int) -> list[int]:
        """Indices of the spans under `root`, itself included."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "counts": s.counts,
                }) + "\n")


def op_profile(tracer: Tracer, root: int) -> dict:
    """Per-layer self time, call count and summed counts under one op span.

    Returns {"wall": op seconds,
    "layers": {layer: {"self": s, "total": s, "calls": n, counts...}}}.
    """
    idx = tracer.subtree(root)
    child_time = {i: 0.0 for i in idx}
    for i in idx:
        s = tracer.spans[i]
        if i != root:
            child_time[s.parent] += s.end - s.start
    layers: dict[str, dict] = {}
    for i in idx:
        if i == root:
            continue
        s = tracer.spans[i]
        row = layers.setdefault(s.name, {"self": 0.0, "total": 0.0, "calls": 0})
        row["self"] += (s.end - s.start) - child_time[i]
        row["total"] += s.end - s.start
        row["calls"] += 1
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    r = tracer.spans[root]
    return {"wall": r.end - r.start, "layers": layers}
