"""The benchmark's span tracer still finds every pillarconv name it wraps.

`perfbench/run.py --trace 1` exits when a traced name is gone, so a deletion
in the package fails here first.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look their module up
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()  # raises TraceError for a name that no longer exists
    assert len(tracer.targets) == len(spans.TRACED)
