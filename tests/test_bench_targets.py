"""The benchmark's tracer wraps boxpath functions by name; each must exist
and take the arguments the tracer reads."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from boxpath import BoxDims, IndexTriple, rays

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_span_targets_resolve():
    spans = _load_spans()
    missing = [
        f"{mod}.{name}"
        for mod, names in spans.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"boxpath.{mod}"), name, None))
    ]
    assert missing == []


def test_adjacent_marginal_span_attrs():
    """The tracer reads the adjacent marginal's bound arguments, defaults included."""
    spans = _load_spans()
    bound = inspect.signature(rays.length_marginal_adjacent).bind(BoxDims(1.0, 0.1, 1.0), IndexTriple(1, 2, 3))
    bound.apply_defaults()
    attrs = spans._attrs("rays.length_marginal_adjacent", bound.arguments, None)
    assert set(attrs) == {"key", "evals"}


def test_importing_the_cli_loads_every_traced_module():
    """The tracer imports `boxpath.cli` and then looks up each module it wraps
    in `sys.modules`, so importing the CLI as a module must load them all."""
    spans = _load_spans()
    code = "import json, sys; import boxpath.cli; print(json.dumps(sorted(m for m in sys.modules if m.startswith('boxpath.'))))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    loaded = set(json.loads(out.stdout))
    assert {f"boxpath.{mod}" for mod in spans.TARGETS} <= loaded
