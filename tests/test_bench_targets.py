"""The benchmark's tracer wraps boxpath functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{name}"
        for mod, names in spans.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"boxpath.{mod}"), name, None))
    ]
    assert missing == []
