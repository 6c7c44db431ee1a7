"""Run one boxpath CLI stage in-process, with spans around its layers.

usage: python3 bench/spans.py SPANS_JSON -- <boxpath command line>

The public functions that the CLI stages call are wrapped from here, in
every boxpath module that holds a reference to them, so the program is
not changed.  Each call records a span (name, start, end, parent span)
plus a few counts taken from its arguments and result.  Spans are kept
in memory and written to SPANS_JSON when the stage ends; bench/run.py
turns them into the per-layer metrics.  The exit code is the stage's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Wrapped functions by module.  Each is called by a CLI stage, directly or
# through another wrapped function.
TARGETS = {
    "rays": (
        "length_marginal_adjacent",
        "length_marginal_opposing",
        "joint_pdf_opposing",
        "joint_pdf_adjacent",
        "exit_pdf_opposing",
        "exit_pdf_adjacent",
    ),
    "combined": ("combined_length_pdf_rays", "combined_length_pdf_chords", "single_face_length_pdf"),
    "chords": ("joint_pdf_opposing", "joint_pdf_adjacent", "pair_length_pdf"),
    "density": ("convolve_sum", "bin_masses_3d"),
    "montecarlo": ("sample_rays", "sample_chords", "canonical_histograms", "length_histogram"),
    "io": ("save_density", "save_histograms", "write_trajectories", "read_trajectories"),
    "compare": ("compare_joint", "compare_length"),
    "svg": ("heatmap_svg", "line_svg"),
}

# The per-class length laws that `combined` mixes.
CLASS_LAWS = ("rays.length_marginal_adjacent", "rays.length_marginal_opposing", "chords.pair_length_pdf")


def _class_law_key(name, args):
    """The class law's canonical dimensions and remaining arguments."""
    box, idx = args["box"], args["indices"]
    rest = {k: (v.value if hasattr(v, "value") else v) for k, v in args.items() if k not in ("box", "indices")}
    dims = [box.dim(idx.i), box.dim(idx.j), box.dim(idx.k)]
    return json.dumps([name, dims, rest], sort_keys=True)


def _batch_bytes(batch):
    return sum(a.nbytes for a in (batch.entry_code, batch.entry_ab, batch.exit_code, batch.exit_ab, batch.length))


def _attrs(name, args, result):
    """Counts recorded with a span, from the call's arguments and result."""
    if name in CLASS_LAWS:
        attrs = {"key": _class_law_key(name, args)}
        if name == "rays.length_marginal_adjacent":
            attrs["evals"] = args["n_nodes"] * args["angle_nodes"] * args["elevation_nodes"]
        return attrs
    if name in ("montecarlo.sample_rays", "montecarlo.sample_chords"):
        attrs = {"paths": len(result), "batch_bytes": _batch_bytes(result)}
        if "pair_attempts" in result.meta:
            attrs["attempts"] = result.meta["pair_attempts"]
        return attrs
    if name == "montecarlo.canonical_histograms":
        return {"paths": len(args["batch"])}
    if name in ("io.save_density", "io.write_trajectories", "io.read_trajectories"):
        return {"bytes": os.path.getsize(args["path"])}
    return {}


class Tracer:
    """Keeps spans in memory; one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*a, **kw)
            finally:
                end = time.perf_counter()
                stack.pop()
            bound = sig.bind(*a, **kw)
            bound.apply_defaults()
            self.spans[span_id] = [span_id, name, start, end, parent, _attrs(name, bound.arguments, result)]
            return result

        return wrapper

    def install(self):
        """Replace each target in every boxpath module that refers to it."""
        modules = [m for n, m in sys.modules.items() if n == "boxpath" or n.startswith("boxpath.")]
        for mod_name, names in TARGETS.items():
            mod = sys.modules[f"boxpath.{mod_name}"]
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = self.wrap(f"{mod_name}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    sys.path.insert(0, str(SRC))
    from boxpath import cli

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(f"cli.{cli_args[0]}", cli.main)(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"command": cli_args[0], "spans": [s for s in tracer.spans if s is not None]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
