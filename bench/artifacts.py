"""Summarize a pipeline's artifacts for the benchmark's checks.

usage: python3 bench/artifacts.py ANALYTIC_DIR SAMPLE_DIR OUT_JSON

Artifacts are read through boxpath's own readers, so the checks in
bench/run.py follow the file formats as they change.  Only reading
happens here: every comparison with the oracle is made in bench/run.py.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boxpath import io as bio  # noqa: E402


def _law(path):
    density, meta = bio.load_density(path)
    return {"lo": density.lo, "hi": density.hi, "values": density.values.tolist(), "meta": meta}


def main(analytic, sample, out):
    analytic, sample = Path(analytic), Path(sample)
    laws = {f"combined_{m}": _law(analytic / f"combined_{m}.npz") for m in ("rays", "chords")}
    for model in ("rays", "chords"):
        for axis in (1, 2, 3):
            laws[f"single_face_{model}_axis{axis}"] = _law(analytic / f"single_face_{model}_axis{axis}.npz")
    hists, _ = bio.load_histograms(sample / "sample_chords_hists.npz")
    rays = bio.read_trajectories(sample / "rays.bin")
    chords = bio.read_trajectories(sample / "chords.bin")
    pair_counts = np.bincount(chords.entry_code.astype(np.int64) * 6 + chords.exit_code, minlength=36)
    summary = {
        "laws": laws,
        "chord_class_totals": {label: h.total for label, h in hists.items()},
        "rays_spill": {
            "count": len(rays),
            "length_sum": float(rays.length.sum()),
            "length_sq_sum": float(np.dot(rays.length, rays.length)),
            "entry_counts": np.bincount(rays.entry_code, minlength=6).tolist(),
        },
        "chords_spill": {"count": len(chords), "pair_counts": pair_counts.reshape(6, 6).tolist()},
    }
    with open(out, "w") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(main(*sys.argv[1:]))
