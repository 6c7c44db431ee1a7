"""Run the whole CLI pipeline on one config and print the sha256 of every output.

usage: python3 tools/digests.py --config CONFIG.json --out DIR

The stages run as `python -m boxpath.cli` over this checkout's `src/`, each
writing under DIR:

    presets/                      presets
    analytic/                     analytic --csv
    sample_workers1/, _workers2/  sample --spill at --workers 1 and 2
    report.json                   compare (analytic, sample_workers1)
    figures/                      figures
    figures_sample/               figures --sample sample_workers1

The last line printed is one JSON object mapping each output's path,
relative to DIR, to its sha256.  Each trajectory spill also gets the
sha256 of every column as this checkout's `read_trajectories` returns it,
under its path plus `#` and the field name (`sample_workers1/rays.bin#length`),
so a change to the spill layout alone shows that the paths did not move.
Run it on two checkouts with the same config and compare the objects to
see which bytes a change moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIELDS = ("entry_code", "entry_ab", "exit_code", "exit_ab", "length")


def run_stages(config: Path, out: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    inputs = ["--analytic", out / "analytic"]
    sample = ["--sample", out / "sample_workers1"]
    stages = [
        ["presets", "--out", out / "presets"],
        ["analytic", "--config", config, "--out", out / "analytic", "--csv"],
        *(
            ["sample", "--config", config, "--workers", str(w), "--out", out / f"sample_workers{w}", "--spill"]
            for w in (1, 2)
        ),
        ["compare", *inputs, *sample, "--out", out / "report.json"],
        ["figures", *inputs, "--out", out / "figures"],
        ["figures", *inputs, *sample, "--out", out / "figures_sample"],
    ]
    for argv in stages:
        cmd = [sys.executable, "-m", "boxpath.cli", *map(str, argv)]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")


def digests(out: Path) -> dict[str, str]:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from boxpath import io as bio

    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = str(path.relative_to(out))
        with open(path, "rb") as fh:
            result[name] = hashlib.file_digest(fh, "sha256").hexdigest()
        if path.suffix == ".bin":
            batch = bio.read_trajectories(path)
            for field in FIELDS:
                column = np.ascontiguousarray(getattr(batch, field))
                result[f"{name}#{field}"] = hashlib.sha256(column.tobytes()).hexdigest()
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path, help="RunConfig JSON for analytic and sample")
    parser.add_argument("--out", required=True, type=Path, help="directory for every stage's outputs")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    run_stages(args.config.resolve(), args.out.resolve())
    print(json.dumps(digests(args.out.resolve()), sort_keys=True))


if __name__ == "__main__":
    main()
