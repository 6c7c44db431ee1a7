"""Run the benchmark on two commits in alternating pairs and write a BENCH file.

usage: python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_<n>.json
           [--run WORKLOAD:SEED ...]

Each commit is exported with `git archive` into its own fresh directory, so
both sides run the committed files of `bench/` and `src/` and nothing of the
working tree.  For every `--run` (default `all:1`), ten pairs of
`bench/run.py --workload WORKLOAD --seed SEED`, at the run length that
`bench/run.py` sets, follow each other: odd pairs run the parent first, even
pairs the change first.  The last line each run prints is its result.

The file written has BENCH_8.json's layout: `parent` and `change` are pair
1 of the first run; `pairs` holds, for the first run, every pair's
`failed` and `attempted` counts and, for each end-to-end metric, each side's
median and quartiles (numpy's linear percentiles) over the pairs, with the
number of pairs the change wins and ties, by the metric's direction in
BENCHMARK.json.  Further runs go, in the same form, to `more_pairs`.
Metric names are always `WORKLOAD/METRIC`.  `setup` records the Python and
numpy versions and the CPU count of the machine that ran them.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Write commit `rev`'s files into `dest`; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def bench(checkout: Path, workload: str, seed: int) -> dict:
    """One `bench/run.py` run in `checkout`; its result, with `WORKLOAD/` metric names."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if workload != "all":
        result["metrics"] = {f"{workload}/{k}": v for k, v in result["metrics"].items()}
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """The `pairs` block of a BENCH file from each side's results, pair by pair."""
    parent, change = runs["parent"], runs["change"]
    block = {
        "count": len(parent),
        "order": "alternating: odd pairs run the parent first, even pairs the change first",
        "failed": {side: [r["failed"] for r in results] for side, results in runs.items()},
        "attempted": {side: [r["attempted"] for r in results] for side, results in runs.items()},
        "end_to_end": {},
    }
    for name, metric in parent[0]["metrics"].items():
        direction = better.get(name.split("/", 1)[1])
        if direction is None:
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if direction == "higher" else -1.0
        block["end_to_end"][name] = {
            "parent": quartiles(p),
            "change": quartiles(c),
            "change_wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            "ties": sum(a == b for a, b in zip(p, c)),
            "unit": metric["unit"],
        }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--change", required=True, help="the changed commit")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--run", action="append", metavar="WORKLOAD:SEED", help="default all:1; repeatable")
    args = parser.parse_args(argv)
    specs = []
    for item in args.run or ["all:1"]:
        workload, _, seed = item.partition(":")
        if not seed.isdigit():
            parser.error(f"--run {item!r}: expected WORKLOAD:SEED with a non-negative integer seed")
        specs.append((workload, int(seed)))
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts, shas = {}, {}
        for side in ("parent", "change"):
            checkouts[side] = Path(tmp) / side
            shas[side] = export(getattr(args, side), checkouts[side])
        blocks, first = [], None
        for workload, seed in specs:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    runs[side].append(bench(checkouts[side], workload, seed))
                    print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: {side} done", flush=True)
            first = first or runs
            blocks.append({"workload": workload, "seed": seed, **summarize(runs, better)})

    workload, seed = specs[0]
    record = {
        "command": f"python3 bench/run.py --workload {workload} --seed {seed}",
        "setup": f"Python {platform.python_version()}, numpy {np.__version__}, {os.cpu_count()} CPUs; "
        f"parent {shas['parent'][:7]} and change {shas['change'][:7]}, "
        "each exported by git archive into its own directory; `parent` and `change` below are the results of pair 1",
        "parent": first["parent"][0],
        "change": first["change"][0],
        "pairs": {k: v for k, v in blocks[0].items() if k not in ("workload", "seed")},
    }
    if len(blocks) > 1:
        record["more_pairs"] = blocks[1:]
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for block in blocks:
        print(f"{block['workload']} seed {block['seed']}:")
        for name, m in block["end_to_end"].items():
            p, c = m["parent"], m["change"]
            print(f"  {name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}], "
                  f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], change wins {m['change_wins']}/{block['count']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
