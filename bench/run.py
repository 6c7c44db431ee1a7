"""Benchmark of the boxpath CLI pipeline, checked against an independent oracle.

usage: python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A round runs `presets`, `analytic`, `sample`, `compare` and `figures`,
each as fresh `python -m boxpath.cli` processes over the checkout's src/
(REPEATS times each), then checks the artifacts (see bench/README.md).
Rounds repeat until --seconds have passed; every round attempts the same
checks, and each metric is the median over the rounds.  With --trace 1
every round also runs the stages again under bench/spans.py, and the
result holds the per-layer metrics instead of the end-to-end ones.  The
last line printed is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle
from spans import CLASS_LAWS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

# Ray grids cut from the preset defaults (64/129/1025/2048/2048), which take
# about 100 s in `analytic` on the cube: too long for the repeated runs a
# comparison needs.  Chord settings stay at their defaults.
RAY_GRIDS = {"grid_nodes_3d": 32, "grid_nodes_2d": 65, "grid_nodes_1d": 257, "angle_nodes": 512, "slope_nodes": 512}
WORKLOADS = {
    # Ray length marginals take most of the round; the sampler is small.
    "cube-analytic": {"preset": "cube.json", "box": (1.0, 1.0, 1.0), "samples": 1_000_000, "workers": 1},
    # Sampling, histograms and spill I/O weigh more; the thin box moves the
    # kernels' breakpoints and has unequal face areas.
    "slab-mc": {"preset": "slab.json", "box": (1.0, 0.1, 1.0), "samples": 3_000_000, "workers": 2},
}
STAGES = ("presets", "analytic", "sample", "compare", "figures")
# The stage runs of a round, in order, as (stage, repeat).  A stage's wall is
# the median over its repeats.  The host's speed shifts by about 15 % for
# seconds at a time, so the repeats are spread over the round rather than
# run back to back; `compare` and `figures` read analytic0 and sample0.
SCHEDULE = (
    ("presets", 0), ("sample", 0), ("presets", 1), ("analytic", 0), ("compare", 0), ("figures", 0),
    ("sample", 1), ("presets", 2), ("compare", 1), ("figures", 1), ("compare", 2),
)
REPEATS = {stage: sum(1 for s, _ in SCHEDULE if s == stage) for stage in STAGES}
MASS_BOUND = 0.03  # |1 - mass| of the combined ray law and of each entry face's ray class masses
Z_BOUND = 5.0  # standard errors allowed between a sampled share or mean and its exact value
RUN_LIMIT_S = 150.0  # no round starts that would, at the last round's pace, end after this
STAGE_TIMEOUT_S = 170.0
MB = 2.0**20

# Checks that fail because of a known fault in the program.  They still
# count as failed operations, but do not make the result incorrect.
# chord_class_shares: montecarlo.sample_chords redraws both points of a
# same-face pair, while combined.combined_length_pdf_chords weights pairs
# by P_f P_g / (1 - P_f); the two agree only when all face areas are equal.
KNOWN_FAULTS = {"chord_class_shares"}

END_TO_END = {
    "setup_s": "s",
    "analytic_s": "s",
    "sample_paths_per_s": "paths/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
    "rays_mean_err": "length",
    "rays_mass_err": "1",
    "chords_mean_err": "length",
}
# `compare` and `figures` are mostly interpreter start and imports, whose
# speed swings with the host's load: over ten runs their spread reached 0.28
# of the median, more than any bound may be.  They are reported here, with
# no bound, and their time stays in `pipeline_s`.
PER_LAYER = {
    "compare_s": "s",
    "figures_s": "s",
    "rays.length_marginal_adjacent.s": "s",
    "rays.length_marginal_adjacent.calls": "count",
    "rays.length_marginal_adjacent.evals": "count",
    "rays.length_marginal_opposing.s": "s",
    "rays.joint_pdf.s": "s",
    "rays.exit_pdf.s": "s",
    "combined.self_s": "s",
    "combined.class_law_calls": "count",
    "combined.class_law_distinct": "count",
    "chords.joint_pdf.s": "s",
    "chords.pair_length_pdf.s": "s",
    "density.convolve_sum.calls": "count",
    "density.convolve_sum.s": "s",
    "montecarlo.sample_rays.paths_per_s": "paths/s",
    "montecarlo.sample_chords.paths_per_s": "paths/s",
    "montecarlo.canonical_histograms.paths_per_s": "paths/s",
    "montecarlo.length_histogram.s": "s",
    "montecarlo.chord_attempts_per_path": "1",
    "montecarlo.batch_mb": "MB",
    "io.save_density.s": "s",
    "io.save_density.mb": "MB",
    "io.save_histograms.s": "s",
    "io.write_trajectories.mb_per_s": "MB/s",
    "io.read_trajectories.mb_per_s": "MB/s",
    "compare.compare_joint.s": "s",
    "compare.compare_length.s": "s",
    "density.bin_masses_3d.s": "s",
    "svg.heatmap_svg.s": "s",
    "svg.line_svg.s": "s",
    **{f"cli.{stage}.{m}": u for stage in STAGES for m, u in (("cpu_s", "s"), ("peak_rss_mb", "MB"))},
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a fault of the program)."""


def run_process(argv, log_path):
    """Run one child to its end; return wall, CPU and peak RSS from its rusage."""
    # Children may cache boxpath's bytecode under src/, as an installed
    # package has it, whatever the caller's PYTHONDONTWRITEBYTECODE says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss * 1024 / MB, "rc": proc.returncode}


def stage_output(work, stage, i):
    """Where repeat `i` of a stage writes: a file for `compare`, else a directory."""
    return work / (f"report{i}.json" if stage == "compare" else f"{stage}{i}")


def stage_argv(work, cfg, stage, i):
    """Command line of repeat `i` of a stage."""
    out = stage_output(work, stage, i)
    inputs = ["--analytic", work / "analytic0", "--sample", work / "sample0"]
    return {
        "presets": ["presets", "--out", out],
        "analytic": ["analytic", "--config", cfg, "--out", out],
        "sample": ["sample", "--config", cfg, "--out", out, "--spill"],
        "compare": ["compare", *inputs, "--out", out],
        "figures": ["figures", *inputs, "--out", out],
    }[stage]


def write_config(work, spec, seed):
    """The workload's config: the preset as `boxpath presets` wrote it, plus overrides."""
    preset = work / "presets0" / spec["preset"]
    cfg = work / "workload.json"
    if preset.exists():
        data = json.loads(preset.read_text())
        data.update(RAY_GRIDS, seed=seed, samples=spec["samples"], workers=spec["workers"])
        cfg.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def listed_outputs(directory, manifest):
    """True when the manifest exists and every output it lists does too."""
    path = directory / manifest
    if not path.exists():
        return False
    outputs = json.loads(path.read_text())["outputs"]
    return bool(outputs) and all((directory / name).exists() for name in outputs)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def output_digests(path):
    """sha256 of a stage's output file, or of every file under its output directory."""
    if path.is_file():
        return {"": digest(path)}
    return {str(p.relative_to(path)): digest(p) for p in sorted(path.rglob("*")) if p.is_file()}


def _z(count, total, p):
    return (count - total * p) / np.sqrt(total * p * (1.0 - p))


ACCURACY_CHECKS = (
    "rays_mean",
    "rays_mass",
    *(f"single_face_{m}_axis{a}_mean" for a in (1, 2, 3) for m in ("rays", "chords")),
    *(f"ray_class_masses_entry{a}" for a in (1, 2, 3)),
)
SAMPLING_CHECKS = ("spill_ray_mean", "spill_ray_entry_shares", "spill_chord_exit_shares", "chord_class_shares")


def accuracy(summary, refs, box):
    """The checks and error metrics that compare saved laws with the oracle."""
    laws = summary["laws"]

    def stats(name):
        law = laws[name]
        return oracle.law_mass_mean(law["lo"], law["hi"], np.asarray(law["values"]))

    bound = oracle.mean_bound(box)
    checks, errors = {}, {}
    mass, mean = stats("combined_rays")
    errors["rays_mean_err"] = abs(mean - refs["ray_combined"])
    errors["rays_mass_err"] = abs(1.0 - mass)
    checks["rays_mean"] = (errors["rays_mean_err"] <= bound, f"|{mean:.6f} - {refs['ray_combined']:.6f}| vs {bound:.2e}")
    checks["rays_mass"] = (errors["rays_mass_err"] <= MASS_BOUND, f"mass {mass:.6f}")
    chord_errs = []
    for axis in (1, 2, 3):
        for model, ref_name in (("rays", f"ray_axis{axis}"), ("chords", f"chord_axis{axis}")):
            _, mean = stats(f"single_face_{model}_axis{axis}")
            err = abs(mean - refs[ref_name])
            if model == "chords":
                chord_errs.append(err)
            checks[f"single_face_{model}_axis{axis}_mean"] = (err <= bound, f"|{mean:.6f} - {refs[ref_name]:.6f}| vs {bound:.2e}")
    errors["chords_mean_err"] = max(chord_errs)
    masses = {t["label"]: t["mass"] for t in laws["combined_rays"]["meta"]["terms"]}
    for axis in (1, 2, 3):
        total = masses[f"opposing-entry{axis}"] + 2.0 * sum(
            m for label, m in masses.items() if label.startswith(f"adjacent-entry{axis}-")
        )
        checks[f"ray_class_masses_entry{axis}"] = (abs(total - 1.0) <= MASS_BOUND, f"sum {total:.6f}")
    return checks, errors


def sampling_checks(summary, refs, box):
    """Checks of the spills and histograms against exact laws."""
    checks = {}
    p = np.repeat(oracle.area_shares(box), 2)  # per face code 0..5
    rays = summary["rays_spill"]
    n = rays["count"]
    mean = rays["length_sum"] / n
    se = np.sqrt((rays["length_sq_sum"] / n - mean * mean) / n)
    z = (mean - refs["ray_combined"]) / se
    checks["spill_ray_mean"] = (abs(z) <= Z_BOUND, f"{mean:.6f} vs {refs['ray_combined']:.6f}, z {z:.2f}")
    z = _z(np.asarray(rays["entry_counts"]), n, p)
    checks["spill_ray_entry_shares"] = (np.abs(z).max() <= Z_BOUND, f"max |z| {np.abs(z).max():.2f}")
    pairs = np.asarray(summary["chords_spill"]["pair_counts"], dtype=float)
    worst, same_face = 0.0, int(np.trace(pairs))
    for f in range(6):
        n_f = pairs[f].sum()
        for g in range(6):
            if g != f and n_f > 0:
                worst = max(worst, abs(_z(pairs[f, g], n_f, p[g] / (1.0 - p[f]))))
    checks["spill_chord_exit_shares"] = (worst <= Z_BOUND and same_face == 0, f"max |z| {worst:.2f}, same-face {same_face}")
    totals = summary["chord_class_totals"]
    weights = {t["label"]: t["weight"] for t in summary["laws"]["combined_chords"]["meta"]["terms"]}
    n = sum(totals.values())
    zs = {label: _z(totals[label], n, w) for label, w in weights.items()}
    label = max(zs, key=lambda k: abs(zs[k]))
    checks["chord_class_shares"] = (
        abs(zs[label]) <= Z_BOUND and set(totals) == set(weights),
        f"worst {label}: share {totals[label] / n:.5f} vs weight {weights[label]:.5f}, z {zs[label]:.1f}",
    )
    return checks


def run_round(work, spec, seed, refs, first_digests):
    """One untraced pass of the pipeline and its checks."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = [sys.executable, "-m", "boxpath.cli"]
    cfg = work / "workload.json"
    stages = {stage: [] for stage in STAGES}
    for stage, i in SCHEDULE:
        stages[stage].append(run_process(cli + stage_argv(work, cfg, stage, i), work / f"{stage}{i}.log"))
        if (stage, i) == ("presets", 0):
            write_config(work, spec, seed)
    checks = {}

    def check(name, fn):
        try:
            checks[name] = fn()
        except Exception as exc:  # a missing or malformed artifact fails the check
            checks[name] = (False, f"{type(exc).__name__}: {exc}")

    def exited_ok(stage):
        return all(r["rc"] == 0 for r in stages[stage])

    def listed(stage, manifest):
        return all(listed_outputs(stage_output(work, stage, i), manifest) for i in range(REPEATS[stage]))

    def reported(i):
        return "worst_l1" in json.loads(stage_output(work, "compare", i).read_text())["summary"]

    presets = ("cube.json", "slab.json", "rod.json")
    check("presets_stage", lambda: (
        exited_ok("presets") and all(json.loads((work / "presets0" / n).read_text())["box"] for n in presets),
        "",
    ))
    check("analytic_stage", lambda: (exited_ok("analytic") and listed("analytic", "manifest.json"), ""))
    check("sample_stage", lambda: (exited_ok("sample") and listed("sample", "manifest.json"), ""))
    check("compare_stage", lambda: (exited_ok("compare") and all(reported(i) for i in range(REPEATS["compare"])), ""))
    check("figures_stage", lambda: (exited_ok("figures") and listed("figures", "figures_manifest.json"), ""))

    summary_run = run_process(
        [sys.executable, BENCH / "artifacts.py", work / "analytic0", work / "sample0", work / "artifacts.json"],
        work / "artifacts.log",
    )
    summary = json.loads((work / "artifacts.json").read_text()) if summary_run["rc"] == 0 else None
    errors = {}
    try:
        acc, errors = accuracy(summary, refs, spec["box"])
        checks.update(acc)
    except Exception as exc:  # every law check fails when the laws cannot be read
        checks.update({n: (False, f"{type(exc).__name__}: {exc}") for n in ACCURACY_CHECKS})
    try:
        checks.update(sampling_checks(summary, refs, spec["box"]))
    except Exception as exc:
        checks.update({n: (False, f"{type(exc).__name__}: {exc}") for n in SAMPLING_CHECKS})

    digests = {stage: [output_digests(stage_output(work, stage, i)) for i in range(REPEATS[stage])] for stage in STAGES}

    def determinism():
        differ = [stage for stage, runs in digests.items() if any(d != runs[0] for d in runs[1:])]
        same_rounds = first_digests is None or all(digests[s][0] == first_digests[s][0] for s in STAGES)
        return (
            not differ and same_rounds,
            f"repeats differ in {differ or 'no stage'}; same as round 1: {same_rounds}",
        )

    check("determinism", determinism)
    (work / "timings.json").write_text(json.dumps(stages, indent=1) + "\n")
    for spill in list(work.rglob("*.bin")):
        spill.unlink()
    return {"stages": stages, "checks": checks, "errors": errors, "digests": digests}


def median_wall(runs):
    return statistics.median(r["wall"] for r in runs)


def end_to_end(rnd, samples):
    if not rnd["errors"]:
        raise BenchError("the analytic laws could not be read; no accuracy metrics")
    stages = rnd["stages"]
    walls = {s: median_wall(stages[s]) for s in STAGES}
    m = {
        "setup_s": walls["presets"],
        "analytic_s": walls["analytic"],
        "sample_paths_per_s": 2.0 * samples / walls["sample"],
        "pipeline_s": sum(walls.values()),
        "peak_rss_mb": max(r["rss_mb"] for runs in stages.values() for r in runs),
    }
    m.update(rnd["errors"])
    return m


def traced_round(work, cfg):
    """The stages again, each under bench/spans.py; returns walls and span files."""
    tdir = work / "traced"
    tdir.mkdir(parents=True, exist_ok=True)
    walls, span_files = {}, []
    for stage in STAGES:
        spans = tdir / f"spans_{stage}.json"
        res = run_process([sys.executable, BENCH / "spans.py", spans, "--", *stage_argv(tdir, cfg, stage, 0)], tdir / f"{stage}.log")
        if res["rc"] != 0:
            raise BenchError(f"traced {stage} exited with {res['rc']}; see {tdir / (stage + '.log')}")
        walls[stage] = res["wall"]
        span_files.append(spans)
    for spill in list(tdir.rglob("*.bin")):
        spill.unlink()
    return walls, span_files


def layer_metrics(span_files, rnd, traced_walls):
    """Per-layer metrics from the spans of one traced round."""
    spans = []
    for path in span_files:
        for span_id, name, start, end, parent, attrs in json.loads(Path(path).read_text())["spans"]:
            spans.append({"key": (str(path), span_id), "name": name, "dur": end - start, "parent": (str(path), parent), "attrs": attrs})
    by_key = {s["key"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        child_time[s["parent"]] += s["dur"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(*names):
        return sum(s["dur"] for s in named(*names))

    def attr_sum(name, attr):
        return sum(s["attrs"].get(attr, 0) for s in named(name))

    class_laws = [
        s for s in spans
        if s["name"] in CLASS_LAWS
        and by_key.get(s["parent"], {}).get("name", "").startswith("combined.")
    ]
    chords_s = seconds("montecarlo.sample_chords")
    m = {
        "rays.length_marginal_adjacent.s": seconds("rays.length_marginal_adjacent"),
        "rays.length_marginal_adjacent.calls": len(named("rays.length_marginal_adjacent")),
        "rays.length_marginal_adjacent.evals": attr_sum("rays.length_marginal_adjacent", "evals"),
        "rays.length_marginal_opposing.s": seconds("rays.length_marginal_opposing"),
        "rays.joint_pdf.s": seconds("rays.joint_pdf_opposing", "rays.joint_pdf_adjacent"),
        "rays.exit_pdf.s": seconds("rays.exit_pdf_opposing", "rays.exit_pdf_adjacent"),
        "combined.self_s": sum(s["dur"] - child_time[s["key"]] for s in spans if s["name"].startswith("combined.")),
        "combined.class_law_calls": len(class_laws),
        "combined.class_law_distinct": len({s["attrs"]["key"] for s in class_laws}),
        "chords.joint_pdf.s": seconds("chords.joint_pdf_opposing", "chords.joint_pdf_adjacent"),
        "chords.pair_length_pdf.s": seconds("chords.pair_length_pdf"),
        "density.convolve_sum.calls": len(named("density.convolve_sum")),
        "density.convolve_sum.s": seconds("density.convolve_sum"),
        "montecarlo.sample_rays.paths_per_s": attr_sum("montecarlo.sample_rays", "paths") / seconds("montecarlo.sample_rays"),
        "montecarlo.sample_chords.paths_per_s": attr_sum("montecarlo.sample_chords", "paths") / chords_s,
        "montecarlo.canonical_histograms.paths_per_s": attr_sum("montecarlo.canonical_histograms", "paths")
        / seconds("montecarlo.canonical_histograms"),
        "montecarlo.length_histogram.s": seconds("montecarlo.length_histogram"),
        "montecarlo.chord_attempts_per_path": attr_sum("montecarlo.sample_chords", "attempts")
        / attr_sum("montecarlo.sample_chords", "paths"),
        "montecarlo.batch_mb": max(s["attrs"]["batch_bytes"] for s in named("montecarlo.sample_rays", "montecarlo.sample_chords")) / MB,
        "io.save_density.s": seconds("io.save_density"),
        "io.save_density.mb": attr_sum("io.save_density", "bytes") / MB,
        "io.save_histograms.s": seconds("io.save_histograms"),
        "io.write_trajectories.mb_per_s": attr_sum("io.write_trajectories", "bytes") / MB / seconds("io.write_trajectories"),
        "io.read_trajectories.mb_per_s": attr_sum("io.read_trajectories", "bytes") / MB / seconds("io.read_trajectories"),
        "compare.compare_joint.s": seconds("compare.compare_joint"),
        "compare.compare_length.s": seconds("compare.compare_length"),
        "density.bin_masses_3d.s": seconds("density.bin_masses_3d"),
        "svg.heatmap_svg.s": seconds("svg.heatmap_svg"),
        "svg.line_svg.s": seconds("svg.line_svg"),
    }
    m["compare_s"] = median_wall(rnd["stages"]["compare"])
    m["figures_s"] = median_wall(rnd["stages"]["figures"])
    for stage, runs in rnd["stages"].items():
        m[f"cli.{stage}.cpu_s"] = statistics.median(r["cpu"] for r in runs)
        m[f"cli.{stage}.peak_rss_mb"] = max(r["rss_mb"] for r in runs)
    m["trace.overhead_s"] = sum(traced_walls.values()) - sum(median_wall(runs) for runs in rnd["stages"].values())
    return m


def run_workload(name, seed, seconds, trace):
    spec = WORKLOADS[name]
    refs, problems = oracle.self_check(spec["box"])
    if problems:
        raise BenchError("oracle self-check failed: " + "; ".join(problems))
    work = RUNS / name
    shutil.rmtree(work, ignore_errors=True)
    rounds, per_round, first_digests = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = run_round(work / "round", spec, seed, refs, first_digests)
        first_digests = first_digests or rnd["digests"]
        rounds.append(rnd)
        if trace:
            walls, span_files = traced_round(work / "round", work / "round" / "workload.json")
            per_round.append(layer_metrics(span_files, rnd, walls))
        else:
            per_round.append(end_to_end(rnd, spec["samples"]))
        stage_line = ", ".join(f"{s} {median_wall(runs):.2f}s" for s, runs in rnd["stages"].items())
        print(f"{name} round {len(rounds)}: {stage_line}")
        for check, (ok, detail) in rnd["checks"].items():
            if not ok:
                print(f"  FAILED {check}: {detail}")
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + (time.perf_counter() - t0) > RUN_LIMIT_S:
            break
    failed_names = [c for r in rounds for c, (ok, _) in r["checks"].items() if not ok]
    units = PER_LAYER if trace else END_TO_END
    metrics = {k: {"value": statistics.median(r[k] for r in per_round), "unit": units[k]} for k in units}
    return {
        "correct": all(c in KNOWN_FAULTS for c in failed_names),
        "attempted": sum(len(r["checks"]) for r in rounds),
        "failed": len(failed_names),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "boxpath" / "cli.py").is_file():
        print(f"boxpath sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print(f"{name}: {json.dumps(results[name])}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
