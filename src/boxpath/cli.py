"""Command-line interface.

Subcommands:

* ``presets``  - write example configuration files.
* ``analytic`` - evaluate the analytic exit/joint/length densities on
  grids and save them (npz, optional CSV) with a manifest.
* ``sample``   - run the Monte Carlo samplers, save pooled histograms,
  length histograms, and optionally raw trajectory spills.
* ``compare``  - compute distance reports between an analytic directory
  and a sample directory.
* ``figures``  - render SVG/CSV figures from saved artifacts.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure, 4 missing or corrupt artifacts.  All outputs are deterministic
for a fixed configuration, including byte-identical npz/CSV/SVG files.

Run as a program (``python -m boxpath.cli``, or ``python -m boxpath`` and
the ``boxpath`` script, which run this module as ``__main__``), the module
loads numpy and the stage modules only for a subcommand that needs them:
``presets``, ``--help`` and ``--version`` load neither, nor ``dataclasses``,
and ``sample`` loads only the sampler, its geometry and the writers.
Imported as a module, it loads them all at once, so every stage module is
in ``sys.modules`` afterwards.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
from pathlib import Path

from . import __version__
from .errors import CorruptArtifactError, EmptyCellError, IncompatibleGridError, NumericalError

__all__ = ["build_parser", "main"]


def _load_stages(laws: bool = True) -> None:
    """Bind numpy, the stage modules, the geometry names and `GridDensity` as module globals;
    the law and report modules (`rays`, `chords`, `combined`, `compare`, `svg`) only with `laws`."""
    global np, chords, combined, compare, bio, montecarlo, rays, svg
    global FACE_PAIRS, BoxDims, FaceId, GridDensity, PairKind, Side, canonical_classes, joint_frame
    import numpy as np

    from . import io as bio, montecarlo
    from .density import GridDensity
    from .geometry import FACE_PAIRS, BoxDims, FaceId, PairKind, Side, canonical_classes, joint_frame

    if laws:
        from . import chords, combined, compare, rays, svg


_NODE_KEYS = ("grid_nodes_3d", "grid_nodes_2d", "grid_nodes_1d", "bins_length")  # integer sizes of at least 4


# Every config key with its default, in the order `to_dict` lists them.
_DEFAULTS = {
    "box": (1.0, 1.0, 1.0),
    "seed": 20260813,
    "samples": 1_000_000,
    "direction_model": "cube-components",
    "workers": 0,  # 0 = one thread
    "grid_nodes_3d": 64,
    "grid_nodes_2d": 129,
    "grid_nodes_1d": 1025,
    "bins_joint": (8, 8, 8),
    "bins_length": 128,
}


class RunConfig:
    """Tunable knobs shared by the subcommands; JSON-serializable.

    A plain class over `_DEFAULTS`, not a dataclass: `dataclasses` imports
    `inspect`, which `presets`, `--help` and `--version` would pay for.
    """

    def __init__(self, **values) -> None:
        unknown = set(values).difference(_DEFAULTS)
        if unknown:
            raise TypeError(f"RunConfig got unknown keys: {sorted(unknown)}")
        for key, default in _DEFAULTS.items():
            setattr(self, key, values.get(key, default))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def to_dict(self) -> dict:
        d = {key: getattr(self, key) for key in _DEFAULTS}
        d["box"] = list(self.box)
        d["bins_joint"] = list(self.bins_joint)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        # Older configs still carry these; no law has read them since the
        # length marginals and exit maps became closed or panel integrals.
        data = {key: value for key, value in data.items() if key not in ("angle_nodes", "slope_nodes")}
        unknown = set(data).difference(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        cfg.box, cfg.bins_joint = tuple(cfg.box), tuple(cfg.bins_joint)
        return cfg

    def validate(self) -> None:
        for name, kind, types in (("box", "real numbers", (int, float)), ("bins_joint", "integers", int)):
            value = getattr(self, name)
            if not (
                isinstance(value, (list, tuple))
                and len(value) == 3
                and all(isinstance(v, types) and not isinstance(v, bool) for v in value)
            ):
                raise ValueError(f"{name} must be a list of 3 {kind}, got {value!r}")
        BoxDims(*self.box)
        for name in ("seed", "samples", "workers", *_NODE_KEYS):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must not be negative")
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if self.workers < 0:
            raise ValueError("workers must be 0 (one thread) or positive")
        if self.direction_model not in montecarlo.DIRECTION_MODELS:
            raise ValueError(f"direction_model must be one of {montecarlo.DIRECTION_MODELS}")
        for name in _NODE_KEYS:
            if getattr(self, name) < 4:
                raise ValueError(f"{name} is too small")
        if any(b < 2 for b in self.bins_joint):
            raise ValueError("bins_joint needs three entries of at least 2")

    @property
    def box_dims(self) -> BoxDims:
        return BoxDims(*self.box)


def _load_config(args: argparse.Namespace) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{args.config} must hold a JSON object")
    for name in ("box", "seed", "samples", "workers", "direction_model"):
        value = getattr(args, name, None)
        if value is not None:
            data[name] = value
    return RunConfig.from_dict(data)


def _out_dir(path: str) -> Path:
    """The --out directory, created if missing; one that cannot be is a usage error (exit 2)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"--out {path}: {exc.strerror}") from exc
    return Path(path)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# presets


def _cmd_presets(args: argparse.Namespace) -> int:
    out = _out_dir(args.out)
    presets = {
        "cube.json": RunConfig(box=(1.0, 1.0, 1.0)),
        "slab.json": RunConfig(box=(1.0, 0.1, 1.0)),
        "rod.json": RunConfig(box=(0.2, 1.0, 0.2)),
    }
    for name, cfg in presets.items():
        _write_json(out / name, cfg.to_dict())
        print(f"wrote {out / name}")
    return 0


# ---------------------------------------------------------------------------
# analytic


def _cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg.direction_model != rays.DIRECTION_MODEL:
        raise ValueError(
            f"direction model {cfg.direction_model!r} has no analytic law; only {rays.DIRECTION_MODEL!r} has one"
        )
    out = _out_dir(args.out)
    box = cfg.box_dims
    n2, n3 = cfg.grid_nodes_2d, cfg.grid_nodes_3d
    outputs: list[str] = []

    # The kernels see a class only through its canonical dims, so each
    # distinct (kind, X_i, X_j, X_k) is computed once; every class names the
    # shared grid's axes from its own `joint_frame`.
    laws: dict[tuple, tuple[rays.FacePdf, ...]] = {}
    for cls in canonical_classes():
        key = cls.law_key(box)
        if key not in laws:
            ray_joint, chord_joint, ray_exit = (
                (rays.joint_pdf_opposing, chords.joint_pdf_opposing, rays.exit_pdf_opposing)
                if cls.kind is PairKind.OPPOSING
                else (rays.joint_pdf_adjacent, chords.joint_pdf_adjacent, rays.exit_pdf_adjacent)
            )
            laws[key] = (
                ray_joint(box, cls.indices, n3, n3, n3),
                chord_joint(box, cls.indices, n3, n3, n3),
                ray_exit(box, cls.indices, n2, n2),
            )
        names = joint_frame(box, cls.kind, cls.indices)[1]
        for prefix, pdf in zip(("rays_joint", "chords_joint", "rays_exit"), laws[key]):
            stem = f"{prefix}_{cls.label}"
            ndim = pdf.density.values.ndim
            density = GridDensity(pdf.density.domain, pdf.density.values, names[-ndim:])
            meta = {"label": cls.label, "kind": cls.kind.value, "indices": list(cls.indices.as_tuple), "mass": pdf.mass}
            bio.save_density(out / f"{stem}.npz", density, meta)
            outputs.append(f"{stem}.npz")
            if args.csv and prefix == "rays_exit":
                bio.write_density_csv(out / f"{stem}.csv", density)
                outputs.append(f"{stem}.csv")

    for model in ("rays", "chords"):
        table = combined.ClassLawTable(box, model, cfg.grid_nodes_1d)
        comb = table.combined()
        meta = {
            "integral": comb.density.integral(),
            "terms": [
                {"label": t.label, "multiplicity": t.multiplicity, "weight": t.weight, "mass": t.mass}
                for t in comb.terms
            ],
        }
        bio.save_density(out / f"combined_{model}.npz", comb.density, meta)
        outputs.append(f"combined_{model}.npz")
        if args.csv:
            bio.write_density_csv(out / f"combined_{model}.csv", comb.density)
            outputs.append(f"combined_{model}.csv")
        for axis in (1, 2, 3):
            single = table.single_face(FaceId(axis, Side.LOW))
            bio.save_density(
                out / f"single_face_{model}_axis{axis}.npz",
                single.density,
                {"integral": single.density.integral(), "entry_axis": axis},
            )
            outputs.append(f"single_face_{model}_axis{axis}.npz")

    manifest = {
        "command": "analytic",
        "config": cfg.to_dict(),
        "config_hash": bio.config_hash(cfg.to_dict()),
        "version": __version__,
        "direction_model": cfg.direction_model,
        "outputs": sorted(outputs),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"analytic artifacts written to {out} ({len(outputs)} files)")
    return 0


# ---------------------------------------------------------------------------
# sample


def _sample_streams(sampler, binning, lengths, samples: int, workers: int, spill: Path | None):
    """Draw, count and spill each Philox stream of one model inside its pool task.

    A task bins its stream with the run's `binning` (a
    `montecarlo.JointBinning`) and `lengths` (a `montecarlo.LengthBinning`)
    and adds its counts into the run's under a lock: integer sums do not
    depend on the order the streams finish in.  Returns the class
    histograms, the length counts (all entry faces, then entry axes 1..3),
    the entry and exit face counts, and the run's sampler meta.
    """
    hists = binning.histograms(np.zeros(binning.count_shape, dtype=np.int64))
    by_pair = np.zeros(lengths.count_shape, dtype=np.int64)
    lock = threading.Lock()
    if spill is not None:
        bio.start_trajectories(spill, binning.box, samples)

    def task(stream: int, rows: slice) -> dict:
        batch = sampler(stream=stream)
        part = montecarlo.canonical_histograms(batch, binning=binning)
        part_lengths = lengths.count(batch)
        if spill is not None:
            bio.write_trajectories(spill, batch, at=rows.start)
        with lock:
            for label, hist in part.items():
                hists[label].counts += hist.counts
                hists[label].total += hist.total
            by_pair[:] += part_lengths
        return batch.meta

    metas = montecarlo.for_each_stream(samples, workers, task)
    return hists, lengths.by_axis(by_pair), lengths.face_counts(by_pair), montecarlo.merge_meta(metas)


def _keep_freed_heap() -> bool:
    """Let glibc's malloc keep freed heap pages for the rest of the process; True if it took both settings.

    Each sampler stream allocates and frees megabytes of numpy temporaries.
    By default glibc unmaps blocks above its dynamic mmap threshold and trims
    the heap top on free, so every stream faults its pages in again, zeroed
    by the kernel.  Raising the mmap threshold to its 64-bit maximum (32 MiB)
    and the trim threshold to 1 GiB keeps them for reuse.  Both are needed:
    setting either one turns off the dynamic thresholds, and the other then
    stays at its 128 KiB default.  No draw, sum or output byte changes.

    The setting is process-wide and cannot be undone, so in-process callers
    of `main(["sample", ...])` keep it too; none of their results change.
    On other C libraries this does nothing and returns False.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return False
    if not libc.startswith("glibc"):
        return False
    import ctypes  # only `sample` pays for it

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_mmap_threshold, m_trim_threshold = -3, -1  # glibc's <malloc.h> codes
    results = (mallopt(m_mmap_threshold, 32 << 20), mallopt(m_trim_threshold, 1 << 30))
    return results == (1, 1)


def _cmd_sample(args: argparse.Namespace) -> int:
    _keep_freed_heap()
    cfg = _load_config(args)
    out = _out_dir(args.out)
    box = cfg.box_dims
    outputs: list[str] = []
    stats: dict = {}
    length_arrays: dict[str, np.ndarray] = {}
    # The bin tables of both models' streams, built once.
    binning = montecarlo.JointBinning(box, *cfg.bins_joint)
    lengths = montecarlo.LengthBinning(cfg.bins_length, 0.0, box.diagonal)
    samplers = {
        "rays": functools.partial(montecarlo.sample_rays, box, cfg.samples, cfg.seed, cfg.direction_model),
        "chords": functools.partial(montecarlo.sample_chords, box, cfg.samples, cfg.seed + 1),
    }
    for name, sampler in samplers.items():
        spill = out / f"{name}.bin"
        if not args.spill:
            # An older run's spill would no longer match this run's histograms.
            spill.unlink(missing_ok=True)
            spill = None
        hists, by_length, faces, meta = _sample_streams(sampler, binning, lengths, cfg.samples, cfg.workers, spill)
        bio.save_histograms(out / f"sample_{name}_hists.npz", hists, {"sampler": name, **meta})
        outputs.append(f"sample_{name}_hists.npz")
        length_arrays[f"{name}/edges"] = lengths.edges
        length_arrays[f"{name}/counts"] = by_length[0]
        for axis in (1, 2, 3):
            length_arrays[f"{name}_axis{axis}/counts"] = by_length[axis]
        stats[name] = {"meta": meta, "entry_face_counts": faces[0].tolist(), "exit_face_counts": faces[1].tolist()}
        if spill is not None:
            outputs.append(spill.name)
    bio.write_npz(out / "sample_lengths.npz", length_arrays)
    outputs.append("sample_lengths.npz")

    manifest = {
        "command": "sample",
        "config": cfg.to_dict(),
        "config_hash": bio.config_hash(cfg.to_dict()),
        "version": __version__,
        "stream_count": montecarlo.STREAM_COUNT,
        "stats": stats,
        "outputs": sorted(outputs),
    }
    _write_json(out / "manifest.json", manifest)
    print(f"sample artifacts written to {out} ({len(outputs)} files)")
    return 0


# ---------------------------------------------------------------------------
# compare


def _read_manifest(directory: Path) -> dict:
    path = directory / "manifest.json"
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise CorruptArtifactError(f"{path}: a manifest is a JSON object, not a {type(manifest).__name__}")
    return manifest


def _check_same_run(analytic: dict, sample: dict) -> None:
    """Refuse a sample run of another box or direction model than the analytic run's."""
    for key in ("box", "direction_model"):
        if analytic["config"][key] != sample["config"][key]:
            raise ValueError(
                f"analytic {key} {analytic['config'][key]!r} differs from sample {key} {sample['config'][key]!r}"
            )


def _cmd_compare(args: argparse.Namespace) -> int:
    analytic_dir = Path(args.analytic)
    sample_dir = Path(args.sample)
    _check_same_run(_read_manifest(analytic_dir), _read_manifest(sample_dir))
    report: dict = {"joint": {}, "length": {}}
    for model in ("rays", "chords"):
        hists, _ = bio.load_histograms(sample_dir / f"sample_{model}_hists.npz")
        for label, hist in sorted(hists.items()):
            density, meta = bio.load_density(analytic_dir / f"{model}_joint_{label}.npz")
            rep = compare.compare_joint(hist, density)
            report["joint"][f"{model}/{label}"] = rep.to_dict()
    with bio.load_npz(sample_dir / "sample_lengths.npz") as z:
        for model in ("rays", "chords"):
            density, _ = bio.load_density(analytic_dir / f"combined_{model}.npz")
            rep = compare.compare_length(z[f"{model}/edges"], z[f"{model}/counts"], density)
            report["length"][f"combined_{model}"] = rep.to_dict()
    worst_l1 = max(entry["l1"] for section in report.values() for entry in section.values())
    report["summary"] = {"worst_l1": worst_l1}
    try:
        _write_json(Path(args.out), report)
    except OSError as exc:
        raise ValueError(f"--out {args.out}: {exc.strerror}") from exc
    print(f"comparison report written to {args.out} (worst L1 {worst_l1:.4f})")
    return 0


# ---------------------------------------------------------------------------
# figures


_FIGURES = ("band", "elevation", "location", "lengths")


def _heatmap(out: Path, stem: str, sheet, value_name: str, title: str, labels: tuple[str, str], files: list[str]) -> None:
    """Write a 2-d density as `stem`.csv and `stem`.svg; `labels` name its x and y axes."""
    bio.write_density_csv(out / f"{stem}.csv", sheet, value_name=value_name)
    svg.heatmap_svg(out / f"{stem}.svg", sheet.values, sheet.domain, title=title, xlabel=labels[0], ylabel=labels[1])
    files += [f"{stem}.csv", f"{stem}.svg"]


def _overlay(out: Path, stem: str, title: str, columns: dict[str, np.ndarray], series: list[dict], files: list[str]) -> None:
    """Write length-law columns as `stem`.csv and their overlay plot as `stem`.svg."""
    bio.write_series_csv(out / f"{stem}.csv", columns)
    svg.line_svg(out / f"{stem}.svg", series, title=title, xlabel="path length", ylabel="density")
    files += [f"{stem}.csv", f"{stem}.svg"]


def _analytic_series(model: str, dens, columns: dict[str, np.ndarray]) -> dict:
    """One model's analytic line; its nodes and values also become table columns."""
    columns["n"] = dens.nodes
    columns[f"{model}_density"] = dens.values
    return {"x": dens.nodes, "y": dens.values, "label": f"{model} analytic", "dash": model == "chords"}


def _sampled_series(model: str, counts: np.ndarray, edges: np.ndarray) -> dict:
    """One model's length histogram as a density at its bin centers."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    return {"x": centers, "y": counts / max(1, counts.sum()) / np.diff(edges), "label": f"{model} sampled"}


def _figure_band(analytic_dir: Path, out: Path, band: tuple[float, float], diag: float, files: list[str]) -> None:
    """Exit-face maps of chords whose length falls in a diagonal band."""
    lo, hi = band[0] * diag, band[1] * diag
    for label in ("opposing-entry2", "adjacent-entry2-exit1"):
        sheet = bio.load_density(analytic_dir / f"chords_joint_{label}.npz")[0].band_integral(0, lo, hi)
        title = f"chord exit map, length in [{lo:.3f}, {hi:.3f}]"
        _heatmap(out, f"band_map_{label}", sheet, "band_mass", title, sheet.axis_names, files)


def _figure_elevation(analytic_dir: Path, out: Path, files: list[str]) -> None:
    """Length-elevation heatmaps on an adjacent exit face, both models."""
    labels = ("path length", "elevation above shared edge")
    for model in ("rays", "chords"):
        sheet = bio.load_density(analytic_dir / f"{model}_joint_adjacent-entry2-exit1.npz")[0].integrate_out(1)
        _heatmap(out, f"elevation_profile_{model}", sheet, "density", f"{model}: length vs exit elevation", labels, files)


def _cell_lengths(spill: Path, face_code: int, cell: tuple[float, float, float]) -> np.ndarray:
    """Lengths of a spill's paths that exit face `face_code` inside the cell."""

    def in_cell(batch) -> np.ndarray:
        ab = batch.exit_ab
        return (batch.exit_code == face_code) & (np.abs(ab[:, 0] - cell[0]) <= cell[2]) & (np.abs(ab[:, 1] - cell[1]) <= cell[2])

    return bio.read_trajectories(spill, where=in_cell, fields=("exit_ab", "length")).length


def _figure_location(
    analytic_dir: Path,
    sample_files: dict[str, Path],
    out: Path,
    box: BoxDims,
    exit_face: FaceId,
    cell: tuple[float, float, float],
    files: list[str],
) -> None:
    """Length-law overlay at a small exit-location cell, both models."""
    labels = {pair.label for pair in FACE_PAIRS if pair.exit_face == exit_face}
    series = []
    columns: dict[str, np.ndarray] = {}
    for model in ("rays", "chords"):
        joints = {}
        for label in labels:
            density, meta = bio.load_density(analytic_dir / f"{model}_joint_{label}.npz")
            joints[label] = rays.FacePdf(density, meta["mass"])
        series.append(_analytic_series(model, combined.location_length_pdf(joints, box, exit_face, cell), columns))
    for model in ("rays", "chords"):
        spill = sample_files.get(f"{model}.bin")
        if spill is None:
            continue
        lengths = _cell_lengths(spill, exit_face.code, cell)
        if lengths.size == 0:
            raise EmptyCellError(f"no {model} samples in the requested cell")
        series.append(_sampled_series(model, *np.histogram(lengths, bins=32, range=(0.0, box.diagonal))))
    title = f"length law at cell on face {exit_face} around ({cell[0]}, {cell[1]})"
    _overlay(out, "location_length", title, columns, series, files)


def _figure_lengths(analytic_dir: Path, sample_files: dict[str, Path], out: Path, files: list[str]) -> None:
    """Combined and per-entry-axis length overlays for both models."""
    specs = [("all", "combined_{model}.npz", "{model}/")] + [
        (f"axis{j}", "single_face_{model}_axis" + str(j) + ".npz", "{model}_axis" + str(j) + "/")
        for j in (1, 2, 3)
    ]
    lengths = None
    if "sample_lengths.npz" in sample_files:
        lengths = bio.load_npz(sample_files["sample_lengths.npz"])
    try:
        for tag, npz_tpl, hist_tpl in specs:
            series = []
            columns: dict[str, np.ndarray] = {}
            for model in ("rays", "chords"):
                dens, _ = bio.load_density(analytic_dir / npz_tpl.format(model=model))
                series.append(_analytic_series(model, dens, columns))
                if lengths is not None:
                    counts = lengths[hist_tpl.format(model=model) + "counts"]
                    series.append(_sampled_series(model, counts, lengths[f"{model}/edges"]))
            _overlay(out, f"length_overlay_{tag}", f"path-length laws ({tag})", columns, series, files)
    finally:
        if lengths is not None:
            lengths.close()


def _cmd_figures(args: argparse.Namespace) -> int:
    which = set(args.which.split(",")) if args.which else set(_FIGURES)
    unknown = which.difference(_FIGURES)
    if unknown:
        raise ValueError(f"--which: unknown figures {sorted(unknown)}; choose from {','.join(_FIGURES)}")
    if not args.band[0] < args.band[1]:
        raise ValueError(f"--band needs LO < HI, got {args.band[0]} {args.band[1]}")
    if args.cell is not None and not args.cell[2] > 0:
        raise ValueError(f"--cell needs a positive half width HALF, got {args.cell[2]}")
    exit_face = FaceId.from_code(args.cell_face)
    analytic_dir = Path(args.analytic)
    manifest = _read_manifest(analytic_dir)
    # Only the files the sample run lists are its own; a rerun without
    # --spill leaves an older run's spills in place.
    sample_files: dict[str, Path] = {}
    if args.sample:
        sample_dir = Path(args.sample)
        sample_manifest = _read_manifest(sample_dir)
        _check_same_run(manifest, sample_manifest)
        sample_files = {name: sample_dir / name for name in sample_manifest["outputs"]}
    try:
        box = BoxDims(*manifest["config"]["box"])
    except (TypeError, ValueError) as exc:
        raise CorruptArtifactError(f"{analytic_dir / 'manifest.json'}: config.box is not a box ({exc})") from exc
    # A cell square off its face would fail the location figure after other figures were written.
    extents = [box.dim(axis) for axis in exit_face.plane_axes]
    # By default the cell is centred on its face, 5 % of the face's shorter side in half width.
    a, b, half = args.cell or (0.5 * extents[0], 0.5 * extents[1], 0.05 * min(extents))
    if "location" in which and not all(c - half < x and c + half > 0.0 for c, x in zip((a, b), extents)):
        raise NumericalError(
            f"--cell {a} {b} {half} lies off --cell-face {exit_face.code} ({exit_face}), "
            f"whose local coordinates span [0, {extents[0]}] x [0, {extents[1]}]"
        )
    out = _out_dir(args.out)
    files: list[str] = []
    if "band" in which:
        _figure_band(analytic_dir, out, (args.band[0], args.band[1]), box.diagonal, files)
    if "elevation" in which:
        _figure_elevation(analytic_dir, out, files)
    if "location" in which:
        _figure_location(analytic_dir, sample_files, out, box, exit_face, (a, b, half), files)
    if "lengths" in which:
        _figure_lengths(analytic_dir, sample_files, out, files)
    _write_json(out / "figures_manifest.json", {"command": "figures", "outputs": sorted(files)})
    print(f"figures written to {out} ({len(files)} files)")
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxpath",
        description="Analytic and Monte Carlo path-length laws for a rectangular box.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="write example configuration files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_presets)

    def add_config_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--box", nargs=3, type=float, metavar=("X1", "X2", "X3"))
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument(
            "--direction-model",
            dest="direction_model",
            metavar="MODEL",
            help=f"the ray sampler's direction model (default {_DEFAULTS['direction_model']}); an unknown one is refused",
        )

    p = sub.add_parser("analytic", help="evaluate analytic densities onto grids")
    add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true", help="also write CSV tables")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("sample", help="run the Monte Carlo samplers")
    add_config_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--spill", action="store_true", help="also write raw trajectory records")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("compare", help="compare sampled histograms with analytic grids")
    p.add_argument("--analytic", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("figures", help="render figures from saved artifacts")
    p.add_argument("--analytic", required=True)
    p.add_argument("--sample", help="sample directory for Monte Carlo overlays")
    p.add_argument("--out", required=True)
    p.add_argument("--which", help="comma list: band,elevation,location,lengths")
    p.add_argument("--band", nargs=2, type=float, default=(0.675, 0.705), metavar=("LO", "HI"), help="length band as fractions of the diagonal")
    p.add_argument("--cell-face", dest="cell_face", type=int, default=3, help="exit face code 0..5 for the location figure")
    p.add_argument(
        "--cell",
        nargs=3,
        type=float,
        metavar=("A", "B", "HALF"),
        help="cell center and half width in face-local coordinates (default: the face's center, half width 5%% of its shorter side)",
    )
    p.set_defaults(func=_cmd_figures)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    corrupt: tuple[type[Exception], ...] = ()  # presets reads no archive and loads no zipfile
    if args.command != "presets":
        _load_stages(laws=args.command != "sample")
        from zipfile import BadZipFile  # io has loaded it
        corrupt = (BadZipFile,)
    try:
        return args.func(args)
    except (NumericalError, IncompatibleGridError, EmptyCellError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FileNotFoundError, KeyError, json.JSONDecodeError, CorruptArtifactError, *corrupt) as exc:
        print(f"missing or corrupt artifact: {exc!r}", file=sys.stderr)
        return 4
    except (ValueError, TypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
else:
    # Importers, such as a tracer that wraps stage functions by module, find every stage module loaded.
    _load_stages()
