"""End-to-end CLI runs on tiny grids, plus figure rendering."""

import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import boxpath
from boxpath import (
    FACE_PAIRS,
    BoxDims,
    FaceId,
    GridDensity1D,
    JointHistogram,
    PairKind,
    Side,
    canonical_classes,
    chords,
    cli,
    rays,
    sample_chords,
    sample_rays,
    single_face_length_pdf,
)
from boxpath import io as bio
from boxpath.montecarlo import class_bin_edges

TINY = {
    "box": [1.0, 1.0, 1.0],
    "seed": 99,
    "samples": 60_000,
    "grid_nodes_3d": 16,
    "grid_nodes_2d": 33,
    "grid_nodes_1d": 129,
    "angle_nodes": 128,
    "slope_nodes": 256,
    "bins_joint": [6, 6, 6],
    "bins_length": 48,
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.json"
    cfg.write_text(json.dumps(TINY))
    assert cli.main(["analytic", "--config", str(cfg), "--out", str(root / "analytic"), "--csv"]) == 0
    assert cli.main(["sample", "--config", str(cfg), "--out", str(root / "sample"), "--spill"]) == 0
    return root


def test_presets(tmp_path):
    assert cli.main(["presets", "--out", str(tmp_path)]) == 0
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"cube.json", "slab.json", "rod.json"}
    cfg = json.loads((tmp_path / "slab.json").read_text())
    assert cfg["box"] == [1.0, 0.1, 1.0]
    assert cli.main(["analytic", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)]) == 4


# The sha256 of each preset file as `presets` wrote it while `RunConfig` was a dataclass.
PRESET_DIGESTS = {
    "cube.json": "eeee4a96983a544dcc8380bee32afbb32319e656077efecc0264105877605f64",
    "slab.json": "25189fc4f9bc6202de86d2075f24d149737dc050d3a09eef9c72b13666634937",
    "rod.json": "b4bfab3e0a82d47351d7da9315bbf08cdda7cb70aa4caa860abff48636f8b8b9",
}


def test_preset_files_are_pinned(tmp_path):
    assert cli.main(["presets", "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PRESET_DIGESTS} == PRESET_DIGESTS


def test_run_config_equality_and_round_trip():
    # the pinned preset files above pin the keys and defaults
    cfg = cli.RunConfig()
    assert cfg == cli.RunConfig.from_dict({}) == cli.RunConfig.from_dict(cfg.to_dict())
    assert cli.RunConfig.from_dict({"box": [1, 2, 3]}).box == (1, 2, 3)
    assert cfg != cli.RunConfig(seed=1)
    with pytest.raises(TypeError, match="grid_nodes_9d"):
        cli.RunConfig(grid_nodes_9d=4)


def test_analytic_outputs(workdir):
    out = workdir / "analytic"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "analytic"
    assert len(manifest["config_hash"]) == 64
    listed = set(manifest["outputs"])
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == present
    assert "rays_joint_opposing-entry2.npz" in listed
    assert "combined_chords.csv" in listed


def test_analytic_computes_each_class_law_once(workdir, tmp_path, monkeypatch):
    """On the cube one law per kind serves all nine classes, for both models:
    every ray and chord kernel runs once per kind."""
    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] = calls.get(f"{module.__name__}.{name}", 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    kernels = [
        (rays, "length_marginal_adjacent"),
        (rays, "length_marginal_opposing"),
        *((rays, f"{law}_pdf_{kind}") for law in ("joint", "exit") for kind in ("opposing", "adjacent")),
        *((chords, f"joint_pdf_{kind}") for kind in ("opposing", "adjacent")),
    ]
    for module, name in kernels:
        counted(module, name)
    counted(chords, "pair_length_pdf")
    assert cli.main(["analytic", "--config", str(workdir / "tiny.json"), "--out", str(tmp_path)]) == 0
    assert calls == {**{f"{m.__name__}.{name}": 1 for m, name in kernels}, "boxpath.chords.pair_length_pdf": 2}


def test_analytic_projects_each_class_law_once(workdir, tmp_path, monkeypatch):
    """The combined and three single-face mixtures of a model share one
    projection per distinct class law: 2 per model on the cube."""
    calls = []
    project = GridDensity1D.project

    def counted(self, grid):
        calls.append(len(grid))
        return project(self, grid)

    monkeypatch.setattr(GridDensity1D, "project", counted)
    assert cli.main(["analytic", "--config", str(workdir / "tiny.json"), "--out", str(tmp_path)]) == 0
    assert calls == [TINY["grid_nodes_1d"]] * 4


@pytest.mark.parametrize("kind", list(PairKind))
@pytest.mark.parametrize("stem", ["rays_joint", "chords_joint", "rays_exit"])
def test_classes_with_equal_dims_share_values_not_labels(workdir, stem, kind):
    """On the cube the classes of a kind save one law's values, each under its own indices and axis names."""
    classes = [cls for cls in canonical_classes() if cls.kind is kind]
    first, _ = bio.load_density(workdir / "analytic" / f"{stem}_{classes[0].label}.npz")
    for cls in classes:
        density, meta = bio.load_density(workdir / "analytic" / f"{stem}_{cls.label}.npz")
        i, j, k = cls.indices.as_tuple
        assert np.array_equal(density.values, first.values)
        assert meta["indices"] == [i, j, k]
        assert density.axis_names[-2:] == (f"x{i}", f"x{k if kind is PairKind.OPPOSING else j}")


@pytest.mark.parametrize("key", ["slope_nodes", "angle_nodes"])
def test_slope_nodes_is_accepted_and_unused(workdir, tmp_path, key):
    """An older config's `slope_nodes` and `angle_nodes` still load, their values change no artifact byte,
    and the manifest leaves both out."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, key: 64}))
    assert {"slope_nodes", "angle_nodes"} <= set(json.loads(cfg.read_text()))
    assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    config = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]
    assert config == cli.RunConfig.from_dict(TINY).to_dict()
    assert not {"slope_nodes", "angle_nodes"} & set(config)
    saved = sorted(p.name for p in (workdir / "analytic").glob("*.npz"))
    assert saved == sorted(p.name for p in (tmp_path / "out").glob("*.npz"))
    for name in saved:
        assert (tmp_path / "out" / name).read_bytes() == (workdir / "analytic" / name).read_bytes()


def test_single_face_uses_config_nodes(workdir):
    cfg = cli.RunConfig.from_dict(TINY)
    saved, _ = bio.load_density(workdir / "analytic" / "single_face_rays_axis2.npz")
    law = single_face_length_pdf(cfg.box_dims, FaceId(2, Side.LOW), "rays", cfg.grid_nodes_1d)
    assert np.array_equal(saved.values, law.density.values)


def test_analytic_refuses_direction_model_without_law(workdir, tmp_path):
    out = tmp_path / "analytic"
    argv = ["analytic", "--config", str(workdir / "tiny.json"), "--direction-model", "ball-rejection", "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()


def test_figures_refuses_a_v1_spill(workdir, tmp_path, capsys):
    """A sample directory whose spill is in the packed-record format 1 exits 3 and names the rerun."""
    sample = tmp_path / "sample"
    shutil.copytree(workdir / "sample", sample)
    n = 4
    records = b"".join(struct.pack("<BB5d", 2, 3, 0.5, 0.5, 0.25, 0.5, 1.0) for _ in range(n))
    (sample / "rays.bin").write_bytes(b"BOXPATH\x01" + struct.pack("<3dQ", *TINY["box"], n) + records)
    argv = ["figures", "--analytic", str(workdir / "analytic"), "--sample", str(sample), "--out", str(tmp_path / "figs")]
    assert cli.main([*argv, "--which", "location"]) == 3
    assert "sample --spill" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("box", [1.0, 0.1, 1.0]), ("direction_model", "ball-rejection")])
def test_compare_refuses_mismatched_runs(workdir, tmp_path, key, value):
    sample = tmp_path / "sample"
    shutil.copytree(workdir / "sample", sample)
    manifest = json.loads((sample / "manifest.json").read_text())
    manifest["config"][key] = value
    (sample / "manifest.json").write_text(json.dumps(manifest))
    argv = ["compare", "--analytic", str(workdir / "analytic"), "--sample", str(sample), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 2
    assert not (tmp_path / "r.json").exists()


def test_sample_outputs(workdir):
    out = workdir / "sample"
    manifest = json.loads((out / "manifest.json").read_text())
    stats = manifest["stats"]
    assert stats["rays"]["meta"]["model"] == "cube-components"
    assert sum(stats["rays"]["entry_face_counts"]) == TINY["samples"]
    assert (out / "rays.bin").exists() and (out / "chords.bin").exists()
    assert 0.1 < stats["chords"]["meta"]["collision_rate"] < 0.25


def test_sample_rerun_byte_identical(workdir, tmp_path):
    cfg = workdir / "tiny.json"
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "s2"), "--spill"]) == 0
    for name in ("sample_lengths.npz", "rays.bin", "manifest.json"):
        assert (tmp_path / "s2" / name).read_bytes() == (workdir / "sample" / name).read_bytes()


SAMPLE_FILES = ("sample_rays_hists.npz", "sample_chords_hists.npz", "sample_lengths.npz", "rays.bin", "chords.bin")


def whole_batch_sample(cfg: dict, out: Path) -> dict:
    """The `sample` stage's files, built from whole batches with per-pair
    `histogramdd` and `np.histogram`; returns the manifest's stats."""
    box = BoxDims(*cfg["box"])
    nb, ub, vb = cfg["bins_joint"]
    n, seed, bins = cfg["samples"], cfg["seed"], cfg["bins_length"]
    batches = {"rays": sample_rays(box, n, seed, "cube-components", 1), "chords": sample_chords(box, n, seed + 1, 1)}
    lengths, stats = {}, {}
    for name, batch in batches.items():
        hists = {}
        for cls in canonical_classes():
            edges = class_bin_edges(box, cls.kind, cls.indices, nb, ub, vb)
            hists[cls.label] = JointHistogram(cls.kind, cls.indices.as_tuple, *edges, np.zeros((nb, ub, vb), np.uint64), 0)
        for pair in FACE_PAIRS:
            rows = (batch.entry_code == pair.entry_face.code) & (batch.exit_code == pair.exit_face.code)
            hist = hists[pair.label]
            sample = np.column_stack([batch.length[rows], pair.exit_local_to_canonical(box, batch.exit_ab[rows])])
            counts, _ = np.histogramdd(sample, bins=(hist.n_edges, hist.u_edges, hist.v_edges))
            hist.counts += counts.astype(np.uint64)
            hist.total += int(rows.sum())
        bio.save_histograms(out / f"sample_{name}_hists.npz", hists, {"sampler": name, **batch.meta})
        counts, lengths[f"{name}/edges"] = np.histogram(batch.length, bins=bins, range=(0.0, box.diagonal))
        lengths[f"{name}/counts"] = counts.astype(np.uint64)
        for axis in (1, 2, 3):
            on_axis = batch.length[(batch.entry_code >> 1) == axis - 1]
            lengths[f"{name}_axis{axis}/counts"] = np.histogram(on_axis, bins=bins, range=(0.0, box.diagonal))[0].astype(np.uint64)
        bio.start_trajectories(out / f"{name}.bin", box, n)
        bio.write_trajectories(out / f"{name}.bin", batch, at=0)
        stats[name] = {
            "meta": batch.meta,
            "entry_face_counts": np.bincount(batch.entry_code, minlength=6).tolist(),
            "exit_face_counts": np.bincount(batch.exit_code, minlength=6).tolist(),
        }
    bio.write_npz(out / "sample_lengths.npz", lengths)
    return json.loads(json.dumps(stats))


@pytest.mark.parametrize(
    "box, samples",
    [([1.0, 1.0, 1.0], 6_421), ([1.0, 0.1, 1.0], 37), ([1.3, 0.8, 1.1], 4_099)],
    ids=["not-a-multiple-of-64", "fewer-than-64", "skew-box"],
)
def test_sample_same_bytes_by_any_route(tmp_path, box, samples):
    """Streamed binning and spilling at any worker count equal the whole-batch route."""
    cfg = {"box": box, "seed": 17, "samples": samples, "bins_joint": [6, 5, 4], "bins_length": 48}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often while the tasks add up their counts
    try:
        for workers in (1, 3):
            argv = ["sample", "--config", str(tmp_path / "cfg.json"), "--workers", str(workers), "--out", str(tmp_path / f"w{workers}"), "--spill"]
            assert cli.main(argv) == 0
    finally:
        sys.setswitchinterval(interval)
    (tmp_path / "ref").mkdir()
    stats = whole_batch_sample(cfg, tmp_path / "ref")
    for name in SAMPLE_FILES:
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes(), name
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
    manifests = [json.loads((tmp_path / w / "manifest.json").read_text()) for w in ("w1", "w3")]
    for manifest in manifests:  # the config records the worker count
        del manifest["config"]["workers"], manifest["config_hash"]
    assert manifests[0] == manifests[1]
    assert manifests[0]["stats"] == stats


# The sha256 (first 24 hex digits) of each `sample` file and of the manifest's
# `stats` (as sorted JSON), for the cube on 1 worker and the slab on 2.  They
# were recorded before the stream kernels and the per-stream counting were
# rewritten for speed, which kept every draw, sum and byte; they pin the
# counting and the spill, which the batch digests of test_montecarlo do not.
STAGE_DIGESTS = {
    "cube-1-worker": (
        {"box": [1.0, 1.0, 1.0], "seed": 11, "samples": 64_000, "workers": 1},
        {
            "sample_rays_hists.npz": "016135838fe7b86cbaa94699",
            "sample_chords_hists.npz": "716283d32bc0ddcccf1f3c04",
            "sample_lengths.npz": "c42304c7b7051f786f505545",
            "rays.bin": "88adac6c5a5cf10de4fd13cf",
            "chords.bin": "3a0fb2d2e86546a67fd32426",
            "stats": "afbad3bd4562b35f24eaaeab",
        },
    ),
    "slab-2-workers": (
        {"box": [1.0, 0.1, 1.0], "seed": 12, "samples": 64_013, "workers": 2},
        {
            "sample_rays_hists.npz": "29386bc18eb0c8b304731a00",
            "sample_chords_hists.npz": "4e9464084f9268c95d94df71",
            "sample_lengths.npz": "c395dfe84c78278046f60915",
            "rays.bin": "aadc14a872bc45411dd515a5",
            "chords.bin": "63327f7013fdeb3f6b7b652f",
            "stats": "ee09590cb3788e137d4d78e0",
        },
    ),
}


@pytest.mark.parametrize("name", list(STAGE_DIGESTS))
def test_sample_stage_digests(tmp_path, name):
    cfg, digests = STAGE_DIGESTS[name]
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert cli.main(["sample", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out"), "--spill"]) == 0
    got = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()[:24] for f in SAMPLE_FILES}
    stats = json.loads((tmp_path / "out" / "manifest.json").read_text())["stats"]
    got["stats"] = hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:24]
    assert got == digests


# The sha256 (first 16 hex digits) of every file `analytic --csv` writes at
# small grids, the manifest as sorted JSON without its version.  On the cube
# every class shares its kind's law, so these pin the names each class's grid
# takes as well as the values.
ANALYTIC_GRIDS = {"grid_nodes_3d": 9, "grid_nodes_2d": 9, "grid_nodes_1d": 33}
ANALYTIC_DIGESTS = {
    "cube": (
        [1.0, 1.0, 1.0],
        {
            "chords_joint_adjacent-entry1-exit2.npz": "7f8d5d3ff4f1f855",
            "chords_joint_adjacent-entry1-exit3.npz": "e92331a847cd3315",
            "chords_joint_adjacent-entry2-exit1.npz": "3599709acc3c9d32",
            "chords_joint_adjacent-entry2-exit3.npz": "2f572b81490d21dc",
            "chords_joint_adjacent-entry3-exit1.npz": "39f33d67049cfa55",
            "chords_joint_adjacent-entry3-exit2.npz": "dce6b923076194b9",
            "chords_joint_opposing-entry1.npz": "771a973d81c3dbba",
            "chords_joint_opposing-entry2.npz": "31ac30b9752164a4",
            "chords_joint_opposing-entry3.npz": "ed3ccbd2c6403c0a",
            "combined_chords.csv": "4e248d0b56f0b5ef",
            "combined_chords.npz": "a659dcc397eb7d9a",
            "combined_rays.csv": "8e66da20be7bbb3e",
            "combined_rays.npz": "3a1b22076e296597",
            "manifest.json": "64bfad0031477eb1",
            "rays_exit_adjacent-entry1-exit2.csv": "2501f4e2b7acfe23",
            "rays_exit_adjacent-entry1-exit2.npz": "60642c352ae5b341",
            "rays_exit_adjacent-entry1-exit3.csv": "da470e5f760a5f59",
            "rays_exit_adjacent-entry1-exit3.npz": "a538e6d2408a84e6",
            "rays_exit_adjacent-entry2-exit1.csv": "ccbfd95da2c70cd3",
            "rays_exit_adjacent-entry2-exit1.npz": "1f50fffa651eb333",
            "rays_exit_adjacent-entry2-exit3.csv": "92e96c2b558a82b2",
            "rays_exit_adjacent-entry2-exit3.npz": "3138c99ca69cfaeb",
            "rays_exit_adjacent-entry3-exit1.csv": "64fd3a8d0b751419",
            "rays_exit_adjacent-entry3-exit1.npz": "db45b5beeac50043",
            "rays_exit_adjacent-entry3-exit2.csv": "ba6b9b91ec6d4fc4",
            "rays_exit_adjacent-entry3-exit2.npz": "5cc9a6d056572577",
            "rays_exit_opposing-entry1.csv": "278575cb76dc8c59",
            "rays_exit_opposing-entry1.npz": "a43358e245b07b32",
            "rays_exit_opposing-entry2.csv": "620992d3576a2bfe",
            "rays_exit_opposing-entry2.npz": "5335490a5291367e",
            "rays_exit_opposing-entry3.csv": "1ddc5d4ee9f054bf",
            "rays_exit_opposing-entry3.npz": "352e948333aac137",
            "rays_joint_adjacent-entry1-exit2.npz": "0fc09ccab27f9575",
            "rays_joint_adjacent-entry1-exit3.npz": "dc8ce2518e0e482c",
            "rays_joint_adjacent-entry2-exit1.npz": "fc4c14e4c0cd9e84",
            "rays_joint_adjacent-entry2-exit3.npz": "73586f694a39ca31",
            "rays_joint_adjacent-entry3-exit1.npz": "4d8a02de2a235c99",
            "rays_joint_adjacent-entry3-exit2.npz": "fd25d4661937a183",
            "rays_joint_opposing-entry1.npz": "4dcbe2840954c24a",
            "rays_joint_opposing-entry2.npz": "6ecec97c790074c0",
            "rays_joint_opposing-entry3.npz": "d341cc09d4117850",
            "single_face_chords_axis1.npz": "e70fce1093a0c626",
            "single_face_chords_axis2.npz": "5d6df9d065175c17",
            "single_face_chords_axis3.npz": "9ae23b9b846b91ec",
            "single_face_rays_axis1.npz": "f1031ca141233208",
            "single_face_rays_axis2.npz": "9a166735cd6a64f3",
            "single_face_rays_axis3.npz": "84b50bacfbc40632",
        },
    ),
    "box-1.3x0.8x1.1": (
        [1.3, 0.8, 1.1],
        {
            "chords_joint_adjacent-entry1-exit2.npz": "8112fa91d0da4467",
            "chords_joint_adjacent-entry1-exit3.npz": "e6b3c0c825a2ab5e",
            "chords_joint_adjacent-entry2-exit1.npz": "08dc5eb7eb20c8b6",
            "chords_joint_adjacent-entry2-exit3.npz": "8c46ac8f57399d17",
            "chords_joint_adjacent-entry3-exit1.npz": "6c25691e1771a1a9",
            "chords_joint_adjacent-entry3-exit2.npz": "2242731a5b420935",
            "chords_joint_opposing-entry1.npz": "3281228df62cff4a",
            "chords_joint_opposing-entry2.npz": "2dd4f0825a137b15",
            "chords_joint_opposing-entry3.npz": "9da29b0767d580cf",
            "combined_chords.csv": "242c808d25a016b8",
            "combined_chords.npz": "32e7ccd844d31f41",
            "combined_rays.csv": "3d2dc23b18ac5993",
            "combined_rays.npz": "057581c589892494",
            "manifest.json": "dd0cb24bdbdc3381",
            "rays_exit_adjacent-entry1-exit2.csv": "45c438667dd5072a",
            "rays_exit_adjacent-entry1-exit2.npz": "0a80e24a11b60623",
            "rays_exit_adjacent-entry1-exit3.csv": "8e93b7b9054f9731",
            "rays_exit_adjacent-entry1-exit3.npz": "5d794658de720235",
            "rays_exit_adjacent-entry2-exit1.csv": "90e618af102d4e5c",
            "rays_exit_adjacent-entry2-exit1.npz": "a4bb89ce56b534b3",
            "rays_exit_adjacent-entry2-exit3.csv": "c56e56e3277daa83",
            "rays_exit_adjacent-entry2-exit3.npz": "c097c7df4ccc8d48",
            "rays_exit_adjacent-entry3-exit1.csv": "475a53e55df8d3df",
            "rays_exit_adjacent-entry3-exit1.npz": "f7bc361ad7300be9",
            "rays_exit_adjacent-entry3-exit2.csv": "3dd2f679ac017533",
            "rays_exit_adjacent-entry3-exit2.npz": "6ca3c9d046edb87d",
            "rays_exit_opposing-entry1.csv": "923092b071cab6b9",
            "rays_exit_opposing-entry1.npz": "280ef141f2c13fdd",
            "rays_exit_opposing-entry2.csv": "08ecc3fbed6192ac",
            "rays_exit_opposing-entry2.npz": "281e832d5c34787f",
            "rays_exit_opposing-entry3.csv": "3fd67a9a27031b2d",
            "rays_exit_opposing-entry3.npz": "cb8dbda5a19995ff",
            "rays_joint_adjacent-entry1-exit2.npz": "79de6fd103c6aae6",
            "rays_joint_adjacent-entry1-exit3.npz": "d6cf757edffedc06",
            "rays_joint_adjacent-entry2-exit1.npz": "42f7ac67cf66896e",
            "rays_joint_adjacent-entry2-exit3.npz": "a9febd4f1570bd86",
            "rays_joint_adjacent-entry3-exit1.npz": "3bde6dc0c281d55e",
            "rays_joint_adjacent-entry3-exit2.npz": "e60b58816befa31f",
            "rays_joint_opposing-entry1.npz": "6bc0baecf9b5e69c",
            "rays_joint_opposing-entry2.npz": "14b5e408dffc1541",
            "rays_joint_opposing-entry3.npz": "cab07098725491fe",
            "single_face_chords_axis1.npz": "a2a5558d60fb765f",
            "single_face_chords_axis2.npz": "b939ff68a8b579ad",
            "single_face_chords_axis3.npz": "cfc6bb85213c65a8",
            "single_face_rays_axis1.npz": "52f6dcc87f952894",
            "single_face_rays_axis2.npz": "cc17a9ed9ec680df",
            "single_face_rays_axis3.npz": "1fc95ce33480cfc5",
        },
    ),
}


@pytest.mark.parametrize("name", list(ANALYTIC_DIGESTS))
def test_analytic_stage_digests(tmp_path, name):
    box, digests = ANALYTIC_DIGESTS[name]
    (tmp_path / "cfg.json").write_text(json.dumps({**ANALYTIC_GRIDS, "box": box}))
    out = tmp_path / "out"
    assert cli.main(["analytic", "--config", str(tmp_path / "cfg.json"), "--out", str(out), "--csv"]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16] for path in out.iterdir()}
    manifest = json.loads((out / "manifest.json").read_text())
    del manifest["version"]
    got["manifest.json"] = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()[:16]
    assert got == digests


# The sha256 (first 16 hex digits) of `report.json` and of every file
# `figures --sample` writes, after `analytic` and `sample --spill` at small
# grids.  They pin what `compare` and `figures` make of the artifacts they read.
DOWNSTREAM_RUN = {**ANALYTIC_GRIDS, "seed": 5, "samples": 20_000, "bins_joint": [4, 4, 4], "bins_length": 16}
DOWNSTREAM_DIGESTS = {
    "cube": (
        [1.0, 1.0, 1.0],
        {
            "band_map_adjacent-entry2-exit1.csv": "757393705c42b992",
            "band_map_adjacent-entry2-exit1.svg": "6ba8e5059aa48ed5",
            "band_map_opposing-entry2.csv": "f4e3937727b7954a",
            "band_map_opposing-entry2.svg": "17d12b91ed1e9368",
            "elevation_profile_chords.csv": "296374fa7a1a5f9c",
            "elevation_profile_chords.svg": "67505aebe48efeaf",
            "elevation_profile_rays.csv": "578cc81416c461be",
            "elevation_profile_rays.svg": "e29a6a339b363148",
            "figures_manifest.json": "c9e58b6e11b0cb26",
            "length_overlay_all.csv": "b29b7f471179a9bb",
            "length_overlay_all.svg": "07b883db9ea78f17",
            "length_overlay_axis1.csv": "d4bd03ff7d9bc51c",
            "length_overlay_axis1.svg": "2b158096ef535c0c",
            "length_overlay_axis2.csv": "d4bd03ff7d9bc51c",
            "length_overlay_axis2.svg": "155e70ee636d4ab2",
            "length_overlay_axis3.csv": "d4bd03ff7d9bc51c",
            "length_overlay_axis3.svg": "09dc8a083124d3b2",
            "location_length.csv": "6634920813c80855",
            "location_length.svg": "5e4a9398e4a0d36c",
            "report.json": "03d4f2c5c50c38f2",
        },
    ),
    "box-1.3x0.8x1.1": (
        [1.3, 0.8, 1.1],
        {
            "band_map_adjacent-entry2-exit1.csv": "9d3eea7b7093692b",
            "band_map_adjacent-entry2-exit1.svg": "eec19d9316c5d383",
            "band_map_opposing-entry2.csv": "ba4832a37f9a5869",
            "band_map_opposing-entry2.svg": "e8e8aa929782de0c",
            "elevation_profile_chords.csv": "060eae6854d778ab",
            "elevation_profile_chords.svg": "fd417016d48a2249",
            "elevation_profile_rays.csv": "b883b476353f9aee",
            "elevation_profile_rays.svg": "efb3f221cb8249c6",
            "figures_manifest.json": "c9e58b6e11b0cb26",
            "length_overlay_all.csv": "47b254881f1d3f11",
            "length_overlay_all.svg": "bb8efb54ac4ef78b",
            "length_overlay_axis1.csv": "8bb8d986f317d41a",
            "length_overlay_axis1.svg": "e25089fa1f27c2bb",
            "length_overlay_axis2.csv": "2657c873fc5a1c7f",
            "length_overlay_axis2.svg": "c86d1b9f5f02d5e3",
            "length_overlay_axis3.csv": "6a98022db4f5a25b",
            "length_overlay_axis3.svg": "798bdbaef637e946",
            "location_length.csv": "35088420ed7063d7",
            "location_length.svg": "ca959a7acd626d2f",
            "report.json": "77e5db8916dfea6d",
        },
    ),
}


@pytest.mark.parametrize("name", list(DOWNSTREAM_DIGESTS))
def test_compare_and_figures_digests(tmp_path, name):
    box, digests = DOWNSTREAM_DIGESTS[name]
    (tmp_path / "cfg.json").write_text(json.dumps({**DOWNSTREAM_RUN, "box": box}))
    cfg, analytic, sample = str(tmp_path / "cfg.json"), str(tmp_path / "analytic"), str(tmp_path / "sample")
    assert cli.main(["analytic", "--config", cfg, "--out", analytic]) == 0
    assert cli.main(["sample", "--config", cfg, "--out", sample, "--spill"]) == 0
    inputs = ["--analytic", analytic, "--sample", sample]
    assert cli.main(["compare", *inputs, "--out", str(tmp_path / "report.json")]) == 0
    assert cli.main(["figures", *inputs, "--out", str(tmp_path / "figures")]) == 0
    paths = [tmp_path / "report.json", *(tmp_path / "figures").iterdir()]
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16] for path in paths} == digests


def test_sample_memory_is_bounded_by_streams(tmp_path):
    """The stage holds a few streams' rows at a time, not both models' whole
    batches (42 bytes per path each)."""
    n = 500_000
    argv = ["sample", "--samples", str(n), "--seed", "5", "--workers", "1", "--out", str(tmp_path), "--spill"]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 42 * n / 4, f"peak {peak / 2**20:.1f} MiB"


def test_sample_without_spill_removes_older_spills(workdir, tmp_path):
    """A rerun without --spill deletes the spills an older run left in --out."""
    sample = tmp_path / "sample"
    argv = ["sample", "--config", str(workdir / "tiny.json"), "--samples", "5000", "--out", str(sample)]
    assert cli.main([*argv, "--spill"]) == 0
    assert (sample / "rays.bin").exists() and (sample / "chords.bin").exists()
    assert cli.main(argv) == 0
    assert not (sample / "rays.bin").exists()
    assert not (sample / "chords.bin").exists()


def test_figures_reads_only_the_spills_the_sample_run_lists(workdir, tmp_path):
    """A spill that the sample run does not list is not read, whatever its name."""
    sample = tmp_path / "sample"
    shutil.copytree(workdir / "sample", sample)
    assert cli.main(["sample", "--config", str(workdir / "tiny.json"), "--seed", "7", "--out", str(sample)]) == 0
    shutil.copyfile(workdir / "sample" / "rays.bin", sample / "rays.bin")
    out = tmp_path / "figs"
    argv = ["figures", "--analytic", str(workdir / "analytic"), "--sample", str(sample), "--out", str(out)]
    assert cli.main([*argv, "--which", "location", "--cell", "0.5", "0.5", "0.1"]) == 0
    assert "sampled" not in (out / "location_length.svg").read_text()


def test_cell_lengths_memory_is_bounded_by_blocks(tmp_path):
    """The location overlay keeps the rows in its cell, not the whole spill
    (42 bytes per path on disk, about as much again as columns)."""
    n = 500_000
    spill = tmp_path / "chords.bin"
    bio.start_trajectories(spill, BoxDims(1.0, 1.0, 1.0), n)
    bio.write_trajectories(spill, sample_chords(BoxDims(1.0, 1.0, 1.0), n, 5), at=0)
    cell = (0.5, 0.25, 0.1)
    whole = bio.read_trajectories(spill)
    rows = whole.exit_code == 3
    ab = whole.exit_ab[rows]
    expected = whole.length[rows][(np.abs(ab[:, 0] - cell[0]) <= cell[2]) & (np.abs(ab[:, 1] - cell[1]) <= cell[2])]
    del whole, rows, ab
    tracemalloc.start()
    try:
        lengths = cli._cell_lengths(spill, 3, cell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert expected.size > 1000
    assert np.array_equal(lengths, expected)
    assert peak < 2 * 42 * n / 4, f"peak {peak / 2**20:.1f} MiB"


def test_cell_lengths_do_not_read_entry_points(workdir, tmp_path):
    """The location overlay reads a spill's exit points, lengths and face
    codes, not its entry points: NaN entry points leave its lengths as they were."""
    spill = tmp_path / "rays.bin"
    shutil.copyfile(workdir / "sample" / "rays.bin", spill)
    cell = (0.5, 0.5, 0.2)
    before = cli._cell_lengths(spill, 3, cell)
    n = TINY["samples"]
    with open(spill, "r+b") as fh:
        fh.seek(40)  # entry_ab is the first column
        fh.write(np.full(2 * n, np.nan, "<f8").tobytes())
    assert np.isnan(bio.read_trajectories(spill).entry_ab).all()
    assert before.size > 100
    assert np.array_equal(cli._cell_lengths(spill, 3, cell), before)


@pytest.mark.parametrize("key, value", [("box", [1.0, 0.1, 1.0]), ("direction_model", "ball-rejection")])
def test_figures_refuses_mismatched_runs(workdir, tmp_path, key, value):
    sample = tmp_path / "sample"
    shutil.copytree(workdir / "sample", sample)
    manifest = json.loads((sample / "manifest.json").read_text())
    manifest["config"][key] = value
    (sample / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "figs"
    argv = ["figures", "--analytic", str(workdir / "analytic"), "--sample", str(sample), "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()


def test_compare_command(workdir, tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["compare", "--analytic", str(workdir / "analytic"), "--sample", str(workdir / "sample"), "--out", str(report_path)]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report) == {"joint", "length", "summary"}
    assert len(report["joint"]) == 18  # 9 classes x 2 models
    assert report["summary"]["worst_l1"] < 0.5
    assert report["length"]["combined_chords"]["l1"] < 0.1


def test_figures_command(workdir):
    out = workdir / "figures"
    code = cli.main(
        ["figures", "--analytic", str(workdir / "analytic"), "--sample", str(workdir / "sample"), "--out", str(out), "--cell", "0.5", "0.5", "0.1"]
    )
    assert code == 0
    manifest = json.loads((out / "figures_manifest.json").read_text())
    assert "band_map_opposing-entry2.svg" in manifest["outputs"]
    assert "length_overlay_axis2.csv" in manifest["outputs"]
    for name in manifest["outputs"]:
        assert (out / name).stat().st_size > 0
        if name.endswith(".svg"):
            root = ET.parse(out / name).getroot()
            assert root.tag.endswith("svg")


def test_figures_subset(workdir, tmp_path):
    out = tmp_path / "figs"
    assert cli.main(["figures", "--analytic", str(workdir / "analytic"), "--out", str(out), "--which", "band"]) == 0
    names = json.loads((out / "figures_manifest.json").read_text())["outputs"]
    assert all(n.startswith("band_map") for n in names)
    assert cli.main(["figures", "--analytic", str(workdir / "analytic"), "--out", str(out), "--which", "nope"]) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--which", "band,nope"], "--which"),
        (["--band", "0.7", "0.6"], "--band"),
        (["--band", "0.7", "0.7"], "--band"),
        (["--cell", "0.5", "0.5", "-0.1"], "--cell"),
        (["--cell", "0.5", "0.5", "0.0"], "--cell"),
        (["--cell-face", "6"], "face code"),
    ],
    ids=["which", "band-reversed", "band-empty", "cell-negative", "cell-zero", "cell-face"],
)
def test_figures_refuses_bad_inputs_before_writing(workdir, tmp_path, capsys, flags, message):
    out = tmp_path / "figs"
    assert cli.main(["figures", "--analytic", str(workdir / "analytic"), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "box, flags, extent",
    [
        ((1.0, 0.1, 1.0), ["--which", "location", "--cell-face", "0", "--cell", "0.5", "0.5", "0.05"], "[0, 0.1] x [0, 1.0]"),
    ],
    ids=["slab-face0"],
)
def test_figures_refuses_an_off_face_cell_before_writing(tmp_path, capsys, box, flags, extent):
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({**TINY, "box": list(box)}))
    assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "analytic")]) == 0
    out = tmp_path / "figs"
    assert cli.main(["figures", "--analytic", str(tmp_path / "analytic"), "--out", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert "--cell " in err and "--cell-face" in err and extent in err
    assert not out.exists()


@pytest.mark.parametrize(
    "box, title", [((0.2, 1.0, 0.2), "around (0.1, 0.1)"), ((1.0, 1.0, 1.0), "around (0.5, 0.5)")], ids=["rod", "cube"]
)
def test_figures_default_cell_is_centred_on_its_face(tmp_path, box, title):
    """A plain `figures` writes the location overlay at the centre of face 3,
    also on the rod, whose face 3 is only 0.2 x 0.2."""
    cfg = tmp_path / "box.json"
    cfg.write_text(json.dumps({**TINY, "box": list(box)}))
    assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "analytic")]) == 0
    out = tmp_path / "figs"
    assert cli.main(["figures", "--analytic", str(tmp_path / "analytic"), "--out", str(out)]) == 0
    assert "location_length.svg" in json.loads((out / "figures_manifest.json").read_text())["outputs"]
    assert title in (out / "location_length.svg").read_text()


def _read_csv(path: Path) -> tuple[list[str], list[np.ndarray]]:
    """Header and float columns of a figure table."""
    header, *rows = path.read_text().splitlines()
    return header.split(","), [np.array(col) for col in zip(*[[float(v) for v in row.split(",")] for row in rows])]


def _legend(path: Path) -> list[str]:
    return [e.text for e in ET.parse(path).getroot().iter() if e.tag.endswith("text") and e.text.endswith(("analytic", "sampled"))]


def test_figure_tables_carry_the_artifacts_numbers(workdir, tmp_path):
    """Every figure table holds the saved laws' own floats, and the overlay legends keep their order."""
    analytic = workdir / "analytic"
    out = tmp_path / "figs"
    argv = ["figures", "--analytic", str(analytic), "--sample", str(workdir / "sample"), "--out", str(out)]
    assert cli.main([*argv, "--cell", "0.5", "0.5", "0.1"]) == 0
    for tag, stem in [("all", "combined_{}")] + [(f"axis{j}", f"single_face_{{}}_axis{j}") for j in (1, 2, 3)]:
        names, cols = _read_csv(out / f"length_overlay_{tag}.csv")
        assert names == ["n", "rays_density", "chords_density"]
        for model, col in zip(("rays", "chords"), cols[1:]):
            law, _ = bio.load_density(analytic / f"{stem.format(model)}.npz")
            assert np.array_equal(cols[0], law.nodes) and np.array_equal(col, law.values)
    diag = BoxDims(*TINY["box"]).diagonal
    sheets = {}
    for label in ("opposing-entry2", "adjacent-entry2-exit1"):
        joint, _ = bio.load_density(analytic / f"chords_joint_{label}.npz")
        sheets[f"band_map_{label}"] = joint.band_integral(0, 0.675 * diag, 0.705 * diag)
    for model in ("rays", "chords"):
        joint, _ = bio.load_density(analytic / f"{model}_joint_adjacent-entry2-exit1.npz")
        sheets[f"elevation_profile_{model}"] = joint.integrate_out(1)
    for stem, sheet in sheets.items():
        names, (a, b, values) = _read_csv(out / f"{stem}.csv")
        assert names == [*sheet.axis_names, "band_mass" if stem.startswith("band") else "density"]
        mesh = np.meshgrid(sheet.nodes(0), sheet.nodes(1), indexing="ij")
        assert np.array_equal(a, mesh[0].ravel()) and np.array_equal(b, mesh[1].ravel())
        assert np.array_equal(values, sheet.values.ravel())
    assert _legend(out / "length_overlay_all.svg") == ["rays analytic", "rays sampled", "chords analytic", "chords sampled"]
    assert _legend(out / "location_length.svg") == ["rays analytic", "chords analytic", "rays sampled", "chords sampled"]


def test_usage_errors(tmp_path):
    assert cli.main(["analytic", "--box", "1", "0", "1", "--out", str(tmp_path)]) == 2
    assert cli.main(["sample", "--samples", "-3", "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid_nodes_3d": "huge"}')
    assert cli.main(["analytic", "--config", str(bad), "--out", str(tmp_path)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"grid_nodes_9d": 4}')
    assert cli.main(["analytic", "--config", str(unknown), "--out", str(tmp_path)]) == 2
    unknown.write_text('{"s_nodes_conditional": 5}')
    assert cli.main(["analytic", "--config", str(unknown), "--out", str(tmp_path)]) == 2
    unknown.write_text("[1, 2]")
    assert cli.main(["analytic", "--config", str(unknown), "--out", str(tmp_path)]) == 2


def test_flags_override_the_config_before_it_is_validated(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "samples": -3}))
    args = cli.build_parser().parse_args(["sample", "--config", str(cfg), "--samples", "10", "--box", "1", "2", "3", "--out", "x"])
    assert cli._load_config(args) == cli.RunConfig.from_dict({**TINY, "samples": 10, "box": [1.0, 2.0, 3.0]})


def test_missing_artifacts_exit_code(tmp_path):
    assert cli.main(["compare", "--analytic", str(tmp_path / "a"), "--sample", str(tmp_path / "b"), "--out", str(tmp_path / "r.json")]) == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["analytic", "--config", str(broken), "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("damage", ["garbage", "truncated"])
def test_program_run_exits_4_for_a_corrupt_npz(workdir, tmp_path, damage):
    # np.load reads a file without a zip magic as a pickle and refuses it
    # with a ValueError, which would read as a usage error (exit 2)
    analytic = tmp_path / "analytic"
    shutil.copytree(workdir / "analytic", analytic)
    npz = analytic / "combined_rays.npz"
    npz.write_bytes(b"not a zip" if damage == "garbage" else npz.read_bytes()[: npz.stat().st_size // 2])
    src = str(Path(boxpath.__file__).resolve().parents[1])
    argv = ["compare", "--analytic", str(analytic), "--sample", str(workdir / "sample"), "--out", str(tmp_path / "r.json")]
    run = subprocess.run([sys.executable, "-m", "boxpath.cli", *argv], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert run.returncode == 4
    assert "missing or corrupt artifact" in run.stderr


@pytest.mark.parametrize("box", [[1, 1], [1, 1, -1]], ids=["two-edges", "negative-edge"])
def test_figures_exits_4_for_a_manifest_box_that_is_not_a_box(workdir, tmp_path, capsys, box):
    """A corrupt analytic manifest is a corrupt artifact, not a configuration error."""
    analytic = tmp_path / "analytic"
    analytic.mkdir()
    manifest = json.loads((workdir / "analytic" / "manifest.json").read_text())
    manifest["config"]["box"] = box
    (analytic / "manifest.json").write_text(json.dumps(manifest))
    assert cli.main(["figures", "--analytic", str(analytic), "--out", str(tmp_path / "figs")]) == 4
    assert str(analytic / "manifest.json") in capsys.readouterr().err
    assert not (tmp_path / "figs").exists()


def test_figures_exits_4_for_a_joint_npz_that_is_not_a_density(workdir, tmp_path, capsys):
    """An npz whose members do not make a density is a corrupt artifact, named in the message."""
    analytic = tmp_path / "analytic"
    shutil.copytree(workdir / "analytic", analytic)
    npz = analytic / "chords_joint_opposing-entry2.npz"
    with bio.load_npz(npz) as z:
        arrays = {name: z[name] for name in z.files}
    arrays["domain"] = arrays["domain"][0]  # one axis's bounds, not one row per axis
    bio.write_npz(npz, arrays)
    argv = ["figures", "--analytic", str(analytic), "--out", str(tmp_path / "figs"), "--which", "band"]
    assert cli.main(argv) == 4
    assert str(npz) in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["kind", "total", "counts"])
def test_compare_exits_4_for_a_hists_npz_that_is_not_histograms(workdir, tmp_path, capsys, damage):
    """An index entry of an unknown kind or a total that is no number, or a missing counts member,
    is a corrupt artifact, named in the message."""
    sample = tmp_path / "sample"
    shutil.copytree(workdir / "sample", sample, ignore=shutil.ignore_patterns("*.bin"))
    npz = sample / "sample_rays_hists.npz"
    with bio.load_npz(npz) as z:
        arrays = {name: z[name] for name in z.files}
    index = json.loads(bytes(arrays["index"]).decode())
    item = index["histograms"][0]
    if damage == "counts":
        del arrays[f"{item['label']}/counts"]
    else:
        item[damage] = {"kind": "sideways", "total": "many"}[damage]
    arrays["index"] = np.frombuffer(json.dumps(index).encode(), dtype=np.uint8)
    bio.write_npz(npz, arrays)
    argv = ["compare", "--analytic", str(workdir / "analytic"), "--sample", str(sample), "--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 4
    assert str(npz) in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("stage", ["compare", "figures"])
def test_a_manifest_that_is_not_a_json_object_exits_4(workdir, tmp_path, capsys, stage):
    sample = tmp_path / "sample"
    sample.mkdir()
    (sample / "manifest.json").write_text("[1, 2]")
    out = tmp_path / "out"
    assert cli.main([stage, "--analytic", str(workdir / "analytic"), "--sample", str(sample), "--out", str(out)]) == 4
    assert str(sample / "manifest.json") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["presets", "analytic", "compare"])
def test_out_that_cannot_be_created_is_a_usage_error(workdir, tmp_path, capsys, stage):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    inputs = ["--analytic", str(workdir / "analytic"), "--sample", str(workdir / "sample")] if stage == "compare" else []
    assert cli.main([stage, *inputs, "--out", str(out)]) == 2
    assert f"--out {out}" in capsys.readouterr().err


def test_numerical_failure_exit_code(workdir):
    # a cell far outside every face has no analytic mass
    code = cli.main(
        ["figures", "--analytic", str(workdir / "analytic"), "--out", str(workdir / "f2"), "--which", "location", "--cell", "40.0", "40.0", "0.001"]
    )
    assert code == 3


def test_workers_env_is_ignored(monkeypatch):
    # `workers` (or --workers) is the only thread setting; 0 runs one thread
    monkeypatch.setenv("BOXPATH_WORKERS", "3")
    assert cli._load_config(cli.build_parser().parse_args(["sample", "--out", "x"])).workers == 0
    with pytest.raises(ValueError, match="workers"):
        cli.RunConfig(workers=-3).validate()


@pytest.mark.parametrize("box", [[1e-200, 1e-200, 1e-200], [1, 1, 1e200]], ids=["areas-underflow", "squares-overflow"])
def test_config_refuses_a_box_the_samplers_cannot_represent(box):
    # no test runs the sampler on the first box: its face areas underflow to 0 and it never finishes
    with pytest.raises(ValueError, match="box"):
        cli.RunConfig.from_dict({"box": box})


def test_a_tiny_box_runs_both_stages(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "box": [1e-60, 1e-60, 1e-60], "samples": 6400}))
    assert cli.main(["analytic", "--config", str(cfg), "--out", str(tmp_path / "analytic")]) == 0
    assert cli.main(["sample", "--config", str(cfg), "--out", str(tmp_path / "sample")]) == 0
    with bio.load_npz(tmp_path / "sample" / "sample_lengths.npz") as z:
        assert [int(z[f"{model}/counts"].sum()) for model in ("rays", "chords")] == [6400, 6400]


def test_sample_refuses_negative_workers(tmp_path, capsys):
    out = tmp_path / "sample"
    assert cli.main(["sample", "--samples", "1000", "--workers", "-3", "--out", str(out)]) == 2
    assert "workers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["analytic", "sample"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("samples", True),
        ("samples", 1e3),
        ("seed", -1),
        ("seed", "7"),
        ("workers", False),
        ("grid_nodes_3d", 16.0),
        ("bins_length", None),
        ("bins_joint", [6, 6.0, 6]),
        ("bins_joint", 6),
        ("box", [1, True, 1]),
        ("box", "111"),
        ("box", 2),
        ("grid_nodes_3d", 3),
        ("bins_joint", [6, 1, 6]),
        ("samples", 0),
        ("box", [1, 1, 1e200]),
        ("box", [1, 1, 10**400]),
        ("box", [1.0, 2.0]),
    ],
)
def test_config_values_of_the_wrong_type_are_refused_before_writing(tmp_path, capsys, stage, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, key: value}))
    out = tmp_path / stage
    spill = ["--spill"] if stage == "sample" else []
    assert cli.main([stage, "--config", str(cfg), "--out", str(out), *spill]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def test_keep_freed_heap_reports_what_it_did(monkeypatch):
    import ctypes

    if _glibc():
        assert cli._keep_freed_heap() is True  # both mallopt calls returned 1

    def never(*args):
        raise AssertionError("mallopt reached off glibc")

    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(ctypes, "CDLL", never)
    for confstr in (no_such_name, lambda name: "musl 1.2.4", lambda name: None):
        monkeypatch.setattr(os, "confstr", confstr)
        assert cli._keep_freed_heap() is False
    monkeypatch.delattr(os, "confstr")
    assert cli._keep_freed_heap() is False


@pytest.mark.skipif(not _glibc(), reason="the heap policy is set on glibc only")
def test_sample_keeps_freed_heap_pages(tmp_path):
    # Each of the 64 streams of both models frees megabytes of temporaries.  If
    # glibc hands them back to the kernel, the next stream faults them in again: about
    # 42 000 minor faults for this run, against about 6 300 when they are kept.
    src = str(Path(boxpath.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "boxpath.cli", "sample", "--box", "1", "0.1", "1", "--samples", "640000"]
    argv += ["--workers", "2", "--spill", "--out", str(tmp_path / "sample")]
    env = {**os.environ, "PYTHONPATH": src}
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert usage.ru_minflt < 20_000


@pytest.mark.parametrize("argv", [["presets", "--out", "presets"], ["--help"], ["--version"]], ids=["presets", "help", "version"])
def test_program_run_loads_no_stage_for_presets_help_or_version(tmp_path, argv):
    # numpy and the stage modules are most of a `presets` run's time;
    # the program run loads them only for a stage that needs them.
    # -X importtime lists every module the run imports, one per stderr line;
    # -S keeps out the start-up hooks of site-packages' .pth files, which may
    # load zipfile first, so that a later import of it would not be listed.
    src = str(Path(boxpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = [sys.executable, "-S", "-X", "importtime", "-m", "boxpath.cli", *argv]
    out = subprocess.run(run, env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert "boxpath" in imported
    assert sorted(m for m in imported if m.split(".")[0] in ("numpy", "boxpath")) == ["boxpath", "boxpath.errors"]
    # `dataclasses` imports `inspect` and, through it, `ast`, `dis` and `tokenize`
    assert not {"zipfile", "dataclasses", "inspect"} & imported
    if argv[0] == "presets":
        assert {p.name for p in (tmp_path / "presets").iterdir()} == {"cube.json", "slab.json", "rod.json"}


@pytest.mark.parametrize(
    "entry, loaded",
    [
        (["-m", "boxpath"], ["boxpath", "boxpath.errors"]),
        # what the `boxpath` script runs
        (["-c", "import sys; from boxpath.__main__ import main; sys.exit(main())"], ["boxpath", "boxpath.__main__", "boxpath.errors"]),
    ],
    ids=["package", "script"],
)
def test_package_and_script_runs_load_no_stage_for_presets(tmp_path, entry, loaded):
    # -S and -X importtime as above; both run `boxpath.cli` as __main__, so they get its lazy load
    src = str(Path(boxpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = [sys.executable, "-S", "-X", "importtime", *entry, "presets", "--out", "presets"]
    out = subprocess.run(run, env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert sorted(m for m in imported if m.split(".")[0] in ("numpy", "boxpath")) == loaded
    assert not {"zipfile", "dataclasses", "inspect"} & imported
    digests = {name: hashlib.sha256((tmp_path / "presets" / name).read_bytes()).hexdigest() for name in PRESET_DIGESTS}
    assert digests == PRESET_DIGESTS


def test_boxpath_script_runs_the_package_entry_point():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.strip().splitlines() == ['boxpath = "boxpath.__main__:main"']


def test_program_run_of_sample_loads_only_the_sampler(tmp_path):
    # The law and report modules take milliseconds to import, and `sample`
    # runs none of them.  -S and -X importtime as above; with -S, numpy is
    # found through PYTHONPATH.
    src = str(Path(boxpath.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(np.__file__).resolve().parents[1])])}
    run = [sys.executable, "-S", "-X", "importtime", "-m", "boxpath.cli", "sample", "--samples", "640", "--out", "out"]
    out = subprocess.run(run, env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines() if line.startswith("import time:")}
    assert "numpy" in imported
    loaded = sorted(m for m in imported if m.split(".")[0] == "boxpath")
    assert loaded == [f"boxpath.{m}" if m else "boxpath" for m in ("", "density", "errors", "geometry", "io", "montecarlo")]
    assert (tmp_path / "out" / "sample_lengths.npz").exists()


def test_import_boxpath_loads_no_numpy():
    src = str(Path(boxpath.__file__).resolve().parents[1])
    code = "import sys, boxpath; print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'boxpath')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['boxpath']"


@pytest.mark.parametrize("stage", ["analytic", "sample"])
def test_unknown_direction_model_is_refused_before_writing(tmp_path, capsys, stage):
    out = tmp_path / stage
    assert cli.main([stage, "--samples", "1000", "--direction-model", "bogus", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "direction_model" in err and "cube-components" in err
    assert not out.exists()


def test_cli_runs_compare_without_scipy():
    # compare computes its p-values in closed form, so no CLI stage pays
    # scipy's import time and memory
    src = str(Path(boxpath.__file__).resolve().parents[1])
    code = """
import sys
import numpy as np
import boxpath.cli
from boxpath import compare
from boxpath.density import GridDensity1D

density = GridDensity1D(0.0, 1.0, np.linspace(0.5, 1.5, 33))
rep = compare.compare_length(np.linspace(0.0, 1.0, 9), np.arange(100, 900, 100), density)
assert 0.0 <= rep.chi2_pvalue <= 1.0 and 0.0 <= rep.ks[0].pvalue <= 1.0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_analytic_compare_and_figures_leave_out_numpy_ma(workdir, tmp_path):
    # np.unique imports numpy.ma on first use, about 26 ms for each stage
    # that calls it; the grid projections sort and drop repeats instead
    src = str(Path(boxpath.__file__).resolve().parents[1])
    analytic, sample = tmp_path / "analytic", workdir / "sample"
    code = f"""
import sys
from boxpath import cli

for argv in (
    ["analytic", "--config", {str(workdir / "tiny.json")!r}, "--out", {str(analytic)!r}, "--csv"],
    ["compare", "--analytic", {str(analytic)!r}, "--sample", {str(sample)!r}, "--out", {str(tmp_path / "report.json")!r}],
    ["figures", "--analytic", {str(analytic)!r}, "--sample", {str(sample)!r}, "--out", {str(tmp_path / "figs")!r}],
):
    assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
