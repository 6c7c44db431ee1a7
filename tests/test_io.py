"""Serialization: byte-determinism and exact round-trips."""

import struct
import zipfile

import numpy as np
import pytest

from boxpath import GridDensity, GridDensity1D, IncompatibleGridError, sample_rays
from boxpath import io as bio
from boxpath.geometry import BoxDims
from boxpath.montecarlo import TrajectoryBatch, canonical_histograms


@pytest.fixture
def densities():
    rng = np.random.default_rng(12)
    return [
        GridDensity1D(0.5, 2.0, rng.random(33)),
        GridDensity(((0.0, 1.0), (0.0, 2.0)), rng.random((9, 11)), ("a", "e")),
        GridDensity(((1.0, 2.0), (0.0, 1.0), (0.0, 1.0)), rng.random((5, 6, 7))),
    ]


def test_density_round_trip(tmp_path, densities):
    for i, d in enumerate(densities):
        path = tmp_path / f"d{i}.npz"
        bio.save_density(path, d, {"tag": i, "nested": {"x": [1, 2]}})
        back, meta = bio.load_density(path)
        assert type(back) is type(d)
        assert np.array_equal(back.values, d.values)
        assert back.axis_names == d.axis_names if hasattr(d, "axis_names") else True
        assert meta == {"tag": i, "nested": {"x": [1, 2]}}


def test_load_density_rejects_domain_rank_mismatch(tmp_path):
    path = tmp_path / "bad.npz"
    bio.write_npz(
        path,
        {
            "domain": np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]),
            "values": np.ones((3, 4)),
            "axis_names": np.array(["u", "v"]),
            "meta": np.frombuffer(b"{}", dtype=np.uint8),
        },
    )
    with pytest.raises(ValueError, match="axes"):
        bio.load_density(path)


def test_npz_bytes_deterministic(tmp_path, densities):
    p1, p2 = tmp_path / "a.npz", tmp_path / "b.npz"
    bio.save_density(p1, densities[2], {"k": 1})
    bio.save_density(p2, densities[2], {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()
    arrays = {"a": densities[1].values, "b/c": np.arange(7, dtype=np.int64), "d": np.array(["x", "yz"])}
    bio.write_npz(p1, arrays)
    bio.write_npz(p2, dict(arrays))
    assert p1.read_bytes() == p2.read_bytes()


def test_npz_members_stored_with_pinned_timestamp(tmp_path, densities):
    path = tmp_path / "d.npz"
    bio.save_density(path, densities[2], {"k": 1})
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    assert [info.filename for info in infos] == ["domain.npy", "values.npy", "axis_names.npy", "meta.npy"]
    for info in infos:
        assert info.compress_type == zipfile.ZIP_STORED
        assert info.date_time == (1980, 1, 1, 0, 0, 0)
        assert info.compress_size == info.file_size


def _deflated_copy(src, dst):
    """Rewrite every member of the npz `src` deflated, as archives written before members were stored."""
    with np.load(src) as z, zipfile.ZipFile(dst, "w", zipfile.ZIP_DEFLATED) as zf:
        for name in z.files:
            with zf.open(name + ".npy", "w") as member:
                np.lib.format.write_array(member, z[name], allow_pickle=False)
    with zipfile.ZipFile(dst) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}


def test_deflated_archives_still_load(tmp_path, densities, rays_batch_cube):
    for i, d in enumerate(densities):
        stored, deflated = tmp_path / f"d{i}.npz", tmp_path / f"d{i}_deflated.npz"
        bio.save_density(stored, d, {"tag": i})
        _deflated_copy(stored, deflated)
        (want, want_meta), (got, got_meta) = bio.load_density(stored), bio.load_density(deflated)
        assert np.array_equal(got.values, want.values) and got.values.dtype == want.values.dtype
        assert got_meta == want_meta == {"tag": i}
    stored, deflated = tmp_path / "h.npz", tmp_path / "h_deflated.npz"
    bio.save_histograms(stored, canonical_histograms(rays_batch_cube, 6, 5, 5), {"seed": 7})
    _deflated_copy(stored, deflated)
    (want, want_meta), (got, got_meta) = bio.load_histograms(stored), bio.load_histograms(deflated)
    assert got_meta == want_meta and set(got) == set(want)
    for label, h in want.items():
        for field in ("n_edges", "u_edges", "v_edges", "counts"):
            assert np.array_equal(getattr(got[label], field), getattr(h, field))
        assert (got[label].kind, got[label].indices, got[label].total) == (h.kind, h.indices, h.total)


def test_histograms_round_trip(tmp_path, cube, rays_batch_cube):
    hists = canonical_histograms(rays_batch_cube, 6, 5, 5)
    path = tmp_path / "h.npz"
    bio.save_histograms(path, hists, {"seed": 424242})
    back, meta = bio.load_histograms(path)
    assert meta["seed"] == 424242
    assert set(back) == set(hists)
    for label in hists:
        assert np.array_equal(back[label].counts, hists[label].counts)
        assert np.array_equal(back[label].n_edges, hists[label].n_edges)
        assert back[label].total == hists[label].total
        assert back[label].kind == hists[label].kind


def test_trajectory_round_trip(tmp_path, cube):
    batch = sample_rays(cube, 5_000, 31, "cube-components", 1)
    path = tmp_path / "t.bin"
    bio.write_trajectories(path, batch)
    back = bio.read_trajectories(path)
    assert np.array_equal(back.length, batch.length)
    assert np.array_equal(back.entry_code, batch.entry_code)
    assert np.array_equal(back.exit_ab, batch.exit_ab)
    assert back.box.as_array().tolist() == [1.0, 1.0, 1.0]


def test_trajectory_positional_writes(tmp_path, cube):
    """Records written at their offsets, in any order, give the whole-batch spill."""
    batch = sample_rays(cube, 1_000, 34, "cube-components", 1)
    whole, parts = tmp_path / "whole.bin", tmp_path / "parts.bin"
    bio.write_trajectories(whole, batch)
    bio.start_trajectories(parts, batch.box, len(batch))
    for lo, hi in ((600, 1_000), (0, 250), (250, 600)):
        rows = slice(lo, hi)
        part = TrajectoryBatch(batch.box, batch.entry_code[rows], batch.entry_ab[rows], batch.exit_code[rows], batch.exit_ab[rows], batch.length[rows])
        bio.write_trajectories(parts, part, at=lo)
    assert parts.read_bytes() == whole.read_bytes()
    with pytest.raises(ValueError, match="past the end"):
        bio.write_trajectories(parts, part, at=900)
    with pytest.raises(ValueError, match="negative"):
        bio.write_trajectories(parts, part, at=-1)
    assert parts.read_bytes() == whole.read_bytes()


def test_trajectory_unfilled_spill_rejected(tmp_path, cube):
    """A begun spill whose records were never written holds face codes 0 and 0."""
    path = tmp_path / "t.bin"
    bio.start_trajectories(path, cube, 10)
    with pytest.raises(IncompatibleGridError, match="face codes"):
        bio.read_trajectories(path)
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(IncompatibleGridError, match="truncated"):
        bio.read_trajectories(path)


def test_trajectory_bad_magic(tmp_path, cube):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMINE!" + b"\x00" * 64)
    with pytest.raises(IncompatibleGridError):
        bio.read_trajectories(path)
    with pytest.raises(IncompatibleGridError, match="start_trajectories"):
        bio.write_trajectories(path, sample_rays(cube, 10, 35, "cube-components", 1), at=0)


def test_trajectory_truncation_detected(tmp_path, cube):
    batch = sample_rays(cube, 1_000, 32, "cube-components", 1)
    path = tmp_path / "t.bin"
    bio.write_trajectories(path, batch)
    blob = path.read_bytes()
    path.write_bytes(blob[:-21])
    with pytest.raises(IncompatibleGridError):
        bio.read_trajectories(path)


@pytest.mark.parametrize("exit_byte", [6, None], ids=["face-byte-6", "same-face"])
def test_trajectory_bad_face_codes_rejected(tmp_path, cube, exit_byte):
    n = 1_000
    batch = sample_rays(cube, n, 33, "cube-components", 1)
    path = tmp_path / "t.bin"
    bio.write_trajectories(path, batch)
    blob = bytearray(path.read_bytes())
    # past the header and the 40 bytes per record of float columns, the
    # entry face column, then the exit face column, one byte per record
    entry, exit_ = 40 + 40 * n + 7, 40 + 41 * n + 7
    blob[exit_] = blob[entry] if exit_byte is None else exit_byte
    path.write_bytes(bytes(blob))
    with pytest.raises(IncompatibleGridError, match="face codes"):
        bio.read_trajectories(path)


def test_trajectory_read_of_selected_fields(tmp_path, cube):
    """A read of some fields returns those columns and the face codes, leaves
    the others None, still checks every record's codes and refuses a name
    that is not a field."""
    n = 1_000
    batch = sample_rays(cube, n, 35, "cube-components", 1)
    path = tmp_path / "t.bin"
    bio.write_trajectories(path, batch)
    back = bio.read_trajectories(path, where=lambda b: b.exit_code == 3, fields=("length",))
    rows = batch.exit_code == 3
    assert back.entry_ab is None and back.exit_ab is None
    for name in ("entry_code", "exit_code", "length"):
        assert np.array_equal(getattr(back, name), getattr(batch, name)[rows]), name
    with pytest.raises(ValueError, match="exit_AB"):
        bio.read_trajectories(path, fields=("exit_AB",))
    blob = bytearray(path.read_bytes())
    blob[40 + 41 * n + 7] = 6  # record 7's exit face code
    path.write_bytes(bytes(blob))
    with pytest.raises(IncompatibleGridError, match="face codes"):
        bio.read_trajectories(path, fields=("length",))


def test_trajectory_record_layout(tmp_path):
    """A spill is its header, then one little-endian column per field: entry_ab,
    exit_ab and length as doubles, entry and exit face codes as bytes."""
    box = BoxDims(1.3, 0.8, 1.1)
    entry_code, exit_code = (0, 2, 5), (1, 4, 3)
    entry_ab = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    exit_ab = np.array([[0.7, 0.8], [0.9, 1.0], [0.25, 0.75]])
    length = np.array([1.5, 0.125, 2.0625])
    batch = TrajectoryBatch(box, np.array(entry_code, np.uint8), entry_ab, np.array(exit_code, np.uint8), exit_ab, length)
    path = tmp_path / "t.bin"
    bio.write_trajectories(path, batch)
    header = b"BOXPATH\x02" + struct.pack("<3dQ", 1.3, 0.8, 1.1, 3)
    columns = [
        struct.pack("<6d", *entry_ab.ravel().tolist()),
        struct.pack("<6d", *exit_ab.ravel().tolist()),
        struct.pack("<3d", *length.tolist()),
        struct.pack("<3B", *entry_code),
        struct.pack("<3B", *exit_code),
    ]
    blob = path.read_bytes()
    assert blob == header + b"".join(columns)
    assert len(blob) == 40 + 42 * 3
    back = bio.read_trajectories(path)
    for name in ("entry_code", "entry_ab", "exit_code", "exit_ab", "length"):
        got = getattr(back, name)
        assert np.array_equal(got, getattr(batch, name)) and got.flags.c_contiguous and got.flags.aligned, name


def test_trajectory_v1_spill_refused(tmp_path):
    """A spill of packed 42-byte records under the version-1 magic is refused
    with a message that names the format and the rerun."""
    n = 4
    records = b"".join(struct.pack("<BB5d", 2, 3, 0.5, 0.5, 0.25, 0.5, 1.0) for _ in range(n))
    path = tmp_path / "v1.bin"
    path.write_bytes(b"BOXPATH\x01" + struct.pack("<3dQ", 1.0, 1.0, 1.0, n) + records)
    with pytest.raises(IncompatibleGridError, match=r"format 1.*sample --spill"):
        bio.read_trajectories(path)


def test_csv_floats_round_trip_exactly(tmp_path, densities):
    path = tmp_path / "d.csv"
    bio.write_density_csv(path, densities[0])
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,density"
    values = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(values, densities[0].values)


def test_series_csv(tmp_path):
    path = tmp_path / "s.csv"
    bio.write_series_csv(path, {"x": np.array([1.0, 2.0]), "y": np.array([0.1, 0.2])})
    assert path.read_text().splitlines()[0] == "x,y"
    with pytest.raises(ValueError):
        bio.write_series_csv(path, {"x": np.array([1.0, 2.0]), "y": np.array([0.1])})


def test_config_hash_stable():
    a = {"b": 1, "a": [1, 2], "c": {"y": 2.0, "x": 1.0}}
    b = {"c": {"x": 1.0, "y": 2.0}, "a": [1, 2], "b": 1}
    assert bio.config_hash(a) == bio.config_hash(b)
    assert bio.config_hash(a) != bio.config_hash({**a, "b": 2})
    assert len(bio.config_hash(a)) == 64
