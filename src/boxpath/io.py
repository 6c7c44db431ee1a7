"""Deterministic file formats: npz grids, CSV tables, raw trajectories.

All writers produce byte-identical output for identical inputs.  The npz
container is written through zipfile with a pinned timestamp because the
stock savez embeds the current time in every member header.  Its members
are stored, not deflated: deflate shrinks the dense float grids only about
fourfold and took longer than computing them, and `np.load` reads stored
and deflated members alike, so older deflated artifacts still load.  CSV
floats use repr (shortest round-trip form).  Trajectory spills are
fixed-layout little-endian records behind a small header.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from typing import Mapping

import numpy as np

from .density import GridDensity, GridDensity1D
from .errors import IncompatibleGridError
from .geometry import BoxDims, PairKind
from .montecarlo import JointHistogram, TrajectoryBatch

__all__ = [
    "config_hash",
    "load_density",
    "load_histograms",
    "read_trajectories",
    "save_density",
    "save_histograms",
    "start_trajectories",
    "write_density_csv",
    "write_npz",
    "write_series_csv",
    "write_trajectories",
]

_TRAJ_MAGIC = b"BOXPATH\x01"
# One packed little-endian record per path, its fields named as the batch's:
# entry_code at byte 0, exit_code at 1, entry_ab at 2, exit_ab at 18, length
# at 34; 42 bytes in all.
_TRAJ_DTYPE = np.dtype(
    [
        ("entry_code", "u1"),
        ("exit_code", "u1"),
        ("entry_ab", "<f8", (2,)),
        ("exit_ab", "<f8", (2,)),
        ("length", "<f8"),
    ]
)
_TRAJ_HEADER = 40  # magic, three box dims, record count
_READ_BLOCK = 1 << 16  # records per block of a filtered read


def write_npz(path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write an npz archive with fixed member timestamps (reproducible bytes).

    Every member is ZIP_STORED (see the module docstring) and each array is
    written straight into its member, without an in-memory copy.
    """
    with zipfile.ZipFile(path, "w") as zf:
        for name in arrays:
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            info.external_attr = 0o644 << 16
            with zf.open(info, "w") as member:
                np.lib.format.write_array(member, np.asanyarray(arrays[name]), allow_pickle=False)


def _meta_array(meta: Mapping) -> np.ndarray:
    return np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)


def _meta_load(arr: np.ndarray) -> dict:
    return json.loads(bytes(arr).decode())


def save_density(path, density: GridDensity1D | GridDensity, meta: Mapping | None = None) -> None:
    """Serialize a gridded density plus free-form JSON metadata."""
    if isinstance(density, GridDensity1D):
        domain = np.array([[density.lo, density.hi]])
        names = ["x"]
    elif isinstance(density, GridDensity):
        domain = np.array(density.domain)
        names = list(density.axis_names)
    else:
        raise TypeError(f"cannot serialize {type(density).__name__}")
    write_npz(
        path,
        {
            "domain": domain,
            "values": density.values,
            "axis_names": np.array(names),
            "meta": _meta_array(dict(meta or {})),
        },
    )


def load_density(path) -> tuple[GridDensity1D | GridDensity, dict]:
    with np.load(path) as z:
        domain = z["domain"]
        values = z["values"]
        names = [str(s) for s in z["axis_names"]]
        meta = _meta_load(z["meta"])
    if values.ndim == 1:
        return GridDensity1D(domain[0, 0], domain[0, 1], values), meta
    if values.ndim in (2, 3):
        return GridDensity(tuple(map(tuple, domain)), values, tuple(names)), meta
    raise IncompatibleGridError(f"unsupported density rank {values.ndim}")


def save_histograms(path, hists: Mapping[str, JointHistogram], meta: Mapping | None = None) -> None:
    """Serialize a label -> JointHistogram mapping into one npz archive."""
    arrays: dict[str, np.ndarray] = {"meta": _meta_array(dict(meta or {}))}
    index = []
    for label in sorted(hists):
        h = hists[label]
        index.append(
            {"label": label, "kind": h.kind.value, "indices": list(h.indices), "total": h.total}
        )
        arrays[f"{label}/n_edges"] = h.n_edges
        arrays[f"{label}/u_edges"] = h.u_edges
        arrays[f"{label}/v_edges"] = h.v_edges
        arrays[f"{label}/counts"] = h.counts
    arrays["index"] = _meta_array({"histograms": index})
    write_npz(path, arrays)


def load_histograms(path) -> tuple[dict[str, JointHistogram], dict]:
    with np.load(path) as z:
        index = _meta_load(z["index"])["histograms"]
        meta = _meta_load(z["meta"])
        out = {}
        for item in index:
            label = item["label"]
            out[label] = JointHistogram(
                PairKind(item["kind"]),
                tuple(item["indices"]),
                z[f"{label}/n_edges"],
                z[f"{label}/u_edges"],
                z[f"{label}/v_edges"],
                z[f"{label}/counts"],
                int(item["total"]),
            )
    return out, meta


def write_density_csv(path, density: GridDensity1D | GridDensity, value_name: str = "density") -> None:
    """Tabulate grid nodes and values; one row per node, C order."""
    if isinstance(density, GridDensity1D):
        names, axes = ["x"], [density.nodes]
    else:
        names = list(density.axis_names)
        axes = [density.nodes(a) for a in range(len(names))]
    mesh = np.meshgrid(*axes, indexing="ij")
    write_series_csv(path, dict(zip(names + [value_name], [*mesh, density.values])))


def write_series_csv(path, columns: Mapping[str, np.ndarray]) -> None:
    """Write named columns of equal length as CSV."""
    names = list(columns)
    arrs = [np.asarray(columns[n]).ravel() for n in names]
    if len({a.size for a in arrs}) != 1:
        raise ValueError("all columns must have the same length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in zip(*arrs):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def start_trajectories(path, box: BoxDims, count: int) -> None:
    """Begin a spill of `count` records: write its header and size the file.

    `write_trajectories(path, batch, at=...)` then fills the records, in
    any order and from any thread.
    """
    with open(path, "wb") as fh:
        fh.write(_TRAJ_MAGIC)
        fh.write(box.as_array().astype("<f8").tobytes())
        fh.write(np.array(count, dtype="<u8").tobytes())
        fh.truncate(_TRAJ_HEADER + count * _TRAJ_DTYPE.itemsize)


def write_trajectories(path, batch: TrajectoryBatch, at: int | None = None) -> None:
    """Raw little-endian spill: 8-byte magic, box dims, count, then records.

    Without `at` the batch is the whole spill.  With `at` its records are
    written from record `at` on into a spill begun by `start_trajectories`.
    """
    if at is None:
        start_trajectories(path, batch.box, len(batch))
        at = 0
    rec = np.empty(len(batch), dtype=_TRAJ_DTYPE)
    for name in _TRAJ_DTYPE.names:
        rec[name] = getattr(batch, name)
    offset = _TRAJ_HEADER + at * _TRAJ_DTYPE.itemsize
    with open(path, "r+b") as fh:
        if os.fstat(fh.fileno()).st_size < offset + rec.nbytes:
            raise ValueError(f"{path}: records {at}..{at + len(batch)} lie past the end of the spill")
        fh.seek(offset)
        rec.tofile(fh)


def read_trajectories(path, where=None) -> TrajectoryBatch:
    """Read a spill; IncompatibleGridError for a bad magic, a truncated file,
    or a record whose face codes are not a traversal pair.

    With `where`, a function from a TrajectoryBatch to a row mask, the
    records are read in blocks of `_READ_BLOCK` and only the rows it keeps
    are returned, so memory holds one block plus the kept rows.  Every
    record is still checked.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_TRAJ_HEADER)
        if header[:8] != _TRAJ_MAGIC:
            raise IncompatibleGridError(f"{path}: not a trajectory spill (bad magic)")
        count = int.from_bytes(header[32:], "little")
        if len(header) < _TRAJ_HEADER or size != _TRAJ_HEADER + count * _TRAJ_DTYPE.itemsize:
            found = max(0, size - _TRAJ_HEADER) // _TRAJ_DTYPE.itemsize
            raise IncompatibleGridError(f"{path}: truncated spill ({found} of {count} records)")
        box = BoxDims(*np.frombuffer(header[8:32], dtype="<f8"))
        block = count if where is None else _READ_BLOCK
        kept = []
        for start in range(0, count, max(1, block)):
            rec = np.fromfile(fh, dtype=_TRAJ_DTYPE, count=min(block, count - start))
            bad = (rec["entry_code"] > 5) | (rec["exit_code"] > 5) | (rec["entry_code"] == rec["exit_code"])
            if bad.any():
                raise IncompatibleGridError(
                    f"{path}: record {start + int(np.argmax(bad))} has face codes outside 0..5 or entry equal to exit"
                )
            if where is not None:
                rec = rec[where(TrajectoryBatch(box, **{name: rec[name] for name in _TRAJ_DTYPE.names}))]
            kept.append(rec)
    rec = kept[0] if len(kept) == 1 else np.concatenate([np.empty(0, dtype=_TRAJ_DTYPE), *kept])
    columns = {name: np.ascontiguousarray(rec[name]) for name in _TRAJ_DTYPE.names}
    return TrajectoryBatch(box, **columns, meta={"source": "spill"})


def config_hash(config: Mapping) -> str:
    """Stable sha256 over the canonical JSON form of a configuration."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
