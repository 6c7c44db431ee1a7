"""Deterministic file formats: npz grids, CSV tables, raw trajectories.

All writers produce byte-identical output for identical inputs.  The npz
container is written through zipfile with a pinned timestamp because the
stock savez embeds the current time in every member header.  Its members
are stored, not deflated: deflate shrinks the dense float grids only about
fourfold and took longer than computing them, and `np.load` reads stored
and deflated members alike, so older deflated artifacts still load.  CSV
floats use repr (shortest round-trip form).  A trajectory spill is a
small header, then one little-endian column per record field, so a
sampler stream's arrays go to disk as they are, with one positional
write each, and a read gets each field back as one contiguous array.
"""

from __future__ import annotations

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
    "load_npz",
    "read_trajectories",
    "save_density",
    "save_histograms",
    "start_trajectories",
    "write_density_csv",
    "write_npz",
    "write_series_csv",
    "write_trajectories",
]

_TRAJ_MAGIC = b"BOXPATH\x02"
_TRAJ_V1_MAGIC = b"BOXPATH\x01"  # packed 42-byte records, no longer read
# The record fields, named as the batch's, in their column order: a spill
# of `count` records holds each field's column, little-endian, from byte
# _TRAJ_HEADER + count * (the field's offset here) on.  The float columns
# come first, so each starts 8-byte aligned; 42 bytes per record in all.
_TRAJ_DTYPE = np.dtype(
    [
        ("entry_ab", "<f8", (2,)),
        ("exit_ab", "<f8", (2,)),
        ("length", "<f8"),
        ("entry_code", "u1"),
        ("exit_code", "u1"),
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


def load_npz(path):
    """`np.load` of an npz archive; BadZipFile, not np.load's pickle ValueError, for a non-zip file."""
    with open(path, "rb") as fh:
        if fh.read(4) not in (b"PK\x03\x04", b"PK\x05\x06"):  # a member's header, or an empty archive's end
            raise zipfile.BadZipFile(f"{path}: not an npz archive")
    return np.load(path)


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
    with load_npz(path) as z:
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
    with load_npz(path) as z:
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


def _columns(count: int):
    """Each field's name, dtype and the byte offset of its column in a spill of `count` records."""
    for name in _TRAJ_DTYPE.names:
        dtype, offset = _TRAJ_DTYPE.fields[name][:2]
        yield name, dtype, _TRAJ_HEADER + count * offset


def write_trajectories(path, batch: TrajectoryBatch, at: int | None = None) -> None:
    """Raw little-endian spill: 8-byte magic, box dims, count, then one column per field.

    Without `at` the batch is the whole spill.  With `at` its records are
    written from record `at` on into a spill begun by `start_trajectories`:
    each of the batch's arrays goes to its column with one positional write.
    """
    if at is not None and at < 0:
        raise ValueError(f"{path}: record offset at={at} is negative")
    if at is None:
        start_trajectories(path, batch.box, len(batch))
        at = 0
    fd = os.open(path, os.O_RDWR)
    try:
        header = os.pread(fd, _TRAJ_HEADER, 0)
        if header[:8] != _TRAJ_MAGIC:
            raise IncompatibleGridError(f"{path}: not a spill begun by start_trajectories (bad magic)")
        count = int.from_bytes(header[32:], "little")
        if at + len(batch) > count:
            raise ValueError(f"{path}: records {at}..{at + len(batch)} lie past the end of the spill")
        for name, dtype, offset in _columns(count):
            column = np.ascontiguousarray(getattr(batch, name), dtype=dtype.base)
            view = memoryview(column.reshape(-1).view(np.uint8))
            offset += at * dtype.itemsize
            while view:  # a positional write may write less than asked
                done = os.pwrite(fd, view, offset)
                view, offset = view[done:], offset + done
    finally:
        os.close(fd)


def read_trajectories(path, where=None, fields=None) -> TrajectoryBatch:
    """Read a spill; IncompatibleGridError for a bad magic, a spill of the
    older packed-record format, a truncated file, or a record whose face
    codes are not a traversal pair.

    With `where`, a function from a TrajectoryBatch to a row mask, the
    records are read in blocks of `_READ_BLOCK` and only the rows it keeps
    are returned, so memory holds one block plus the kept rows.  Every
    record is still checked.  With `fields`, only those columns are read
    besides the two face codes, which every read checks; the batch's other
    fields, in what `where` sees too, are None.
    """
    names = _TRAJ_DTYPE.names if fields is None else ("entry_code", "exit_code", *fields)
    unknown = set(names) - set(_TRAJ_DTYPE.names)
    if unknown:
        raise ValueError(f"unknown spill fields {sorted(unknown)}; a spill holds {_TRAJ_DTYPE.names}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_TRAJ_HEADER)
        if header[:8] == _TRAJ_V1_MAGIC:
            raise IncompatibleGridError(
                f"{path}: a spill in the packed-record format 1, which is no longer read; rerun `sample --spill`"
            )
        if header[:8] != _TRAJ_MAGIC:
            raise IncompatibleGridError(f"{path}: not a trajectory spill (bad magic)")
        count = int.from_bytes(header[32:], "little")
        if len(header) < _TRAJ_HEADER or size != _TRAJ_HEADER + count * _TRAJ_DTYPE.itemsize:
            found = max(0, size - _TRAJ_HEADER) // _TRAJ_DTYPE.itemsize
            raise IncompatibleGridError(f"{path}: truncated spill ({found} of {count} records)")
        box = BoxDims(*np.frombuffer(header[8:32], dtype="<f8"))
        block = count if where is None else _READ_BLOCK
        read = [(name, dtype, offset) for name, dtype, offset in _columns(count) if name in names]
        kept: dict[str, list[np.ndarray]] = {name: [] for name, _, _ in read}
        for start in range(0, count, max(1, block)):
            rows = min(block, count - start)
            columns = {}
            for name, dtype, offset in read:
                fh.seek(offset + start * dtype.itemsize)
                columns[name] = np.fromfile(fh, dtype=dtype, count=rows)
            entry, exit_ = columns["entry_code"], columns["exit_code"]
            bad = (entry > 5) | (exit_ > 5) | (entry == exit_)
            if bad.any():
                raise IncompatibleGridError(
                    f"{path}: record {start + int(np.argmax(bad))} has face codes outside 0..5 or entry equal to exit"
                )
            if where is not None:
                keep = where(_batch(box, columns))
                columns = {name: column[keep] for name, column in columns.items()}
            for name, column in columns.items():
                kept[name].append(column)
    columns = {
        name: parts[0] if len(parts) == 1 else np.concatenate([np.empty(0, _TRAJ_DTYPE[name]), *parts])
        for name, parts in kept.items()
    }
    return _batch(box, columns, meta={"source": "spill"})


def _batch(box: BoxDims, columns: Mapping[str, np.ndarray], meta: dict | None = None) -> TrajectoryBatch:
    """A batch of the columns read; a field not read is None."""
    return TrajectoryBatch(box, **{name: columns.get(name) for name in _TRAJ_DTYPE.names}, meta=meta or {})


def config_hash(config: Mapping) -> str:
    """Stable sha256 over the canonical JSON form of a configuration."""
    import hashlib  # only the stages that write a manifest pay for it

    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
