"""Vectorized Monte Carlo samplers for straight paths through a box.

Two samplers share one trajectory record format: `sample_rays` draws an
entry point uniform on a face and a random direction (component-uniform
by default, isotropic ball-rejection optionally) and propagates to the
exit face; `sample_chords` draws two independent uniform surface points,
redrawing the exit point while it lands on the entry face.

Reproducibility contract: work is split over a fixed number of
counter-based Philox streams (`STREAM_COUNT`), each seeded by spawn key,
and results are concatenated in stream order.  The worker count controls
thread parallelism only, so outputs are bitwise identical for any
`workers` value and a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ALL_FACES, FACE_PAIRS, BoxDims, FaceId, PairKind, canonical_classes
from .pool import run_each

__all__ = [
    "DIRECTION_MODELS",
    "JointHistogram",
    "STREAM_COUNT",
    "TrajectoryBatch",
    "canonical_histograms",
    "face_counts",
    "length_histogram",
    "sample_chords",
    "sample_rays",
]

STREAM_COUNT = 64
DIRECTION_MODELS = ("cube-components", "ball-rejection")


@dataclass
class TrajectoryBatch:
    """Struct-of-arrays container for sampled paths.

    `entry_ab` / `exit_ab` hold local face coordinates ordered by the
    face's ascending in-plane axes.
    """

    box: BoxDims
    entry_code: np.ndarray
    entry_ab: np.ndarray
    exit_code: np.ndarray
    exit_ab: np.ndarray
    length: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.entry_code.size


def _face_probabilities(box: BoxDims) -> np.ndarray:
    return np.array([f.area(box) for f in ALL_FACES]) / box.surface_area


def _draw_face_codes(rng: np.random.Generator, count: int, cum: np.ndarray) -> np.ndarray:
    return np.searchsorted(cum, rng.random(count), side="right").astype(np.uint8)


def _surface_points(rng: np.random.Generator, box: BoxDims, codes: np.ndarray) -> np.ndarray:
    x = box.as_array()
    pts = rng.random((codes.size, 3)) * x[None, :]
    ax = codes >> 1
    pts[np.arange(codes.size), ax] = (codes & 1) * x[ax]
    return pts


# The two in-plane axes (0-based, ascending) of the faces normal to each axis.
_PLANE_AXES = np.array([[1, 2], [0, 2], [0, 1]])


def _local_coords(codes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    return np.take_along_axis(pts, _PLANE_AXES[codes >> 1], axis=1)


def _draw_directions(rng: np.random.Generator, count: int, model: str) -> np.ndarray:
    if model == "cube-components":
        return rng.uniform(-1.0, 1.0, (count, 3))
    if model == "ball-rejection":
        out = np.empty((count, 3))
        filled = 0
        while filled < count:
            draw = rng.uniform(-1.0, 1.0, (count - filled, 3))
            r2 = np.einsum("ij,ij->i", draw, draw)
            keep = (r2 <= 1.0) & (r2 > 0.0)
            k = int(keep.sum())
            out[filled : filled + k] = draw[keep]
            filled += k
        return out
    raise ValueError(f"unknown direction model {model!r}; choose from {DIRECTION_MODELS}")


def _rays_stream(
    box: BoxDims,
    count: int,
    rng: np.random.Generator,
    model: str,
    entry_code: int | None,
) -> tuple[np.ndarray, ...]:
    x = box.as_array()
    cum = np.cumsum(_face_probabilities(box))
    codes = (
        np.full(count, entry_code, dtype=np.uint8)
        if entry_code is not None
        else _draw_face_codes(rng, count, cum)
    )
    p0 = _surface_points(rng, box, codes)
    d = _draw_directions(rng, count, model)
    ax = codes >> 1
    rows = np.arange(count)
    inward = 1.0 - 2.0 * (codes & 1)
    while True:
        zero = d[rows, ax] == 0.0
        if not zero.any():
            break
        d[zero] = _draw_directions(rng, int(zero.sum()), model)
    d[rows, ax] = inward * np.abs(d[rows, ax])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = np.where(d > 0.0, (x[None, :] - p0) / d, np.inf)
        t_lo = np.where(d < 0.0, -p0 / d, np.inf)
    t_face = np.minimum(t_hi, t_lo)
    t = t_face.min(axis=1)
    exit_ax = t_face.argmin(axis=1)
    exit_side = (d[rows, exit_ax] > 0.0).astype(np.uint8)
    exit_code = (exit_ax.astype(np.uint8) << 1) | exit_side
    p1 = np.clip(p0 + t[:, None] * d, 0.0, x[None, :])
    length = t * np.sqrt(np.einsum("ij,ij->i", d, d))
    return codes, _local_coords(codes, p0), exit_code, _local_coords(exit_code, p1), length


def _stream_counts(total: int) -> list[int]:
    base, extra = divmod(total, STREAM_COUNT)
    return [base + (s < extra) for s in range(STREAM_COUNT)]


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def sample_rays(
    box: BoxDims,
    count: int,
    seed: int,
    model: str = "cube-components",
    workers: int = 1,
    entry_face: FaceId | None = None,
) -> TrajectoryBatch:
    """Sample paths from uniform face-entry points along random directions.

    The entry face is drawn with probability proportional to its area
    unless pinned by `entry_face`.  The direction's entry-axis component
    is forced inward; the exit is the first face plane hit.
    """
    box = BoxDims.from_any(box)
    if model not in DIRECTION_MODELS:
        raise ValueError(f"unknown direction model {model!r}; choose from {DIRECTION_MODELS}")
    counts = _stream_counts(int(count))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    entry_code = np.empty(count, dtype=np.uint8)
    entry_ab = np.empty((count, 2))
    exit_code = np.empty(count, dtype=np.uint8)
    exit_ab = np.empty((count, 2))
    length = np.empty(count)

    def task(stream: int) -> None:
        rng = _stream_rng(seed, stream)
        sl = slice(offsets[stream], offsets[stream + 1])
        parts = _rays_stream(box, counts[stream], rng, model, entry_face.code if entry_face else None)
        entry_code[sl], entry_ab[sl], exit_code[sl], exit_ab[sl], length[sl] = parts

    run_each(task, [s for s, c in enumerate(counts) if c > 0], workers)
    meta = {
        "sampler": "rays",
        "model": model,
        "seed": int(seed),
        "streams": STREAM_COUNT,
        "entry_face": entry_face.code if entry_face else None,
    }
    return TrajectoryBatch(box, entry_code, entry_ab, exit_code, exit_ab, length, meta)


def sample_chords(
    box: BoxDims,
    count: int,
    seed: int,
    workers: int = 1,
    entry_face: FaceId | None = None,
) -> TrajectoryBatch:
    """Sample chords between two independent uniform surface points.

    When the exit point lands on the entry face, only the exit point is
    redrawn, so the exit face given entry face f has probability
    P_exit / (1 - P_f).  The attempt statistics end up in `meta`; the
    collision rate equals the sum of squared face probabilities only when
    all faces have equal area.  With `entry_face` set, the entry point is
    pinned to that face.
    """
    box = BoxDims.from_any(box)
    counts = _stream_counts(int(count))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    entry_code = np.empty(count, dtype=np.uint8)
    entry_ab = np.empty((count, 2))
    exit_code = np.empty(count, dtype=np.uint8)
    exit_ab = np.empty((count, 2))
    length = np.empty(count)
    stats = np.zeros((STREAM_COUNT, 2), dtype=np.int64)  # attempts, collisions

    def task(stream: int) -> None:
        rng = _stream_rng(seed, stream)
        m = counts[stream]
        cum = np.cumsum(_face_probabilities(box))
        e_code = (
            np.full(m, entry_face.code, dtype=np.uint8)
            if entry_face is not None
            else _draw_face_codes(rng, m, cum)
        )
        p0 = _surface_points(rng, box, e_code)
        x_code = _draw_face_codes(rng, m, cum)
        p1 = _surface_points(rng, box, x_code)
        attempts, collisions = m, 0
        bad = e_code == x_code
        while bad.any():
            nbad = int(bad.sum())
            attempts += nbad
            collisions += nbad
            x_code[bad] = _draw_face_codes(rng, nbad, cum)
            p1[bad] = _surface_points(rng, box, x_code[bad])
            bad[bad] = e_code[bad] == x_code[bad]
        sl = slice(offsets[stream], offsets[stream + 1])
        entry_code[sl] = e_code
        entry_ab[sl] = _local_coords(e_code, p0)
        exit_code[sl] = x_code
        exit_ab[sl] = _local_coords(x_code, p1)
        length[sl] = np.sqrt(np.einsum("ij,ij->i", p1 - p0, p1 - p0))
        stats[stream] = (attempts, collisions)

    run_each(task, [s for s, c in enumerate(counts) if c > 0], workers)
    attempts, collisions = (int(v) for v in stats.sum(axis=0))
    meta = {
        "sampler": "chords",
        "seed": int(seed),
        "streams": STREAM_COUNT,
        "entry_face": entry_face.code if entry_face else None,
        "pair_attempts": attempts,
        "pair_collisions": collisions,
        "collision_rate": collisions / attempts if attempts else 0.0,
    }
    return TrajectoryBatch(box, entry_code, entry_ab, exit_code, exit_ab, length, meta)


# ---------------------------------------------------------------------------
# Histograms.


@dataclass
class JointHistogram:
    """Counts of (length, canonical exit location) for one face-pair class."""

    kind: PairKind
    indices: tuple[int, int, int]
    n_edges: np.ndarray
    u_edges: np.ndarray
    v_edges: np.ndarray
    counts: np.ndarray
    total: int

    @property
    def in_range(self) -> int:
        return int(self.counts.sum())

    @property
    def overflow(self) -> int:
        return self.total - self.in_range

    def probabilities(self) -> np.ndarray:
        """Bin probabilities over in-range samples."""
        n = self.in_range
        if n == 0:
            raise ValueError("histogram is empty")
        return self.counts / n

    def densities(self) -> np.ndarray:
        """Per-bin empirical density values (probability / bin volume)."""
        widths = (
            np.diff(self.n_edges)[:, None, None]
            * np.diff(self.u_edges)[None, :, None]
            * np.diff(self.v_edges)[None, None, :]
        )
        return self.probabilities() / widths


def class_bin_edges(
    box: BoxDims, cls_kind: PairKind, indices, n_bins: int, u_bins: int, v_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram edges matching a class's canonical support."""
    box = BoxDims.from_any(box)
    i, j, k = indices
    n_lo = box.dim(j) if cls_kind is PairKind.OPPOSING else 0.0
    n_edges = np.linspace(n_lo, box.diagonal, n_bins + 1)
    u_edges = np.linspace(0.0, box.dim(i), u_bins + 1)
    v_hi = box.dim(k) if cls_kind is PairKind.OPPOSING else box.dim(j)
    v_edges = np.linspace(0.0, v_hi, v_bins + 1)
    return n_edges, u_edges, v_edges


def canonical_histograms(
    batch: TrajectoryBatch,
    n_bins: int = 8,
    u_bins: int = 8,
    v_bins: int = 8,
) -> dict[str, JointHistogram]:
    """Pool the 30 ordered face pairs into the 9 canonical classes.

    Exit locations are mapped through each pair's reflection onto the
    canonical frame before binning.
    """
    box = batch.box
    hists: dict[str, JointHistogram] = {}
    for cls in canonical_classes():
        edges = class_bin_edges(box, cls.kind, cls.indices.as_tuple, n_bins, u_bins, v_bins)
        hists[cls.label] = JointHistogram(
            cls.kind,
            cls.indices.as_tuple,
            *edges,
            counts=np.zeros((n_bins, u_bins, v_bins), dtype=np.uint64),
            total=0,
        )
    # One pair code per row, entry * 6 + exit, in int16 so that no face byte
    # wraps; rows with a face code outside 0..5 get code 36, which no pair
    # bins.  A stable sort of 16-bit keys is a radix sort.
    valid = (batch.entry_code < 6) & (batch.exit_code < 6)
    code = np.where(valid, batch.entry_code.astype(np.int16) * 6 + batch.exit_code, 36).astype(np.int16)
    order = np.argsort(code, kind="stable")
    starts = np.searchsorted(code[order], np.arange(37))
    for pair in FACE_PAIRS:
        c = pair.entry_face.code * 6 + pair.exit_face.code
        rows = order[starts[c] : starts[c + 1]]
        if rows.size == 0:
            continue
        hist = hists[pair.label]
        uv = pair.exit_local_to_canonical(box, batch.exit_ab[rows])
        sample = np.column_stack([batch.length[rows], uv])
        h, _ = np.histogramdd(sample, bins=(hist.n_edges, hist.u_edges, hist.v_edges))
        hist.counts += h.astype(np.uint64)
        hist.total += rows.size
    return hists


def length_histogram(
    batch: TrajectoryBatch,
    bins: int = 128,
    lo: float = 0.0,
    hi: float | None = None,
    entry_axis: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram path lengths, optionally only for one entry axis.

    Returns (edges, counts).
    """
    if hi is None:
        hi = batch.box.diagonal
    values = batch.length
    if entry_axis is not None:
        values = values[(batch.entry_code >> 1) == entry_axis - 1]
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return edges, counts.astype(np.uint64)


def face_counts(batch: TrajectoryBatch) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit sample counts per face code."""
    return (
        np.bincount(batch.entry_code, minlength=6),
        np.bincount(batch.exit_code, minlength=6),
    )
