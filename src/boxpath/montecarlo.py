"""Vectorized Monte Carlo samplers for straight paths through a box.

Two samplers share one trajectory record format: `sample_rays` draws an
entry point uniform on a face and a random direction (component-uniform
by default, isotropic ball-rejection optionally) and propagates to the
exit face; `sample_chords` draws two independent uniform surface points,
redrawing the exit point while it lands on the entry face.

Reproducibility contract: a run of N paths is split over a fixed number
of counter-based Philox streams (`STREAM_COUNT`), each seeded by spawn
key; stream s draws rows offsets[s]:offsets[s + 1] of the run.
`for_each_stream` runs one task per stream on the worker pool, and every
sampling run goes through it.  A sampler called with `stream=s` returns
that stream's rows alone, and without it collects every stream's rows
in order.  The worker count controls thread parallelism only, so
outputs are bitwise identical for any `workers` value and a given seed.

Counts made from a run (histograms, face counts, sampler counters) are
integer sums over its streams, so a caller that bins each stream inside
its task and drops the rows gets the same counts as one that bins the
collected batch, while holding O(workers x stream) rows instead of
O(N).  `JointBinning` holds the class-histogram tables for that, built
once per box and bin counts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import ALL_FACES, FACE_PAIRS, BoxDims, FaceId, IndexTriple, PairKind, canonical_classes, joint_frame

__all__ = [
    "DIRECTION_MODELS",
    "JointBinning",
    "JointHistogram",
    "STREAM_COUNT",
    "TrajectoryBatch",
    "canonical_histograms",
    "face_counts",
    "for_each_stream",
    "length_counts",
    "length_histogram",
    "merge_meta",
    "sample_chords",
    "sample_rays",
]

STREAM_COUNT = 64
DIRECTION_MODELS = ("cube-components", "ball-rejection")
# Integer sampler counters in `TrajectoryBatch.meta`; a run's value is the
# sum of its streams' values.
_COUNTERS = ("zero_component_redraws", "direction_draws", "pair_attempts", "pair_collisions")


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
    """Face codes drawn by area: how many cumulative probabilities lie at or below a uniform draw.

    This is `np.searchsorted(cum, u, side="right")`, counted in a few passes.
    The last face takes every draw past `cum[-2]`, so a total that rounds
    below 1 can never yield code 6.
    """
    u = rng.random(count)
    codes = np.zeros(count, dtype=np.uint8)
    for c in cum[:-1]:
        codes += c <= u
    return codes


def _surface_points(rng: np.random.Generator, box: BoxDims, codes: np.ndarray) -> np.ndarray:
    """Uniform points on the faces `codes`, one row per axis: shape (3, count)."""
    x = box.as_array()
    pts = rng.random((codes.size, 3)).T.copy()
    pts *= x[:, None]
    ax = codes >> 1
    pts[ax, np.arange(codes.size)] = (codes & 1) * x[ax]
    return pts


def _local_coords(codes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """The two in-plane coordinates, ascending by axis, of points (3, count) on faces `codes`."""
    ax = codes >> 1
    return np.stack([np.where(ax == 0, pts[1], pts[0]), np.where(ax == 2, pts[1], pts[2])], axis=1)


def _draw_directions(rng: np.random.Generator, count: int, model: str) -> tuple[np.ndarray, int]:
    """`count` directions, and the number of proposals drawn for them."""
    if model == "cube-components":
        return rng.uniform(-1.0, 1.0, (count, 3)), count
    if model == "ball-rejection":
        out = np.empty((count, 3))
        filled = draws = 0
        while filled < count:
            draw = rng.uniform(-1.0, 1.0, (count - filled, 3))
            draws += count - filled
            r2 = np.einsum("ij,ij->i", draw, draw)
            keep = (r2 <= 1.0) & (r2 > 0.0)
            k = int(keep.sum())
            out[filled : filled + k] = draw[keep]
            filled += k
        return out, draws
    raise ValueError(f"unknown direction model {model!r}; choose from {DIRECTION_MODELS}")


def _ray_rows(
    box: BoxDims,
    count: int,
    rng: np.random.Generator,
    model: str,
    entry_code: int | None,
) -> tuple[tuple[np.ndarray, ...], dict]:
    x = box.as_array()
    cum = np.cumsum(_face_probabilities(box))
    codes = (
        np.full(count, entry_code, dtype=np.uint8)
        if entry_code is not None
        else _draw_face_codes(rng, count, cum)
    )
    p0 = _surface_points(rng, box, codes)
    d, draws = _draw_directions(rng, count, model)
    ax = codes >> 1
    zero = np.flatnonzero(d[np.arange(count), ax] == 0.0)
    redraws = 0
    while zero.size:
        d[zero], more = _draw_directions(rng, zero.size, model)
        redraws += zero.size
        draws += more
        zero = zero[d[zero, ax[zero]] == 0.0]
    # Column by column: point the entry-axis component inward (+ from the
    # low face, - from the high one), then the distance to each axis's exit
    # plane, (X - p0) / d ahead, -p0 / d behind, inf when parallel.
    inward = 1.0 - 2.0 * (codes & 1)
    dt = np.stack([np.where(ax == a, np.copysign(d[:, a], inward), d[:, a]) for a in range(3)])
    t_face = np.full((3, count), np.inf)
    for a in range(3):
        np.divide(np.where(dt[a] > 0.0, x[a] - p0[a], -p0[a]), dt[a], out=t_face[a], where=dt[a] != 0.0)
    # the nearest plane, ties to the lower axis as argmin breaks them
    t0, t1, t2 = t_face
    exit_ax = (t1 < t0).astype(np.uint8)
    t = np.minimum(t0, t1)
    exit_ax[t2 < t] = 2
    np.minimum(t, t2, out=t)
    exit_code = (exit_ax << 1) | (np.choose(exit_ax, dt) > 0.0)
    p1 = t * dt
    p1 += p0
    np.clip(p1, 0.0, x[:, None], out=p1)
    # the signs flipped above do not change the squared norm
    length = t * np.sqrt(np.einsum("ij,ij->i", d, d))
    counters = {"zero_component_redraws": redraws}
    if model == "ball-rejection":
        counters["direction_draws"] = draws
    return (codes, _local_coords(codes, p0), exit_code, _local_coords(exit_code, p1), length), counters


def _chord_rows(
    box: BoxDims,
    count: int,
    rng: np.random.Generator,
    entry_code: int | None,
) -> tuple[tuple[np.ndarray, ...], dict]:
    cum = np.cumsum(_face_probabilities(box))
    e_code = (
        np.full(count, entry_code, dtype=np.uint8)
        if entry_code is not None
        else _draw_face_codes(rng, count, cum)
    )
    p0 = _surface_points(rng, box, e_code)
    x_code = _draw_face_codes(rng, count, cum)
    p1 = _surface_points(rng, box, x_code)
    attempts, collisions = count, 0
    bad = np.flatnonzero(e_code == x_code)
    while bad.size:
        attempts += bad.size
        collisions += bad.size
        codes = _draw_face_codes(rng, bad.size, cum)
        x_code[bad] = codes
        p1[:, bad] = _surface_points(rng, box, codes)
        bad = bad[e_code[bad] == codes]
    # rows of (dx, dy, dz), laid out as the norm's summation expects
    step = np.ascontiguousarray((p1 - p0).T)
    length = np.sqrt(np.einsum("ij,ij->i", step, step))
    rows = (e_code, _local_coords(e_code, p0), x_code, _local_coords(x_code, p1), length)
    return rows, {"pair_attempts": attempts, "pair_collisions": collisions}


def _stream_counts(total: int) -> list[int]:
    base, extra = divmod(total, STREAM_COUNT)
    return [base + (s < extra) for s in range(STREAM_COUNT)]


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))


def for_each_stream(count: int, workers: int, task: Callable[[int, slice], None]) -> None:
    """Call `task(stream, rows)` for each of the STREAM_COUNT streams of a run.

    `rows` is the stream's slice of the run's `count` paths (empty when
    the run has fewer paths than streams).  Tasks run on `workers`
    threads when above one, so at most `workers` streams are in flight at
    once.  Each task must write only its own output slot, or add integers
    into a shared total under a lock, so results do not depend on the
    worker count or on the order the tasks run in.
    """
    offsets = np.concatenate([[0], np.cumsum(_stream_counts(int(count)))]).tolist()

    def run(s: int) -> None:
        task(s, slice(offsets[s], offsets[s + 1]))

    if workers <= 1:
        for s in range(STREAM_COUNT):
            run(s)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(STREAM_COUNT)))


def merge_meta(metas: Sequence[dict]) -> dict:
    """A run's meta from its streams' metas: counters summed, rates recomputed."""
    meta = dict(metas[0])
    for key in _COUNTERS:
        if key in meta:
            meta[key] = sum(m[key] for m in metas)
    if "pair_attempts" in meta:
        attempts = meta["pair_attempts"]
        meta["collision_rate"] = meta["pair_collisions"] / attempts if attempts else 0.0
    return meta


def _stream_batch(box: BoxDims, count: int, seed: int, stream: int, draw, meta: dict) -> TrajectoryBatch:
    """Stream `stream`'s rows of a `count`-path run; `draw(rng, m)` draws m rows and their counters."""
    if not 0 <= stream < STREAM_COUNT:
        raise ValueError(f"stream must be in 0..{STREAM_COUNT - 1}, got {stream!r}")
    rows, counters = draw(_stream_rng(seed, stream), _stream_counts(int(count))[stream])
    return TrajectoryBatch(box, *rows, merge_meta([{**meta, **counters}]))


def _sample(box: BoxDims, count: int, seed: int, workers: int, stream: int | None, draw, meta: dict) -> TrajectoryBatch:
    """One stream's batch, or with `stream` None the run's streams collected in order."""
    if stream is not None:
        return _stream_batch(box, count, seed, stream, draw, meta)
    count = int(count)
    batch = TrajectoryBatch(
        box,
        np.empty(count, dtype=np.uint8),
        np.empty((count, 2)),
        np.empty(count, dtype=np.uint8),
        np.empty((count, 2)),
        np.empty(count),
    )
    metas: list[dict] = [{}] * STREAM_COUNT

    def task(s: int, rows: slice) -> None:
        part = _stream_batch(box, count, seed, s, draw, meta)
        batch.entry_code[rows] = part.entry_code
        batch.entry_ab[rows] = part.entry_ab
        batch.exit_code[rows] = part.exit_code
        batch.exit_ab[rows] = part.exit_ab
        batch.length[rows] = part.length
        metas[s] = part.meta

    for_each_stream(count, workers, task)
    batch.meta = merge_meta(metas)
    return batch


def sample_rays(
    box: BoxDims,
    count: int,
    seed: int,
    model: str = "cube-components",
    workers: int = 1,
    entry_face: FaceId | None = None,
    *,
    stream: int | None = None,
) -> TrajectoryBatch:
    """Sample paths from uniform face-entry points along random directions.

    The entry face is drawn with probability proportional to its area
    unless pinned by `entry_face`.  The direction's entry-axis component
    is forced inward (a zero component is redrawn); the exit is the first
    face plane hit.  `meta` counts the redraws, and for `ball-rejection`
    the direction proposals, whose acceptance rate is
    (count + zero_component_redraws) / direction_draws.  With `stream`,
    only that stream's rows of the `count`-path run are drawn, and
    `workers` is unused.
    """
    box = BoxDims.from_any(box)
    if model not in DIRECTION_MODELS:
        raise ValueError(f"unknown direction model {model!r}; choose from {DIRECTION_MODELS}")
    code = entry_face.code if entry_face else None
    meta = {"sampler": "rays", "model": model, "seed": int(seed), "streams": STREAM_COUNT, "entry_face": code}
    return _sample(box, count, seed, workers, stream, lambda rng, m: _ray_rows(box, m, rng, model, code), meta)


def sample_chords(
    box: BoxDims,
    count: int,
    seed: int,
    workers: int = 1,
    entry_face: FaceId | None = None,
    *,
    stream: int | None = None,
) -> TrajectoryBatch:
    """Sample chords between two independent uniform surface points.

    When the exit point lands on the entry face, only the exit point is
    redrawn, so the exit face given entry face f has probability
    P_exit / (1 - P_f).  The attempt statistics end up in `meta`; the
    collision rate equals the sum of squared face probabilities only when
    all faces have equal area.  With `entry_face` set, the entry point is
    pinned to that face.  `stream` is as in `sample_rays`.
    """
    box = BoxDims.from_any(box)
    code = entry_face.code if entry_face else None
    meta = {"sampler": "chords", "seed": int(seed), "streams": STREAM_COUNT, "entry_face": code}
    return _sample(box, count, seed, workers, stream, lambda rng, m: _chord_rows(box, m, rng, code), meta)


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


def class_bin_edges(
    box: BoxDims, cls_kind: PairKind, indices, n_bins: int, u_bins: int, v_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram edges over a class's canonical frame (`geometry.joint_frame`)."""
    domain, _ = joint_frame(BoxDims.from_any(box), cls_kind, IndexTriple(*indices))
    return tuple(np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(domain, (n_bins, u_bins, v_bins)))  # type: ignore[return-value]


class JointBinning:
    """The canonical class histograms' bins for one box and bin counts.

    Tables indexed by pair code (entry * 6 + exit; 36 for a row with a
    face code outside 0..5) give each pair's class, the exit-face columns
    of its canonical (u, v) and their mirroring; per-class tables hold the
    edges of `class_bin_edges`.  Each row gets one flat bin index and one
    `np.bincount` counts them.  Bin membership is exactly
    `np.histogramdd`'s over those edges: a bin is [e_i, e_i+1), the last
    one closed, and rows outside every bin count only in `total`.  Rows
    are binned by floor, then corrected against the edges, as
    `np.histogram` does for equal bins.
    """

    _CHUNK = 1 << 18  # rows binned per pass, which bounds the temporaries

    def __init__(self, box: BoxDims, n_bins: int, u_bins: int, v_bins: int):
        self.box = BoxDims.from_any(box)
        self.shape = (int(n_bins), int(u_bins), int(v_bins))
        self.classes = canonical_classes()
        self.edges = [class_bin_edges(self.box, c.kind, c.indices.as_tuple, *self.shape) for c in self.classes]
        slot = {c.label: s for s, c in enumerate(self.classes)}
        none = len(self.classes)
        self._cls = np.full(37, none, dtype=np.intp)
        self._col = np.zeros((2, 37), dtype=np.intp)
        self._mirror = np.zeros((2, 37), dtype=bool)
        self._dim = np.zeros((2, 37))
        for pair in FACE_PAIRS:
            code = pair.entry_face.code * 6 + pair.exit_face.code
            self._cls[code] = slot[pair.label]
            for c, (axis, col, mirror) in enumerate(pair.exit_frame):
                self._col[c, code], self._mirror[c, code], self._dim[c, code] = col, mirror, self.box.dim(axis)
        # Per axis, one row of edges per class plus a placeholder row for
        # rows of no class, flattened, and each row's first and last edge
        # and the floor's scale b / (hi - lo).
        rows = [np.vstack([e[a] for e in self.edges] + [np.linspace(0.0, 1.0, b + 1)]) for a, b in enumerate(self.shape)]
        self._edges = [r.ravel() for r in rows]
        self._lo = [r[:, 0].copy() for r in rows]
        self._hi = [r[:, -1].copy() for r in rows]
        self._scale = [b / (r[:, -1] - r[:, 0]) for b, r in zip(self.shape, rows)]

    def histograms(self, batch: TrajectoryBatch | None = None) -> dict[str, JointHistogram]:
        """The class histograms of `batch`, or empty ones to add counts into."""
        counts = np.zeros((len(self.classes), *self.shape), dtype=np.uint64)
        totals = np.zeros(len(self.classes), dtype=np.int64)
        if batch is not None:
            if batch.box != self.box:
                raise ValueError(f"batch box {batch.box} differs from the binning's box {self.box}")
            for lo in range(0, len(batch), self._CHUNK):
                rows = slice(lo, lo + self._CHUNK)
                c, t = self._count(batch.entry_code[rows], batch.exit_code[rows], batch.exit_ab[rows], batch.length[rows])
                counts += c
                totals += t
        return {
            cls.label: JointHistogram(cls.kind, cls.indices.as_tuple, *edges, counts=counts[s], total=int(totals[s]))
            for s, (cls, edges) in enumerate(zip(self.classes, self.edges))
        }

    def _count(self, entry_code, exit_code, exit_ab, length) -> tuple[np.ndarray, np.ndarray]:
        none = len(self.classes)
        valid = (entry_code < 6) & (exit_code < 6)
        code = np.where(valid, entry_code.astype(np.intp) * 6 + exit_code, 36)
        cls = self._cls.take(code)
        flat = cls.copy()
        inside = cls < none
        for axis, b in enumerate(self.shape):
            x = length if axis == 0 else self._canonical(axis - 1, code, exit_ab)
            lo, hi, scale = self._lo[axis].take(cls), self._hi[axis].take(cls), self._scale[axis].take(cls)
            idx, ok = _bins(x, lo, hi, scale, self._edges[axis], cls * (b + 1), b)
            flat *= b
            flat += idx
            inside &= ok
        size = none * int(np.prod(self.shape))
        flat[~inside] = size
        counts = np.bincount(flat, minlength=size + 1)[:size].reshape(none, *self.shape)
        return counts.astype(np.uint64), np.bincount(cls, minlength=none + 1)[:none]

    def _canonical(self, c: int, code: np.ndarray, exit_ab: np.ndarray) -> np.ndarray:
        """Canonical exit coordinate c (0: u, 1: v), as `exit_local_to_canonical` gives it."""
        a = np.where(self._col[c].take(code) == 0, exit_ab[:, 0], exit_ab[:, 1])
        return np.where(self._mirror[c].take(code), self._dim[c].take(code) - a, a)


def _bins(x, lo, hi, scale, edges: np.ndarray, start, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Each value's bin among b equal bins, and whether it lies in one.

    The bins' edges are edges[start : start + b + 1], running from lo to hi
    (scalars, or one per value, as `start` is), and scale is b / (hi - lo).
    A bin is [e_i, e_i+1), the last one closed, as `np.histogram` has
    them: the floor of the scaled offset is corrected by one against the
    edges.
    """
    inside = (x >= lo) & (x <= hi)
    guess = (x - lo) * scale
    np.copyto(guess, 0.0, where=~inside)  # NaN or far-out values would not cast
    idx = np.minimum(guess.astype(np.intp), b - 1)
    at = idx + start
    idx -= x < edges.take(at)
    idx += (x >= edges.take(at + 1)) & (idx != b - 1)
    return idx, inside


def canonical_histograms(
    batch: TrajectoryBatch,
    n_bins: int = 8,
    u_bins: int = 8,
    v_bins: int = 8,
    *,
    binning: JointBinning | None = None,
) -> dict[str, JointHistogram]:
    """Pool the 30 ordered face pairs into the 9 canonical classes.

    Exit locations are mapped through each pair's reflection onto the
    canonical frame before binning.  A `binning` built once serves many
    batches of its box, and its bin counts replace the three given here.
    """
    return (binning or JointBinning(batch.box, n_bins, u_bins, v_bins)).histograms(batch)


def length_counts(
    batch: TrajectoryBatch, bins: int = 128, lo: float = 0.0, hi: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Path-length counts over all entry faces, then per entry axis 1..3.

    Returns (edges, counts) with counts of shape (4, bins): row 0 is
    `np.histogram(batch.length, bins, range=(lo, hi))`, row a that of the
    rows entering through a face normal to axis a.  One `np.bincount` over
    (entry axis, bin) makes all four rows.
    """
    if hi is None:
        hi = batch.box.diagonal
    edges = np.histogram_bin_edges(np.empty(0), bins, range=(lo, hi))
    lo, hi = edges[0], edges[-1]
    idx, inside = _bins(batch.length, lo, hi, bins / (hi - lo), edges, 0, bins)
    # entry axis 0..2, and 3 for face codes outside 0..5
    idx += np.minimum(batch.entry_code >> 1, 3).astype(np.intp) * bins
    idx[~inside] = 4 * bins
    by_axis = np.bincount(idx, minlength=4 * bins + 1)[: 4 * bins].reshape(4, bins)
    return edges, np.vstack([by_axis.sum(axis=0), by_axis[:3]]).astype(np.uint64)


def length_histogram(
    batch: TrajectoryBatch,
    bins: int = 128,
    lo: float = 0.0,
    hi: float | None = None,
    entry_axis: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram path lengths, optionally only for one entry axis (1..3).

    Returns (edges, counts), as `np.histogram` bins them; a row of
    `length_counts`.
    """
    if entry_axis not in (None, 1, 2, 3):
        raise ValueError(f"entry_axis must be None or 1..3, got {entry_axis!r}")
    edges, counts = length_counts(batch, bins, lo, hi)
    return edges, counts[entry_axis or 0]


def face_counts(batch: TrajectoryBatch) -> tuple[np.ndarray, np.ndarray]:
    """Entry and exit sample counts per face code."""
    return (
        np.bincount(batch.entry_code, minlength=6),
        np.bincount(batch.exit_code, minlength=6),
    )
