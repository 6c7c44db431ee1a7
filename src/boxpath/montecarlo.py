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

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

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
_T = TypeVar("_T")  # a stream task's result


@dataclass
class TrajectoryBatch:
    """Struct-of-arrays container for sampled paths.

    `entry_ab` / `exit_ab` hold local face coordinates ordered by the
    face's ascending in-plane axes.  A batch read from a spill with
    `fields` holds None for each field it did not read.
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


def for_each_stream(count: int, workers: int, task: Callable[[int, slice], _T]) -> list[_T]:
    """Call `task(stream, rows)` for each of the STREAM_COUNT streams of a run; their results in stream order.

    `rows` is the stream's slice of the run's `count` paths (empty when
    the run has fewer paths than streams).  Tasks run on `workers`
    threads when above one, so at most `workers` streams are in flight at
    once.  Besides returning its result, each task may write only its own
    rows, or add integers into a shared total under a lock, so results do
    not depend on the worker count or on the order the tasks run in.
    """
    offsets = np.concatenate([[0], np.cumsum(_stream_counts(int(count)))]).tolist()

    def run(s: int) -> _T:
        return task(s, slice(offsets[s], offsets[s + 1]))

    if workers <= 1:
        return [run(s) for s in range(STREAM_COUNT)]
    from concurrent.futures import ThreadPoolExecutor  # only a run on several threads pays for it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(STREAM_COUNT)))


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

    def task(s: int, rows: slice) -> dict:
        part = _stream_batch(box, count, seed, s, draw, meta)
        batch.entry_code[rows] = part.entry_code
        batch.entry_ab[rows] = part.entry_ab
        batch.exit_code[rows] = part.exit_code
        batch.exit_ab[rows] = part.exit_ab
        batch.length[rows] = part.length
        return part.meta

    batch.meta = merge_meta(for_each_stream(count, workers, task))
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
    face code outside 0..5) give each pair's class, which exit-face column
    its canonical u is read from (v is the other one), and each axis's
    scaled offset g = A + B * x, mirroring folded in; per-class tables
    hold the edges of `class_bin_edges`.  Each row gets one flat bin index
    in its class's block of bins padded by one on each side of every axis,
    and one `np.bincount` counts them: a class's total is its block's sum,
    its histogram the block's inside.  Bin membership is exactly
    `np.histogramdd`'s over those edges: a bin is [e_i, e_i+1), the last
    one closed, and rows outside every bin count only in `total` (see
    `_bins`).
    """

    _CHUNK = 1 << 18  # rows binned per pass, which bounds the temporaries

    def __init__(self, box: BoxDims, n_bins: int, u_bins: int, v_bins: int):
        self.box = BoxDims.from_any(box)
        self.shape = (int(n_bins), int(u_bins), int(v_bins))
        self.classes = canonical_classes()
        self.edges = [class_bin_edges(self.box, c.kind, c.indices.as_tuple, *self.shape) for c in self.classes]
        slot = {c.label: s for s, c in enumerate(self.classes)}
        none = len(self.classes)
        # Per axis, one row of edges per class plus a placeholder row for
        # rows of no class, and each row's floor offset and scale.
        self._edges = [np.vstack([e[a] for e in self.edges] + [np.linspace(0.0, 1.0, b + 1)]) for a, b in enumerate(self.shape)]
        lo = [r[:, 0] for r in self._edges]
        scale = [b / (r[:, -1] - r[:, 0]) for b, r in zip(self.shape, self._edges)]
        self._tol = [_near_tol(r, b) for r, b in zip(self._edges, self.shape)]
        self._cls = np.full(37, none, dtype=np.intp)
        self._swap = np.zeros(37, dtype=bool)
        self._mirror = np.zeros((2, 37), dtype=bool)
        self._dim = np.zeros((2, 37))
        for pair in FACE_PAIRS:
            code = pair.entry_face.code * 6 + pair.exit_face.code
            self._cls[code] = slot[pair.label]
            (u_axis, u_col, u_mirror), (v_axis, v_col, v_mirror) = pair.exit_frame
            self._swap[code] = u_col == 1
            self._mirror[:, code] = u_mirror, v_mirror
            self._dim[:, code] = self.box.dim(u_axis), self.box.dim(v_axis)
        # g = A + B x over each pair's exit column x, X - x where mirrored;
        # the length axis reads the length itself.
        self._a = [(1.0 - lo[0] * scale[0]).take(self._cls)]
        self._b = [scale[0].take(self._cls)]
        for c in (0, 1):
            s = scale[c + 1].take(self._cls)
            self._a.append(1.0 + (np.where(self._mirror[c], self._dim[c], 0.0) - lo[c + 1].take(self._cls)) * s)
            self._b.append(np.where(self._mirror[c], -s, s))
        self._base = self._cls * (self.shape[0] + 2)

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
        ab0, ab1 = np.ascontiguousarray(exit_ab.T)
        swap = self._swap.take(code)
        columns = (length, np.where(swap, ab1, ab0), np.where(swap, ab0, ab1))
        flat = self._base.take(code)
        for axis, (x, b) in enumerate(zip(columns, self.shape)):

            def near_values(rows: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                pair = code.take(rows)
                value = x.take(rows)
                if axis:  # the canonical coordinate, as `exit_local_to_canonical` gives it
                    value = np.where(self._mirror[axis - 1].take(pair), self._dim[axis - 1].take(pair) - value, value)
                return value, self._edges[axis][self._cls.take(pair), k - 1]

            g = self._b[axis].take(code)
            g *= x
            g += self._a[axis].take(code)
            if axis:
                flat *= b + 2
            flat += _bins(g, b, self._tol[axis], near_values)
        n, u, v = (b + 2 for b in self.shape)
        padded = np.bincount(flat, minlength=(none + 1) * n * u * v)[: none * n * u * v].reshape(none, n, u, v)
        return padded[:, 1:-1, 1:-1, 1:-1].astype(np.uint64), padded.sum(axis=(1, 2, 3))


def _near_tol(edges: np.ndarray, b: int) -> float:
    """How close to a bin boundary a scaled offset must lie for `_bins` to check it against the edges.

    `edges` holds rows of b + 1 equal-bin edges.  A scaled offset
    (x - lo) * b / (hi - lo) + 1 computed in floating point, the edges and
    a mirrored X - x are each off by about an ulp of (|lo| + |hi|) in scaled
    units.  The tolerance is 4 of those, but at least 1e-6; it stays below
    0.25, so each checked value lies next to one boundary only.
    """
    scale = b / (edges[:, -1] - edges[:, 0])
    ulps = 4 * np.finfo(float).eps * float(np.max((np.abs(edges[:, 0]) + np.abs(edges[:, -1])) * scale + b + 2))
    return min(0.25, max(1e-6, ulps))


def _bins(g: np.ndarray, b: int, tol: float, near_values) -> np.ndarray:
    """Each value's bin among b equal bins, numbered 1..b, with 0 below them and b + 1 above.

    `g` (overwritten) is each value's scaled offset (x - lo) * b / (hi - lo) + 1,
    known to within `tol`, so a value whose g lies farther than `tol` from
    every integer is in bin floor(g).  Only the values within `tol` of an
    integer k are compared with the edge between bins k - 1 and k:
    `near_values(rows, k)` gives those rows' exact values and that edge,
    e_{k-1}.  A bin is [e_i, e_i+1), the last one closed, as
    `np.histogramdd` has them, and NaN lies outside every bin.
    """
    np.fmax(g, 0.5, out=g)  # also NaN to 0.5
    np.fmin(g, b + 1.5, out=g)
    idx = g.astype(np.intp)
    frac = g - idx
    frac -= 0.5
    near = np.flatnonzero(np.abs(frac, out=frac) > 0.5 - tol)
    if near.size:
        k = np.rint(g.take(near)).astype(np.intp)
        x, e = near_values(near, k)
        idx[near] = k - ((x < e) | ((k == b + 1) & (x == e)))
    return idx


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
    scale = bins / (hi - lo)
    g = batch.length * scale
    g += 1.0 - lo * scale
    idx = _bins(g, bins, _near_tol(edges[None], bins), lambda rows, k: (batch.length.take(rows), edges.take(k - 1)))
    # entry axis 0..2, and 3 for face codes outside 0..5; bins 0 and
    # bins + 1 of each axis lie outside the range
    idx += np.minimum(batch.entry_code >> 1, 3).astype(np.intp) * (bins + 2)
    by_axis = np.bincount(idx, minlength=4 * (bins + 2)).reshape(4, bins + 2)[:, 1:-1]
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
