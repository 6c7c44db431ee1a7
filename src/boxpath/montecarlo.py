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

A stream draws phase by phase (face codes, points, directions, redraws),
each phase one raw Philox draw over the whole stream that gives the very
doubles `Generator.random` and `uniform` would (`_uniform`).  The kernels
then work through the stream in row blocks of `_BLOCK`, on arrays stored
axis by axis, with gathers and branch-free arithmetic in place of selects
on random masks.

Counts made from a run (histograms, face counts, sampler counters) are
integer sums over its streams, so a caller that bins each stream inside
its task and drops the rows gets the same counts as one that bins the
collected batch, while holding O(workers x stream) rows instead of
O(N).  `JointBinning` and `LengthBinning` hold the bin tables for that,
built once per run, and count a batch with one `np.bincount` each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .geometry import ALL_FACES, FACE_PAIRS, BoxDims, FaceId, IndexTriple, PairKind, canonical_classes, entry_probability, joint_frame

__all__ = [
    "DIRECTION_MODELS",
    "JointBinning",
    "JointHistogram",
    "LengthBinning",
    "STREAM_COUNT",
    "TrajectoryBatch",
    "canonical_histograms",
    "for_each_stream",
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


def _uniform(rng: np.random.Generator, count: int, signed: bool = False, axes: int = 0) -> np.ndarray:
    """Doubles from one raw draw: bitwise `rng.random(count)`, or `rng.uniform(-1.0, 1.0, count)` if `signed`.

    `Generator.random` makes each 64-bit output r into (r >> 11) * 2**-53,
    and `uniform(-1, 1)` into -1 + 2 * that, where the doubling is exact, so
    one multiply (and for `signed` one subtract) of the raw outputs gives
    the same doubles.  Raw draws and `Generator` calls take the same outputs
    in turn from one stream.  With `axes` > 0 the draw is `rng.random((count,
    axes))`'s rows (count, axes), stored axis by axis: the transpose of a
    C-contiguous (axes, count) array, which the kernels slice by axis.
    """
    raw = rng.bit_generator.random_raw(count * max(axes, 1))
    raw >>= 11
    scale = 2.0**-52 if signed else 2.0**-53
    if axes:
        out = np.multiply(raw.reshape(count, axes).T, scale, order="C").T
    else:
        out = np.multiply(raw, scale, out=raw.view(np.float64))
    if signed:
        out -= 1.0
    return out


def _face_codes(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Face codes by area from uniforms `u`: how many cumulative probabilities lie at or below each.

    This is `np.searchsorted(cum, u, side="right")`, as one comparison with
    each of the first five cumulative probabilities, summed.  The last face
    takes every draw past `cum[-2]`, so a total that rounds below 1 can
    never yield code 6.
    """
    return (cum[:-1, None] <= u).sum(axis=0, dtype=np.uint8)


def _entry_points(rng: np.random.Generator, count: int, cum: np.ndarray, entry_code: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Path ends: face codes, all `entry_code` or drawn by area from `cum`, and a `_surface_points` point on each."""
    codes = np.full(count, entry_code, dtype=np.uint8) if entry_code is not None else _face_codes(_uniform(rng, count), cum)
    return codes, _surface_points(rng, codes)


def _surface_points(rng: np.random.Generator, codes: np.ndarray) -> np.ndarray:
    """Uniform points on the faces `codes` in box units, one row each: shape (count, 3), stored axis by axis.

    Column a of a row is a uniform on [0, 1) to be scaled by X_a, except
    on the face's own axis, where it is the face's side, 0 or 1.
    """
    pts = _uniform(rng, codes.size, axes=3)
    pts.T.reshape(-1)[_face_axis_index(codes)] = codes & 1
    return pts


def _face_axis_index(codes: np.ndarray) -> np.ndarray:
    """Flat index, into a (3, count) array, of each row's entry on its face's own axis."""
    index = (codes >> 1).astype(np.intp)
    index *= codes.size
    index += np.arange(codes.size)
    return index


def _draw_directions(rng: np.random.Generator, count: int, model: str) -> tuple[np.ndarray, int]:
    """`count` directions, one row each and stored axis by axis, and the number of proposals drawn for them.
    `model` is one of `DIRECTION_MODELS`: `sample_rays` refuses any other."""
    if model == "cube-components":
        return _uniform(rng, count, signed=True, axes=3), count
    out = np.empty((3, count)).T  # ball-rejection
    filled = draws = 0
    while filled < count:
        draw = _uniform(rng, count - filled, signed=True, axes=3)
        draws += count - filled
        r2 = _squared_norm(draw.T.copy())
        keep = (r2 <= 1.0) & (r2 > 0.0)
        k = int(keep.sum())
        out[filled : filled + k] = draw[keep]
        filled += k
    return out, draws


def _squared_norm(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The squared norm of each column of `v` (3, n), which it overwrites: (v0^2 + v2^2) + v1^2,
    the order einsum sums rows of 3 in."""
    v *= v
    out = np.add(v[0], v[2], out=out)
    out += v[1]
    return out


# Rows of a stream that the kernels work on at a time: a block's few (3, rows)
# temporaries fit a core's 2 MB L2 cache, its numpy calls are amortised, and
# a cube stream of the benchmark (15 625 rows) is one block.
_BLOCK = 16384
# The two in-plane axes of each face, ascending, and the sign of its inward normal, by face code.
_PLANE = np.array([[1, 2], [1, 2], [0, 2], [0, 2], [0, 1], [0, 1]], dtype=np.intp)
_INWARD = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
# Row i of a block, twice: the row part of a flat index into a (3, count) array.
_ROWS = np.repeat(np.arange(_BLOCK), 2).reshape(_BLOCK, 2)
_PLANE.flags.writeable = _INWARD.flags.writeable = _ROWS.flags.writeable = False


def _blocks(count: int):
    """A stream's rows, `_BLOCK` at a time."""
    return (slice(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK))


def _local(src: np.ndarray, codes: np.ndarray, out: np.ndarray, start: int = 0) -> None:
    """Write into `out` (n, 2) the two in-plane coordinates, on its face `codes`, of each of rows
    start..start + n of `src` (3, count)."""
    index = (_PLANE * src.shape[1] + start).take(codes, axis=0)
    index += _ROWS[: codes.size]
    np.take(src, index, out=out, mode="clip")  # every index is in range; "clip" skips the check


def _ray_rows(
    box: BoxDims,
    count: int,
    rng: np.random.Generator,
    model: str,
    entry_code: int | None,
) -> tuple[tuple[np.ndarray, ...], dict]:
    x = box.as_array()
    codes, p0 = _entry_points(rng, count, np.cumsum([entry_probability(box, f) for f in ALL_FACES]), entry_code)
    p0 = p0.T
    d, draws = _draw_directions(rng, count, model)
    at = _face_axis_index(codes)
    normal = d.T.take(at)  # each direction's entry-axis component, redrawn while it is 0
    zero = np.flatnonzero(normal == 0.0)
    redraws = 0
    while zero.size:
        d[zero], more = _draw_directions(rng, zero.size, model)
        redraws += zero.size
        draws += more
        normal[zero] = d.T.take(at[zero])
        zero = zero[normal[zero] == 0.0]
    d = np.ascontiguousarray(d.T)
    # point the entry-axis component inward: + from the low face, - from the high one
    d.reshape(-1)[at] = np.copysign(normal, _INWARD.take(codes))
    del at, normal
    for a in range(3):
        p0[a] *= x[a]
    entry_ab, exit_ab = np.empty((count, 2)), np.empty((count, 2))
    exit_code, length = np.empty(count, dtype=np.uint8), np.empty(count)
    # a 0 component divides by 0 below, on purpose
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows in _blocks(count):
            p, dt = p0[:, rows], d[:, rows]
            _local(p0, codes[rows], entry_ab[rows], rows.start)
            # The distance to each axis's exit plane in units of the direction,
            # |X [d > 0] - p| / |d|: inf where the component is 0 (0 / 0 too).
            ahead = dt > 0.0
            t3 = np.empty(p.shape)
            for a in range(3):
                np.multiply(ahead[a], x[a], out=t3[a])
            t3 -= p
            t3 /= dt
            np.abs(t3, out=t3)
            np.fmin(t3, np.inf, out=t3)
            # the nearest plane, ties to the lower axis as argmin breaks them
            t0, t1, t2 = t3
            nearer = np.less(t1, t0).view(np.uint8)
            t = np.minimum(t0, t1)
            axis = np.less(t2, t).view(np.uint8)
            axis <<= 1
            np.maximum(axis, nearer, out=axis)
            np.minimum(t, t2, out=t)
            # The exit side: bit a of `up` says whether component a points to the
            # high plane, so bit `axis` gives the exit face's side.
            bits = ahead.view(np.uint8)
            up = bits[1] << 1
            up |= bits[0]
            up |= bits[2] << 2
            up >>= axis
            up &= 1
            code = exit_code[rows]
            np.left_shift(axis, 1, out=code)
            code |= up
            # The exit point, clipped onto the box.  It is never -0.0, so
            # maximum and minimum clip it as np.clip would.
            p1 = t3
            for a in range(3):
                np.multiply(dt[a], t, out=p1[a])
            p1 += p
            np.maximum(p1, 0.0, out=p1)
            for a in range(3):
                np.minimum(p1[a], x[a], out=p1[a])
            _local(p1, code, exit_ab[rows])
            # length: t |d|, the signs flipped above leaving the squared norm as it was
            out = _squared_norm(dt, out=length[rows])  # the last use of these rows of d
            np.sqrt(out, out=out)
            out *= t
    counters = {"zero_component_redraws": redraws}
    if model == "ball-rejection":
        counters["direction_draws"] = draws
    return (codes, entry_ab, exit_code, exit_ab, length), counters


def _chord_rows(
    box: BoxDims,
    count: int,
    rng: np.random.Generator,
    entry_code: int | None,
) -> tuple[tuple[np.ndarray, ...], dict]:
    x = box.as_array()
    cum = np.cumsum([entry_probability(box, f) for f in ALL_FACES])
    e_code, p0 = _entry_points(rng, count, cum, entry_code)
    x_code, p1 = _entry_points(rng, count, cum, None)
    attempts, collisions = count, 0
    bad = np.flatnonzero(e_code == x_code)
    while bad.size:
        attempts += bad.size
        collisions += bad.size
        x_code[bad], p1[bad] = _entry_points(rng, bad.size, cum, None)
        bad = bad[e_code[bad] == x_code[bad]]
    p0, p1 = p0.T, p1.T
    for a in range(3):
        p0[a] *= x[a]
        p1[a] *= x[a]
    entry_ab, exit_ab, length = np.empty((count, 2)), np.empty((count, 2)), np.empty(count)
    for rows in _blocks(count):
        _local(p0, e_code[rows], entry_ab[rows], rows.start)
        _local(p1, x_code[rows], exit_ab[rows], rows.start)
        out = _squared_norm(p1[:, rows] - p0[:, rows], out=length[rows])
        np.sqrt(out, out=out)
    rows = (e_code, entry_ab, x_code, exit_ab, length)
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


def class_bin_edges(
    box: BoxDims, cls_kind: PairKind, indices: IndexTriple, n_bins: int, u_bins: int, v_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram edges over a class's canonical frame (`geometry.joint_frame`)."""
    domain, _ = joint_frame(box, cls_kind, indices)
    return tuple(np.linspace(lo, hi, b + 1) for (lo, hi), b in zip(domain, (n_bins, u_bins, v_bins)))  # type: ignore[return-value]


class JointBinning:
    """The canonical class histograms' bins for one box and bin counts.

    A row's pair code is 7 * min(entry, 6) + min(exit, 6), so every face
    code past 5 reads as 6.  Tables indexed by pair code give each of the
    30 traversal pairs its class's block of bins, the exit-face columns its
    canonical u and v are read from, and the scaled offset g = A + B * x of
    its length, u and v, mirroring folded in.  A block is padded by one bin
    on each side of every axis; rows of no traversal pair go to a last,
    spare block.  `count` gives each row one flat bin index and counts a
    batch with one `np.bincount`; `histograms` takes each class's histogram
    from its block's inside and its total from the whole block.  Bin
    membership is exactly `np.histogramdd`'s over the edges of
    `class_bin_edges`: a bin is [e_i, e_i+1), the last one closed, and rows
    outside every bin count in no histogram but their class's total (see
    `_bins`).
    """

    _CHUNK = 1 << 18  # rows binned per pass, which bounds the temporaries

    def __init__(self, box: BoxDims, n_bins: int, u_bins: int, v_bins: int):
        self.box = box
        self.shape = tuple(_bin_count(name, b) for name, b in zip(("n_bins", "u_bins", "v_bins"), (n_bins, u_bins, v_bins)))
        self.classes = canonical_classes()
        self.edges = [class_bin_edges(self.box, c.kind, c.indices, *self.shape) for c in self.classes]
        self.count_shape = (len(self.classes) + 1, *(b + 2 for b in self.shape))  # of `count`'s counts
        self._top = np.array(self.shape) + 1  # each axis's last bin above the range
        slot = {c.label: s for s, c in enumerate(self.classes)}
        block = math.prod(self.count_shape[1:])
        # Per pair code: A and B of the scaled offsets of its length, u and v,
        # in fixed point (a code of no pair gets g = 1.5, never near an edge);
        # the exit column u is read from (v is the other one); the first flat
        # index of its block; and for u and v the edges padded with nan,
        # whether they are mirrored and the axis length.
        self._a = np.full((3, 49), 1.5)
        self._b = np.zeros((3, 49))
        self._u_col = np.zeros(49, dtype=np.intp)
        self._start = np.full(49, len(self.classes) * block)
        self._edge = np.full((3, 49, max(self.shape) + 1), np.nan)
        self._mirror = np.zeros((2, 49), dtype=bool)
        self._dim = np.zeros((2, 49))
        for pair in FACE_PAIRS:
            code = pair.entry_face.code * 7 + pair.exit_face.code
            cls = slot[pair.label]
            (u_axis, u_col, u_mirror), (v_axis, _, v_mirror) = pair.exit_frame
            self._u_col[code], self._start[code] = u_col, cls * block
            values = [(False, 0.0), (u_mirror, self.box.dim(u_axis)), (v_mirror, self.box.dim(v_axis))]
            for a, (mirror, dim) in enumerate(values):
                edges = self.edges[cls][a]
                scale = self.shape[a] / (edges[-1] - edges[0])
                self._a[a, code] = 1.0 + ((dim if mirror else 0.0) - edges[0]) * scale
                self._b[a, code] = -scale if mirror else scale
                self._edge[a, code, : edges.size] = edges
                if a:
                    self._mirror[a - 1, code], self._dim[a - 1, code] = mirror, dim
        self._a *= _ONE
        self._b *= _ONE
        self._tol = max(_near_tol(np.vstack([e[a] for e in self.edges]), b) for a, b in enumerate(self.shape))

    def count(self, batch: TrajectoryBatch) -> np.ndarray:
        """Counts of `batch` per class block and padded bin: shape `count_shape`, one `np.bincount` a chunk."""
        if batch.box != self.box:
            raise ValueError(f"batch box {batch.box} differs from the binning's box {self.box}")
        size = math.prod(self.count_shape)
        counts = None
        for lo in range(0, max(len(batch), 1), self._CHUNK):
            rows = slice(lo, lo + self._CHUNK)
            flat = self._flat(batch.entry_code[rows], batch.exit_code[rows], batch.exit_ab[rows], batch.length[rows])
            part = np.bincount(flat, minlength=size)
            counts = part if counts is None else counts + part
        return counts.reshape(self.count_shape)

    def _flat(self, entry_code, exit_code, exit_ab, length) -> np.ndarray:
        n = length.size
        code = _pair_codes(entry_code, exit_code).astype(np.intp)
        ab = exit_ab.ravel()
        # g = A + B x for the length, u and v, u and v read from their exit columns
        g = self._b.take(code, axis=1)
        g[0] *= length
        at = self._u_col.take(code)
        at += np.arange(0, 2 * n, 2)
        g[1] *= ab.take(at)
        at ^= 1
        g[2] *= ab.take(at)
        del at
        g += self._a.take(code, axis=1)

        def exact(at: np.ndarray, k: np.ndarray):
            a, row = np.divmod(at, n)  # axis 0 is the length, 1 and 2 are u and v
            pair, c = code.take(row), np.maximum(a - 1, 0)
            x = np.where(a == 0, length.take(row), ab.take(2 * row + (c ^ self._u_col.take(pair))))
            # the canonical coordinate, as `exit_local_to_canonical` gives it
            x = np.where((a > 0) & self._mirror[c, pair], self._dim[c, pair] - x, x)
            return x, self._edge[a, pair, k - 1], k == self._top.take(a)

        idx = _bins(g, self._top[:, None], self._tol, exact)
        del g
        _, u, v = self.count_shape[1:]
        flat = idx[0]
        flat *= u
        flat += idx[1]
        flat *= v
        flat += idx[2]
        flat += self._start.take(code)
        return flat

    def histograms(self, counts: np.ndarray) -> dict[str, JointHistogram]:
        """The class histograms of `count`'s counts, summed over any of a run's batches."""
        nb, ub, vb = self.shape
        blocks = counts[:-1]
        hists = blocks[:, 1 : nb + 1, 1 : ub + 1, 1 : vb + 1].astype(np.uint64)
        totals = blocks.sum(axis=(1, 2, 3))
        return {
            cls.label: JointHistogram(cls.kind, cls.indices.as_tuple, *edges, counts=hists[s], total=int(totals[s]))
            for s, (cls, edges) in enumerate(zip(self.classes, self.edges))
        }


def _bin_count(name: str, value) -> int:
    """`value` as a bin count: an integer of at least 1, not a bool, checked before any edge is built."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def _pair_codes(entry_code: np.ndarray, exit_code: np.ndarray) -> np.ndarray:
    """7 * min(entry, 6) + min(exit, 6) for each row: 0..48, uint8."""
    code = np.minimum(entry_code, 6)
    code *= 7
    code += np.minimum(exit_code, 6)
    return code


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


# `_bins` reads scaled offsets in fixed point: times 2**_FRAC, which is exact,
# and then truncated to integers, whose low _FRAC bits are the fraction.
_FRAC = 20
_ONE = float(1 << _FRAC)


def _bins(g: np.ndarray, top, tol: float, exact) -> np.ndarray:
    """Each value's bin, numbered 1..b among b equal bins, 0 below them and b + 1 and on above.

    `g` (overwritten) holds each value's scaled offset (x - lo) * b / (hi - lo) + 1
    times `_ONE`, known to within `tol` before the scaling, so a value whose
    offset lies farther than `tol` from every integer is in bin floor(offset),
    clipped to 0..top (one top for all of `g`, or one per row).  Only the values within `tol` of an integer k are
    compared with the edge between bins k - 1 and k: `exact(at, k)`, for
    their flat positions in `g`, gives their exact values x, that edge e_{k-1}
    and whether it is the last one.  A bin is [e_i, e_i+1), the last one
    closed, as `np.histogramdd` has them, and NaN lies outside every bin.
    """
    np.fmax(g, 0.5 * _ONE, out=g)  # also NaN to 0.5
    np.fmin(g, (top + 0.5) * _ONE, out=g)
    idx = g.astype(np.intp)
    # An offset within tol of k has its fixed point within `reach` of k * _ONE.
    reach = int(tol * _ONE) + 2
    frac = idx + reach
    frac &= (1 << _FRAC) - 1
    near = np.flatnonzero(frac < 2 * reach)
    k = (idx.ravel().take(near) + reach) >> _FRAC
    idx >>= _FRAC
    if near.size:
        x, e, last = exact(near, k)
        idx.ravel()[near] = k - ((x < e) | (last & (x == e)))
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
    binning = binning or JointBinning(batch.box, n_bins, u_bins, v_bins)
    return binning.histograms(binning.count(batch))


class LengthBinning:
    """`np.histogram`'s bins of path lengths over [lo, hi], built once for a run's batches.

    `count` counts a batch per pair code (see `JointBinning`) and bin, padded
    by one bin below and one above the range, with one `np.bincount`.
    `by_axis` makes the length counts of all entry faces and of each entry
    axis from those, and `face_counts` the entry and exit counts per face.
    """

    def __init__(self, bins: int, lo: float, hi: float):
        self.bins = _bin_count("bins", bins)
        self.edges = np.histogram_bin_edges(np.empty(0), self.bins, range=(lo, hi))
        lo, hi = self.edges[0], self.edges[-1]
        scale = self.bins / (hi - lo)
        self._scale, self._offset = scale * _ONE, (1.0 - lo * scale) * _ONE  # in fixed point
        self._tol = _near_tol(self.edges[None], self.bins)
        self.count_shape = (7, 7, self.bins + 2)  # of `count`'s counts: entry code, exit code, bin
        self._start = np.arange(49) * (self.bins + 2)  # each pair code's first bin

    def count(self, batch: TrajectoryBatch) -> np.ndarray:
        """Counts of `batch` per pair code and padded bin: shape `count_shape`."""
        b = self.bins
        g = batch.length * self._scale
        g += self._offset

        def exact(at: np.ndarray, k: np.ndarray):
            return batch.length.take(at), self.edges.take(k - 1), k == b + 1

        idx = _bins(g, b + 1, self._tol, exact)
        idx += self._start.take(_pair_codes(batch.entry_code, batch.exit_code))
        return np.bincount(idx, minlength=49 * (b + 2)).reshape(self.count_shape)

    @staticmethod
    def by_axis(counts: np.ndarray) -> np.ndarray:
        """The length counts of all entry faces, then of each entry axis 1..3, from `count`'s
        counts: shape (4, bins).  A row with an entry code outside 0..5 counts in the first only."""
        by_entry = counts[:, :, 1:-1].sum(axis=1)
        by_axis = by_entry[:6].reshape(3, 2, -1).sum(axis=1)
        return np.vstack([by_entry.sum(axis=0), by_axis]).astype(np.uint64)

    @staticmethod
    def face_counts(counts: np.ndarray) -> np.ndarray:
        """Entry and exit counts per face code, shape (2, 6), from `count`'s counts: rows with both codes in 0..5."""
        pairs = counts[:6, :6].sum(axis=2)
        return np.stack([pairs.sum(axis=1), pairs.sum(axis=0)])


def length_histogram(
    batch: TrajectoryBatch,
    bins: int = 128,
    lo: float = 0.0,
    hi: float | None = None,
    entry_axis: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram path lengths, optionally only for one entry axis (1..3).

    Returns (edges, counts), as `np.histogram` bins them: a row of
    `LengthBinning.by_axis`.
    """
    if entry_axis not in (None, 1, 2, 3):
        raise ValueError(f"entry_axis must be None or 1..3, got {entry_axis!r}")
    binning = LengthBinning(bins, lo, batch.box.diagonal if hi is None else hi)
    return binning.edges, binning.by_axis(binning.count(batch))[entry_axis or 0]
